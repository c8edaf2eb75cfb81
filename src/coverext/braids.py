"""Braid groups as presented groups, and searches over their finite actions.

Generators of the m-strand group are named ``s1 .. s{m-1}``.  Relators are the
braid relations ``s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}`` and the far
commutations ``s_i s_j = s_j s_i`` for ``j >= i + 2``.

``hom_search`` enumerates *all* homomorphisms into a symmetric group with some
generator images pinned; every accepted or rejected candidate is judged by two
independent relator evaluators (group composition vs raw point chasing), and a
disagreement aborts the search, so the returned list is exhaustive by
construction.

Every generator is conjugate to ``s1``: the braid relation gives
``s_{i+1} = (s_i s_{i+1}) s_i (s_i s_{i+1})^-1``.  So a homomorphism into S_d
sends all generators into one conjugacy class, that is, one cycle type, and
both searches draw a generator's candidates from a single class.  An
assignment that mixes classes breaks some braid relation, so skipping those
candidates loses no solution.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .cosets import Presentation
from .errors import CapExceeded
from .extension import Inclusion
from .perms import Perm, cycle_type_of, inverse_images
from .reps import PermRep, _breadth_first, _image_columns
from .words import Word


_GENERATOR_RE = re.compile(r"s([1-9][0-9]*)")
SEARCH_CAP = 10_000_000  # default bound on the raw assignment space of a search


def braid_generator_names(m: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(1, m))


def braid_presentation(m: int) -> Presentation:
    """The m-strand braid group on generators s1..s{m-1}."""
    if m < 1:
        raise ValueError("need at least one strand")
    names = braid_generator_names(m)
    relators: list[Word] = []
    for i in range(1, m - 1):
        a, b = Word.gen(f"s{i}"), Word.gen(f"s{i + 1}")
        relators.append(a * b * a * (b * a * b).inverse())
    for i in range(1, m - 1):
        for j in range(i + 2, m):
            a, b = Word.gen(f"s{i}"), Word.gen(f"s{j}")
            relators.append(a * b * a.inverse() * b.inverse())
    return Presentation(names, tuple(relators))


def standard_rep(m: int) -> PermRep:
    """The permutation action on strand endpoints: s_i acts as (i-1, i)."""
    return PermRep(m, {f"s{i}": Perm.transposition(m, i - 1, i) for i in range(1, m)})


def braid_inclusion(m_small: int, m_big: int) -> Inclusion:
    """The strand-adding inclusion: s_i goes to s_i."""
    if not 1 <= m_small <= m_big:
        raise ValueError("need 1 <= m_small <= m_big")
    small = braid_generator_names(m_small)
    return Inclusion(small, {g: Word.gen(g) for g in small}, braid_presentation(m_big))


def _fixes_every_point(
    images: Mapping[str, tuple[int, ...]],
    letters: Sequence[tuple[str, int]],
    degree: int,
) -> bool:
    """Trace each point through the letters on raw image tuples, inverting
    with ``row.index``; true when every point comes back to itself."""
    for start in range(degree):
        x = start
        for name, step in letters:
            row = images[name]
            x = row[x] if step > 0 else row.index(x)
        if x != start:
            return False
    return True


def relator_holds_pointwise(images: Mapping[str, tuple[int, ...]], relator: Word, degree: int) -> bool:
    """Independent relator check: the relator must fix every point."""
    return _fixes_every_point(images, tuple(relator.letters()), degree)


def _composes_to_identity(
    images: Mapping[str, tuple[int, ...]],
    inverses: Mapping[str, tuple[int, ...]],
    letters: Sequence[tuple[str, int]],
    degree: int,
) -> bool:
    """Compose whole image tuples left to right, inverses read from ``inverses``."""
    acc = identity = tuple(range(degree))
    for name, step in letters:
        acc = tuple(map((images if step > 0 else inverses)[name].__getitem__, acc))
    return acc == identity


def _check_both_ways(
    images: Mapping[str, tuple[int, ...]],
    inverses: Mapping[str, tuple[int, ...]],
    letters: Sequence[tuple[str, int]],
    degree: int,
) -> bool:
    """Judge one relator, given as its letters, by both evaluators.

    Composition reads the inverse tables; point chasing inverts with
    ``row.index`` and never sees them, so the two share no derived data.
    """
    a = _composes_to_identity(images, inverses, letters, degree)
    b = _fixes_every_point(images, letters, degree)
    if a != b:
        raise RuntimeError(f"relator evaluators disagree on {Word(tuple(letters))} with {dict(images)}")
    return a


def _assignments(
    degree: int,
    relators: Sequence[Word],
    fixed: Mapping[str, tuple[int, ...]],
    slots: Sequence[tuple[str, Sequence[tuple[int, ...]]]],
) -> Iterator[dict[str, tuple[int, ...]]]:
    """Every extension of ``fixed`` on which all relators hold, depth first.

    Assignments are raw image tuples.  ``slots`` gives the generators still to
    assign, in order, each with its candidate images.  Relators on ``fixed``
    generators only are judged once, up front; every other relator is judged
    once per partial assignment, when the last generator of its support is
    assigned, by both evaluators.  Each relator is compiled to its letters
    once per call, and each candidate is inverted once, when it is assigned.
    """
    compiled = [(tuple(r.letters()), set(r.generators())) for r in relators]
    known = set(fixed)
    on_fixed = [letters for letters, support in compiled if support <= known]
    due: list[list[tuple[tuple[str, int], ...]]] = []
    for name, _ in slots:
        known.add(name)
        due.append([letters for letters, support in compiled if name in support and support <= known])
    images = dict(fixed)
    inverses = {name: inverse_images(img) for name, img in fixed.items()}
    if not all(_check_both_ways(images, inverses, r, degree) for r in on_fixed):
        return

    def extend(i: int) -> Iterator[dict[str, tuple[int, ...]]]:
        if i == len(slots):
            yield dict(images)
            return
        name, candidates = slots[i]
        for img in candidates:
            images[name] = img
            inverses[name] = inverse_images(img)
            if all(_check_both_ways(images, inverses, r, degree) for r in due[i]):
                yield from extend(i + 1)
        del images[name], inverses[name]

    yield from extend(0)


def _is_generator_name(name: str, m: int) -> bool:
    """Whether ``name`` is one of s1..s{m-1}, without listing them."""
    match = _GENERATOR_RE.fullmatch(name)
    return match is not None and int(match.group(1)) < m


def _space_exceeds(degree: int, free: int, cap: int) -> bool:
    """Whether ``factorial(degree) ** free`` exceeds ``cap``.

    The product is built factor by factor and stops as soon as it passes
    ``cap``, so a huge ``degree`` or ``free`` costs about log2(cap) steps.
    """
    space = 1
    for _ in range(free if degree > 1 else 0):
        for k in range(2, degree + 1):
            space *= k
            if space > cap:
                return True
    return False


def _conjugacy_classes(degree: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """S_degree as raw image tuples, grouped by cycle type.

    Each class keeps the lexicographic order of ``itertools.permutations``.
    """
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for img in itertools.permutations(range(degree)):
        classes.setdefault(cycle_type_of(img), []).append(img)
    return classes


def hom_search(
    m: int,
    degree: int,
    pinned: Mapping[str, Perm] | None = None,
    cap: int = SEARCH_CAP,
) -> tuple[dict[str, Perm], ...]:
    """All homomorphisms from the m-strand braid group into S_degree.

    ``pinned`` fixes the images of some generators.  Since every generator is
    conjugate to ``s1``, all images of a homomorphism share one cycle type:
    the free generators range over one conjugacy class of S_degree at a
    time, or only over the class of a pinned image.  The search is still
    exhaustive; pins of different classes leave no solution, which the
    relators find.  Candidates are pruned as soon as a relator with fully
    assigned support fails (both evaluators are consulted at every check, and
    each relator is checked once per partial assignment).  Solutions come
    sorted by their images in generator order.  Raises :class:`CapExceeded`
    when the raw space of ``(degree!)^free`` assignments exceeds ``cap``,
    before the presentation or any candidate is built.  With every generator
    pinned only the relators are checked.  Into S_0 or S_1 the one
    homomorphism is returned without building the presentation.
    """
    if m < 1:
        raise ValueError("need at least one strand")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    pinned = dict(pinned or {})
    for name, p in pinned.items():
        if not _is_generator_name(name, m):
            raise ValueError(f"pinned generator {name!r} is not one of s1..s{m - 1}")
        if p.degree != degree:
            raise ValueError(f"pinned image for {name!r} has degree {p.degree}, expected {degree}")
    free = m - 1 - len(pinned)
    if _space_exceeds(degree, free, cap):
        raise CapExceeded(f"search space of ({degree}!)^{free} assignments exceeds cap {cap}")
    if degree <= 1:  # the one map into the trivial group; every relator holds
        identity = Perm.identity(degree)
        names = list(pinned) + [n for n in braid_generator_names(m) if n not in pinned]
        return (dict.fromkeys(names, identity),)

    pres = braid_presentation(m)
    names = pres.generators
    free_names = [n for n in names if n not in pinned]
    fixed = {name: tuple(p.images) for name, p in pinned.items()}
    if not free_names:  # only the relators on the pins are checked
        classes: list[list[tuple[int, ...]]] = [[]]
    elif fixed:
        classes = [_conjugacy_classes(degree)[cycle_type_of(next(iter(fixed.values())))]]
    else:
        classes = list(_conjugacy_classes(degree).values())
    solutions = [
        sol
        for members in classes
        for sol in _assignments(degree, pres.relators, fixed, [(n, members) for n in free_names])
    ]
    solutions.sort(key=lambda sol: tuple(sol[n] for n in names))
    return tuple({name: Perm(img) for name, img in sol.items()} for sol in solutions)


@dataclass(frozen=True)
class MinimalExtensionResult:
    """Smallest sheet count carrying an extension, with one witness action."""

    degree: int
    images: dict[str, Perm]


def minimal_extension_degree(
    rho0: PermRep,
    m_big: int,
    cap_degree: int = 8,
) -> MinimalExtensionResult:
    """Least N so the cover extends to the bigger braid group on N sheets.

    ``rho0`` is a transitive action of the strand-endpoint generators of some
    smaller braid group; the extension must be a transitive action of the
    ``m_big``-strand group whose fiber contains the original fiber through an
    injective equivariant map.  Conjugating any witness moves the embedded
    fiber to the first ``b0`` sheets, so only the standard inclusion is
    searched: shared generators must act on those sheets exactly as ``rho0``
    (and hence permute the remaining sheets among themselves); each new
    generator ranges over the conjugacy class of the image of ``s1``, since
    every generator is conjugate to it.  The first transitive solution in
    depth-first order is returned.  A cover of at most one sheet extends on
    one sheet, found without building the presentation.  Raises
    :class:`CapExceeded` past ``cap_degree``, or before listing S_N when N!
    exceeds ``SEARCH_CAP``.
    """
    small_names = sorted(rho0.images, key=lambda s: int(s.lstrip("s")))
    if small_names != list(braid_generator_names(len(small_names) + 1)):
        raise ValueError("rho0 must use contiguous braid generator names s1..sk")
    m_small = len(small_names) + 1
    if m_small > m_big:
        raise ValueError("target braid group must have at least as many strands")
    if not rho0.is_transitive():
        raise ValueError("rho0 must be transitive")
    b0 = rho0.degree
    if b0 <= 1 and cap_degree >= 1:  # the trivial action on one sheet extends
        return MinimalExtensionResult(1, dict.fromkeys(braid_generator_names(m_big), Perm.identity(1)))
    pres = braid_presentation(m_big)
    new_names = [n for n in pres.generators if n not in rho0.images]

    for degree in range(max(b0, 1), cap_degree + 1):
        if _space_exceeds(degree, 1, SEARCH_CAP):
            raise CapExceeded(f"degree {degree}: its {degree}! candidate images exceed the search cap {SEARCH_CAP}")
        classes = _conjugacy_classes(degree)
        tails = list(itertools.permutations(range(b0, degree)))
        lifts = {n: [tuple(rho0.images[n].images) + tail for tail in tails] for n in small_names}
        first, *rest = small_names
        for image in lifts[first]:
            slots = [(n, lifts[n]) for n in rest] + [(n, classes[cycle_type_of(image)]) for n in new_names]
            for a in _assignments(degree, pres.relators, {first: image}, slots):
                if len(_breadth_first(degree, _image_columns(a.values()), 0)[0]) == degree:  # transitive
                    return MinimalExtensionResult(degree, {n: Perm(img) for n, img in a.items()})
    raise CapExceeded(f"no extension found up to degree cap {cap_degree}")
