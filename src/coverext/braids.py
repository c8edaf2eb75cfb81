"""Braid groups as presented groups, and searches over their finite actions.

Generators of the m-strand group are named ``s1 .. s{m-1}``.  Relators are the
braid relations ``s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}`` and the far
commutations ``s_i s_j = s_j s_i`` for ``j >= i + 2``.

Both searches run on the coset-table columns of ``reps``: ``s{g + 1}`` is
column ``2g`` and its inverse ``2g + 1``.  ``_braid_relators`` writes the
relators down once, as column tuples; ``braid_presentation`` spells them, and
the searches read them directly, so neither builds a word.  ``_assignments``
files each relator once, under the generator that completes its support.

``hom_search`` enumerates *all* homomorphisms into a symmetric group with some
generator images pinned.  Every candidate the search tries is judged by two
independent relator evaluators, and a disagreement aborts the search.
Composition reads each image and its inverse column; point chasing reads only
the images and inverts with ``row.index``, so a wrong inverse table cannot
fool both.

Every generator is conjugate to ``s1``: the braid relation gives
``s_{i+1} = (s_i s_{i+1}) s_i (s_i s_{i+1})^-1``.  So a homomorphism into S_d
sends all generators into one conjugacy class, that is, one cycle type, and
both searches draw a generator's candidates from a single class.  An
assignment that mixes classes breaks some braid relation, so skipping those
candidates loses no solution.

With nothing pinned, ``hom_search`` runs up to simultaneous conjugation.
Conjugating every image by one h in S_d keeps every relator, so it maps
homomorphisms to homomorphisms one to one.  Per class, only the solutions
with ``s1`` on the class's first member r are searched and judged.  For each
member x, a relabelling h with ``h r h^-1 = x``, read off the cycles of r and
x in O(d), carries them exactly onto the solutions with ``s1 = x``.  The
copies need no second judgement, and the union over all members and classes
lists every homomorphism once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .cosets import Presentation
from .errors import CapExceeded
from .perms import Perm, cycle_type_of, cycles_of, inverse_images
from .reps import PermRep, _breadth_first, _column_of, _columns, _image_columns, _spell
from .words import Word


SEARCH_CAP = 10_000_000  # default bound on the raw assignment space of a search


def braid_generator_names(m: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(1, m))


def _braid_relators(m: int) -> list[tuple[int, ...]]:
    """The m-strand braid relators as columns (``s{g + 1}`` is column ``2g``):
    every braid relation ``s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1`` first,
    then the far commutations ``s_i s_j s_i^-1 s_j^-1`` by ``(i, j)``."""
    braid = [(2 * g, 2 * g + 2, 2 * g, 2 * g + 3, 2 * g + 1, 2 * g + 3) for g in range(m - 2)]
    far = [(2 * g, 2 * h, 2 * g + 1, 2 * h + 1) for g in range(m - 2) for h in range(g + 2, m - 1)]
    return braid + far


def braid_presentation(m: int) -> Presentation:
    """The m-strand braid group on generators s1..s{m-1}."""
    if m < 1:
        raise ValueError("need at least one strand")
    names = braid_generator_names(m)
    return Presentation(names, _spell(_braid_relators(m), names))


def standard_rep(m: int) -> PermRep:
    """The permutation action on strand endpoints: s_i acts as (i-1, i)."""
    return PermRep(m, {f"s{i}": Perm.transposition(m, i - 1, i) for i in range(1, m)})


def _fixes_every_point(columns: Mapping[int, tuple[int, ...]], letters: Sequence[int], degree: int) -> bool:
    """Trace each point through the letters on raw image tuples, reading only
    the even columns and inverting with ``row.index``; true when every point
    comes back to itself."""
    for start in range(degree):
        x = start
        for c in letters:
            row = columns[c & ~1]
            x = row.index(x) if c & 1 else row[x]
        if x != start:
            return False
    return True


def relator_holds_pointwise(images: Mapping[str, tuple[int, ...]], relator: Word, degree: int) -> bool:
    """Independent relator check: the relator must fix every point."""
    col_of = _column_of(list(images))
    columns = {col_of[name]: img for name, img in images.items()}
    return _fixes_every_point(columns, _columns(relator, col_of), degree)


def _composes_to_identity(columns: Mapping[int, tuple[int, ...]], letters: Sequence[int], degree: int) -> bool:
    """Compose whole column tuples left to right, inverses included."""
    acc = identity = tuple(range(degree))
    for c in letters:
        acc = tuple(map(columns[c].__getitem__, acc))
    return acc == identity


def _check_both_ways(columns: Mapping[int, tuple[int, ...]], letters: Sequence[int], degree: int) -> bool:
    """Judge one relator, given as its columns, by both evaluators.

    Composition reads the inverse columns; point chasing inverts with
    ``row.index`` and never reads them, so the two share no derived data.
    """
    a = _composes_to_identity(columns, letters, degree)
    b = _fixes_every_point(columns, letters, degree)
    if a != b:
        raise RuntimeError(f"relator evaluators disagree on columns {tuple(letters)} with {dict(columns)}")
    return a


def _assignments(
    degree: int,
    relators: Sequence[tuple[int, ...]],
    fixed: Mapping[int, tuple[int, ...]],
    slots: Sequence[tuple[int, Sequence[tuple[int, ...]]]],
) -> Iterator[dict[int, tuple[int, ...]]]:
    """Every extension of ``fixed`` on which all relators hold, depth first.

    Generators are keyed by index and relators are column tuples, generator
    ``g`` being column ``2g`` and its inverse ``2g + 1``.  Assignments are raw
    image tuples, keyed fixed generators first, then slots.  ``slots`` gives
    the generators still to assign, in order, each with its candidate images.
    Each relator is filed once, in one pass: under the slot whose generator
    completes its support, or with the relators on ``fixed`` generators
    only, which are judged once, up front.  The others are judged once per
    partial assignment, when that slot is assigned, by both evaluators.
    ``columns`` holds each assigned image and its inverse, inverted once when
    it is assigned; composition reads both, point chasing only the images.
    """
    slot_of = {g: i for i, (g, _) in enumerate(slots)}
    on_fixed: list[tuple[int, ...]] = []
    due: list[list[tuple[int, ...]]] = [[] for _ in slots]
    for r in relators:
        last = max(slot_of.get(c >> 1, -1) for c in r)
        (due[last] if last >= 0 else on_fixed).append(r)
    columns: dict[int, tuple[int, ...]] = {}
    for g, img in fixed.items():
        columns[2 * g], columns[2 * g + 1] = img, inverse_images(img)
    if not all(_check_both_ways(columns, r, degree) for r in on_fixed):
        return
    order = [*fixed, *slot_of]
    # Depth first on an explicit stack of candidate iterators, one per slot
    # being tried.  A recursive closure would hold itself through its cell, a
    # cycle that keeps ``columns`` and the filed relators alive until the
    # cyclic collector runs.
    if not slots:
        yield {g: columns[2 * g] for g in order}
        return
    stack = [iter(slots[0][1])]
    while stack:
        i = len(stack) - 1
        c = 2 * slots[i][0]
        for img in stack[i]:
            columns[c] = img
            columns[c + 1] = inverse_images(img)
            if all(_check_both_ways(columns, r, degree) for r in due[i]):
                if i + 1 == len(slots):
                    yield {g: columns[2 * g] for g in order}
                else:
                    stack.append(iter(slots[i + 1][1]))
                    break
        else:
            stack.pop()
            columns.pop(c, None)
            columns.pop(c + 1, None)


def _search_space(degree: int, free: int, cap: int) -> int | None:
    """``factorial(degree) ** free``, or None once it exceeds ``cap``.

    The product is built factor by factor and stops as soon as it passes
    ``cap``, so a huge ``degree`` or ``free`` costs about log2(cap) steps.
    """
    space = 1
    for _ in range(free if degree > 1 else 0):
        for k in range(2, degree + 1):
            space *= k
            if space > cap:
                return None
    return space


def _conjugacy_classes(degree: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """S_degree as raw image tuples, grouped by cycle type.

    Each class keeps the lexicographic order of ``itertools.permutations``.
    """
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for img in itertools.permutations(range(degree)):
        classes.setdefault(cycle_type_of(img), []).append(img)
    return classes


def _cycle_sequence(images: Sequence[int]) -> list[int]:
    """The points of a raw image tuple cycle by cycle, as ``cycles_of`` gives
    them, longer cycles first and equal lengths by least point.  Two
    conjugate permutations give sequences of the same shape, so matching
    them point by point relabels one into the other."""
    cycles = sorted(cycles_of(images), key=len, reverse=True)  # stable, so ties stay by least point
    return [x for cycle in cycles for x in cycle]


def _relabelling(source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """A permutation h with ``h r h^-1 = x``, from the cycle sequences of r
    and x: h sends ``source[i]`` to ``target[i]``, so it carries each cycle
    of r onto the cycle of x in the same place, and ``x(h(p)) = h(r(p))``
    for every point p."""
    h = [0] * len(source)
    for a, b in zip(source, target):
        h[a] = b
    return tuple(h)


def _conjugacy_search(
    degree: int, relators: Sequence[tuple[int, ...]], gens: int
) -> list[dict[int, tuple[int, ...]]]:
    """Every assignment of ``gens`` generators, keyed 0..gens-1, that keeps
    all relators, up to simultaneous conjugation (see :func:`hom_search`):
    per class, the search with generator 0 on the first member r, then one
    relabelled copy of its solutions for every member x."""
    solutions = []
    for members in _conjugacy_classes(degree).values():
        r = members[0]
        found = list(_assignments(degree, relators, {0: r}, [(g, members) for g in range(1, gens)]))
        if not found:
            continue
        source = _cycle_sequence(r)
        for x in members:
            h = _relabelling(source, _cycle_sequence(x))
            h_inv = inverse_images(h)
            solutions.extend(
                {g: tuple(map(h.__getitem__, map(img.__getitem__, h_inv))) for g, img in sol.items()}
                for sol in found
            )
    return solutions


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
    time, or only over the class of a pinned image.  Pins of different
    classes leave no solution, which the relators find.  Candidates are
    pruned as soon as a relator with fully assigned support fails (both
    evaluators are consulted at every check, and each relator is checked
    once per partial assignment).

    With nothing pinned the search runs up to simultaneous conjugation:
    for each class only the solutions T_r with ``s1`` on its first member r
    are searched and judged.  For every member x, a relabelling h with
    ``h r h^-1 = x`` carries T_r onto the solutions with ``s1 = x``, one to
    one, since an inner automorphism of S_degree keeps every relator; those
    copies are not judged again.

    Solutions come sorted by their images in generator order.  Raises
    :class:`CapExceeded` when the raw space of ``(degree!)^free`` assignments
    exceeds ``cap``, before any relator or candidate is built.  With every
    generator pinned only the relators are checked.  Into S_0 or S_1 the one
    homomorphism is returned without building the relators.
    """
    if m < 1:
        raise ValueError("need at least one strand")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    names = braid_generator_names(m)
    index = {name: g for g, name in enumerate(names)}
    fixed: dict[int, tuple[int, ...]] = {}
    for name, p in (pinned or {}).items():
        g = index.get(name)
        if g is None:
            raise ValueError(f"pinned generator {name!r} is not one of s1..s{m - 1}")
        if p.degree != degree:
            raise ValueError(f"pinned image for {name!r} has degree {p.degree}, expected {degree}")
        fixed[g] = tuple(p.images)
    free = m - 1 - len(fixed)
    if _search_space(degree, free, cap) is None:
        raise CapExceeded(f"search space of ({degree}!)^{free} assignments exceeds cap {cap}")
    free_gens = [g for g in range(m - 1) if g not in fixed]
    if degree <= 1:  # the one map into the trivial group; every relator holds
        return (dict.fromkeys((names[g] for g in [*fixed, *free_gens]), Perm.identity(degree)),)

    relators = _braid_relators(m)
    if fixed or not free_gens:
        # only the relators on the pins are checked when nothing is free
        members = _conjugacy_classes(degree)[cycle_type_of(next(iter(fixed.values())))] if free_gens else []
        solutions = list(_assignments(degree, relators, fixed, [(g, members) for g in free_gens]))
    else:
        solutions = _conjugacy_search(degree, relators, m - 1)
    solutions.sort(key=lambda sol: tuple(sol[g] for g in range(m - 1)))
    return tuple({names[g]: Perm(img) for g, img in sol.items()} for sol in solutions)


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
    one sheet, found without building the relators.  Raises
    :class:`CapExceeded` past ``cap_degree``, or before listing S_N when N!
    exceeds ``SEARCH_CAP``.
    """
    small_names = braid_generator_names(len(rho0.images) + 1)
    if set(small_names) != set(rho0.images):
        raise ValueError("rho0 must use contiguous braid generator names s1..sk")
    if len(small_names) + 1 > m_big:
        raise ValueError("target braid group must have at least as many strands")
    if not rho0.is_transitive():
        raise ValueError("rho0 must be transitive")
    b0 = rho0.degree
    if b0 <= 1 and cap_degree >= 1:  # the trivial action on one sheet extends
        return MinimalExtensionResult(1, dict.fromkeys(braid_generator_names(m_big), Perm.identity(1)))
    relators = _braid_relators(m_big)
    new_gens = range(len(small_names), m_big - 1)

    for degree in range(max(b0, 1), cap_degree + 1):
        if _search_space(degree, 1, SEARCH_CAP) is None:
            raise CapExceeded(f"degree {degree}: its {degree}! candidate images exceed the search cap {SEARCH_CAP}")
        classes = _conjugacy_classes(degree)
        tails = list(itertools.permutations(range(b0, degree)))
        first, *rest = [[tuple(rho0.images[n].images) + tail for tail in tails] for n in small_names]
        for image in first:
            slots = [*enumerate(rest, 1)] + [(g, classes[cycle_type_of(image)]) for g in new_gens]
            for a in _assignments(degree, relators, {0: image}, slots):
                if len(_breadth_first(degree, _image_columns(a.values()), 0)[0]) == degree:  # transitive
                    return MinimalExtensionResult(degree, {f"s{g + 1}": Perm(img) for g, img in a.items()})
    raise CapExceeded(f"no extension found up to degree cap {cap_degree}")
