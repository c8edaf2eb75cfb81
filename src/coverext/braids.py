"""Braid groups as presented groups, and searches over their finite actions.

Generators of the m-strand group are named ``s1 .. s{m-1}``.  Relators are the
braid relations ``s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}`` and the far
commutations ``s_i s_j = s_j s_i`` for ``j >= i + 2``.

``hom_search`` enumerates *all* homomorphisms into a symmetric group with some
generator images pinned; every accepted or rejected candidate is judged by two
independent relator evaluators (group composition vs raw point chasing), and a
disagreement aborts the search, so the returned list is exhaustive by
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Mapping, Sequence

from .cosets import Presentation
from .errors import CapExceeded
from .extension import Inclusion
from .perms import Perm
from .reps import PermRep
from .words import Word


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


def _chase(images: Mapping[str, tuple[int, ...]], word: Word, x: int) -> int:
    """Trace one point through a word using only raw image tuples."""
    for name, step in word.letters():
        row = images[name]
        x = row[x] if step > 0 else row.index(x)
    return x


def relator_holds_pointwise(images: Mapping[str, tuple[int, ...]], relator: Word, degree: int) -> bool:
    """Independent relator check: the relator must fix every point."""
    return all(_chase(images, relator, x) == x for x in range(degree))


def _relator_holds_composed(images: Mapping[str, Perm], relator: Word, degree: int) -> bool:
    return PermRep(degree, dict(images)).act_word(relator).is_identity()


def _check_both_ways(images: Mapping[str, Perm], relator: Word, degree: int) -> bool:
    a = _relator_holds_composed(images, relator, degree)
    b = relator_holds_pointwise({n: p.images for n, p in images.items()}, relator, degree)
    if a != b:
        raise RuntimeError(f"relator evaluators disagree on {relator} with {images}")
    return a


def _assignments(
    degree: int,
    relators: Sequence[Word],
    fixed: Mapping[str, Perm],
    slots: Sequence[tuple[str, Sequence[Perm]]],
) -> Iterator[dict[str, Perm]]:
    """Every extension of ``fixed`` on which all relators hold, depth first.

    ``slots`` gives the generators still to assign, in order, each with its
    candidate images.  Relators on ``fixed`` generators only are judged once,
    up front; every other relator is judged once per partial assignment, when
    the last generator of its support is assigned, by both evaluators.
    """
    supports = [(r, set(r.generators())) for r in relators]
    known = set(fixed)
    on_fixed = [r for r, support in supports if support <= known]
    due: list[list[Word]] = []
    for name, _ in slots:
        known.add(name)
        due.append([r for r, support in supports if name in support and support <= known])
    assigned = dict(fixed)
    if not all(_check_both_ways(assigned, r, degree) for r in on_fixed):
        return

    def extend(i: int) -> Iterator[dict[str, Perm]]:
        if i == len(slots):
            yield dict(assigned)
            return
        name, candidates = slots[i]
        for p in candidates:
            assigned[name] = p
            if all(_check_both_ways(assigned, r, degree) for r in due[i]):
                yield from extend(i + 1)
        del assigned[name]

    yield from extend(0)


def hom_search(
    m: int,
    degree: int,
    pinned: Mapping[str, Perm] | None = None,
    cap: int = 10_000_000,
) -> tuple[dict[str, Perm], ...]:
    """All homomorphisms from the m-strand braid group into S_degree.

    ``pinned`` fixes the images of some generators; the rest range over the
    whole symmetric group.  Candidates are pruned as soon as a relator with
    fully assigned support fails (both evaluators are consulted at every
    check, and each relator is checked once per partial assignment).  Raises
    :class:`CapExceeded` when the raw search space exceeds ``cap`` assignments.
    """
    pres = braid_presentation(m)
    names = list(pres.generators)
    pinned = dict(pinned or {})
    for name, p in pinned.items():
        if name not in names:
            raise ValueError(f"pinned generator {name!r} is not one of {names}")
        if p.degree != degree:
            raise ValueError(f"pinned image for {name!r} has degree {p.degree}, expected {degree}")
    free_names = [n for n in names if n not in pinned]
    space = factorial(degree) ** len(free_names)
    if space > cap:
        raise CapExceeded(f"search space of {space} assignments exceeds cap {cap}")

    sym = [Perm(p) for p in itertools.permutations(range(degree))]
    solutions = list(_assignments(degree, pres.relators, pinned, [(n, sym) for n in free_names]))
    solutions.sort(key=lambda sol: tuple(sol[n].images for n in names))
    return tuple(solutions)


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
    (and hence permute the remaining sheets among themselves); everything else
    is free.  Raises :class:`CapExceeded` past ``cap_degree``.
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
    pres = braid_presentation(m_big)
    new_names = [n for n in pres.generators if n not in rho0.images]

    for degree in range(max(b0, 1), cap_degree + 1):
        tails = list(itertools.permutations(range(b0, degree)))
        sym = [Perm(p) for p in itertools.permutations(range(degree))]
        slots = [(n, [Perm(tuple(rho0.images[n].images) + tail) for tail in tails]) for n in small_names]
        slots += [(n, sym) for n in new_names]
        found = next(
            (a for a in _assignments(degree, pres.relators, {}, slots) if PermRep(degree, a).is_transitive()),
            None,
        )
        if found is not None:
            return MinimalExtensionResult(degree, found)
    raise CapExceeded(f"no extension found up to degree cap {cap_degree}")
