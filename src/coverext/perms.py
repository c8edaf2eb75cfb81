"""Permutations of {0, ..., n-1} composed left to right.

``(p * q)(x) == q(p(x))``: the left factor acts first.  This matches how loop
concatenation acts on sheets, so representations evaluate words left to right
with no reversal anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded


@dataclass(frozen=True)
class Perm:
    """A permutation stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @staticmethod
    def from_images(images: Sequence[int]) -> "Perm":
        return Perm(tuple(int(x) for x in images))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return Perm(tuple(images))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Perm":
        return Perm.from_cycles(n, [(i, j)])

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        """Left-to-right composition: self acts first, then other."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(other.images[y] for y in self.images))

    def inverse(self) -> "Perm":
        return Perm(inverse_images(self.images))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element, sorted."""
        return tuple(c for c in cycles_of(self.images) if len(c) > 1)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        return cycle_type_of(self.images)

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


def inverse_images(images: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the inverse of a permutation given by its image tuple."""
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(inv)


def cycles_of(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Every cycle of a raw image tuple, fixed points included, each from its
    least point, in the order of their least points."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        if cycle:
            out.append(tuple(cycle))
    return out


def cycle_type_of(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a raw image tuple, fixed points included, sorted descending.

    Two permutations of the same degree are conjugate exactly when these agree.
    """
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def format_cycles(p: Perm) -> str:
    """Cycle string like ``(0 1)(2 4 3)``; identity prints as ``()``."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


def generate(perms: Sequence[Perm], cap: int = 1_000_000) -> set[Perm]:
    """Closure of the given permutations under composition (BFS)."""
    if not perms:
        return set()
    n = perms[0].degree
    seen = {Perm.identity(n)}
    frontier = [Perm.identity(n)]
    while frontier:
        nxt: list[Perm] = []
        for g in frontier:
            for h in perms:
                gh = g * h
                if gh not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group closure exceeded cap {cap}")
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return seen


def generated_order(perms: Sequence[Perm]) -> int:
    """Order of the group the permutations generate (0 for no generators),
    by Schreier-Sims with a Sims filter (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, sec. 4.4), so nothing enumerates the
    group.

    Each pass takes the first point b that a generator moves, walks its orbit
    with a transversal (u_p takes b to p) and multiplies the order by the
    orbit length.  The Schreier generators u_p g u_{g(p)}^-1 generate the
    stabilizer of b; the filter keeps them in a table keyed by (i, h(i)),
    where i is the first point h moves.  A new h is stripped by the kept k of
    its key, h <- h k^-1, which fixes i and every point before it, until h is
    the identity or its key is free.  So at most n(n-1)/2 elements stay,
    they generate the same stabilizer, and they are the next pass's
    generators; the passes end at the trivial group.
    """
    if not perms:
        return 0
    n = perms[0].degree
    if any(p.degree != n for p in perms):
        raise ValueError("degree mismatch")
    ident = tuple(range(n))
    gens = [p.images for p in perms if p.images != ident]
    order = 1
    while gens:
        b = min(next(x for x in ident if g[x] != x) for g in gens)
        trans = {b: ident}
        orbit = [b]
        for p in orbit:
            for g in gens:
                if g[p] not in trans:
                    trans[g[p]] = tuple(g[x] for x in trans[p])
                    orbit.append(g[p])
        order *= len(orbit)
        inverses = {p: inverse_images(u) for p, u in trans.items()}
        kept: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for p, u in trans.items():
            for g in gens:
                v_inv = inverses[g[p]]
                h = tuple(v_inv[g[x]] for x in u)
                for i in range(n):  # h fixes every point before i
                    if h[i] != i:
                        key = (i, h[i])
                        if key not in kept:
                            kept[key] = (h, inverse_images(h))
                            break
                        k_inv = kept[key][1]
                        h = tuple(k_inv[y] for y in h)
        gens = [k for k, _ in kept.values()]
    return order
