"""Permutations of {0, ..., n-1} composed left to right.

``(p * q)(x) == q(p(x))``: the left factor acts first.  This matches how loop
concatenation acts on sheets, so representations evaluate words left to right
with no reversal anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
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
    """Order of the group the permutations generate (0 for no generators).

    The order is the product of the basic orbit lengths of a base and strong
    generating set (:func:`_basic_orbits`), so nothing enumerates the group.
    """
    if not perms:
        return 0
    n = perms[0].degree
    if any(p.degree != n for p in perms):
        raise ValueError("degree mismatch")
    return prod(len(orbit) for orbit in _basic_orbits([p.images for p in perms], n))


def _basic_orbits(gens: Sequence[tuple[int, ...]], n: int) -> list[dict]:
    """Basic orbits of a base and strong generating set of the group the
    image tuples generate, by deterministic Schreier-Sims (Holt, Eick &
    O'Brien, *Handbook of Computational Group Theory*, 2005, sec. 4.4.2).

    Level i has a base point b_i, the strong generators fixing b_0..b_{i-1}
    and its orbit: a dict sending each orbit point p to (u_p, u_p^-1), with
    u_p a group element taking b_i to p.  Orbits only grow, so an orbit
    point keeps its u_p, and a Schreier generator u_p g u_{g(p)}^-1 that
    sifted to the identity once still does; each (point, generator) pair is
    therefore sifted once.  The group order is the product of the orbit
    lengths.
    """
    ident = tuple(range(n))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
    tested: list[set[tuple[int, int]]] = []

    def add_level(g: tuple[int, ...]) -> None:
        b = next(x for x in range(n) if g[x] != x)
        base.append(b)
        strong.append([])
        orbits.append({b: (ident, ident)})
        tested.append(set())

    def add_generator(level: int, g: tuple[int, ...]) -> None:
        strong[level].append(g)
        orbit = orbits[level]
        queue = list(orbit)
        for p in queue:
            u = orbit[p][0]
            for h in strong[level]:
                q = h[p]
                if q not in orbit:
                    uh = tuple(h[x] for x in u)
                    orbit[q] = (uh, inverse_images(uh))
                    queue.append(q)

    def sift(g: tuple[int, ...], level: int) -> tuple[tuple[int, ...], int]:
        """Strip g through the levels from ``level`` on; the residue and the
        level where it left the orbits (the number of levels if none)."""
        for i in range(level, len(base)):
            entry = orbits[i].get(g[base[i]])
            if entry is None:
                return g, i
            g = tuple(entry[1][x] for x in g)
        return g, len(base)

    nontrivial = [g for g in gens if g != ident]
    for g in nontrivial:
        if all(g[b] == b for b in base):
            add_level(g)
    for level in range(len(base)):
        for g in nontrivial:
            if all(g[b] == b for b in base[:level]):
                add_generator(level, g)

    def residue(level: int) -> tuple[tuple[int, ...], int] | None:
        """The first Schreier generator of the level that does not sift to
        the identity, as ``sift`` leaves it; None if every one does."""
        orbit = orbits[level]
        for p, (u, _) in orbit.items():
            for k, g in enumerate(strong[level]):
                if (p, k) not in tested[level]:
                    u_inv = orbit[g[p]][1]
                    h, drop = sift(tuple(u_inv[g[x]] for x in u), level + 1)
                    if h != ident:
                        return h, drop
                    tested[level].add((p, k))
        return None

    level = len(base) - 1
    while level >= 0:
        found = residue(level)
        if found is None:
            level -= 1
            continue
        h, drop = found
        if drop == len(base):
            add_level(h)
        for i in range(level + 1, drop + 1):
            add_generator(i, h)
        level = drop
    return orbits
