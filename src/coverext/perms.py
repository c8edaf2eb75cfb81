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

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        out = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugated_by(self, g: "Perm") -> "Perm":
        """Relabel points through g: sends g(x) to g(self(x))."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for x, y in enumerate(self.images) if x == y)

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, y in enumerate(self.images) if x != y)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element, sorted."""
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        from math import lcm

        return lcm(*(self.cycle_type() or (1,)))

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

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


def generated_order(perms: Sequence[Perm], cap: int = 1_000_000) -> int:
    """Order of the group the permutations generate."""
    return len(generate(perms, cap=cap))
