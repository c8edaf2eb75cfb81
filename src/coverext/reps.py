"""Permutation representations: named generators acting on a finite sheet set."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .perms import Perm, inverse_images
from .words import Word


@dataclass(frozen=True)
class PermRep:
    """Images of free-group generators in the symmetric group on ``degree`` points."""

    degree: int
    images: Mapping[str, Perm] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in self.images.items():
            if p.degree != self.degree:
                raise ValueError(f"image of {name!r} has degree {p.degree}, expected {self.degree}")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.images))

    def act_word(self, word: Word) -> Perm:
        """Evaluate the induced homomorphism on a word (left letter acts first).

        Composes raw image tuples and inverts each generator at most once, so
        the cost is O(degree * |word|) plus O(degree) per inverted generator.
        """
        out = tuple(range(self.degree))
        inverses: dict[str, tuple[int, ...]] = {}
        for name, step in word.letters():
            if name not in self.images:
                raise ValueError(f"representation has no generator {name!r}")
            img = self.images[name].images
            if step < 0:
                if name not in inverses:
                    inverses[name] = inverse_images(img)
                img = inverses[name]
            out = tuple(img[y] for y in out)
        return Perm(out)

    def orbit(self, point: int) -> tuple[int, ...]:
        """Orbit of a point under the generated group, in discovery order.

        Breadth first; from each point every generator's image is tried, then
        its inverse's, in ``images`` order.  Each inverse table is built once,
        so the cost is O(degree * k) for k generators.
        """
        moves = [(p.images, inverse_images(p.images)) for p in self.images.values()]
        seen = [False] * self.degree
        seen[point] = True
        order = [point]
        frontier = [point]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for img, inv in moves:
                    for y in (img[x], inv[x]):
                        if not seen[y]:
                            seen[y] = True
                            order.append(y)
                            nxt.append(y)
            frontier = nxt
        return tuple(order)

    def is_transitive(self) -> bool:
        return self.degree == 0 or len(self.orbit(0)) == self.degree
