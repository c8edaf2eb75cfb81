"""Permutation representations: named generators acting on a finite sheet set.

This module owns the integer column encoding that every group layer runs on:
generator ``i`` of an ordered name list is column ``2i`` and its inverse is
column ``2i + 1``, as a coset table numbers them (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005, §5.1).  ``_column_of``,
``_columns`` and ``_spell`` translate between names, words and columns, and
``_image_columns`` and ``_breadth_first`` run actions on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .perms import Perm, inverse_images
from .words import Word


def _column_of(gen_names: Sequence[str]) -> dict[str, int]:
    """Coset-table column of each generator; its inverse is the next column."""
    return {g: 2 * i for i, g in enumerate(gen_names)}


def _columns(word: Word, col_of: Mapping[str, int]) -> tuple[int, ...]:
    """A word's letters as columns; a reduced word gives reduced columns."""
    out: list[int] = []
    for name, exp in word.syllables:
        if name not in col_of:
            raise ValueError(f"word uses unknown generator {name!r}")
        out += [col_of[name] + (exp < 0)] * abs(exp)
    return tuple(out)


def _spell(words: Iterable[Iterable[int]], gen_names: Sequence[str]) -> tuple[Word, ...]:
    """The words of column sequences (``Word`` reduces them freely)."""
    letters = [(g, step) for g in gen_names for step in (1, -1)]
    return tuple(Word(tuple(map(letters.__getitem__, cols))) for cols in words)


def _image_columns(tables: Iterable[Sequence[int]]) -> list[Sequence[int]]:
    """Each image table followed by its inverse: column ``2i`` is generator
    ``i`` and ``2i + 1`` its inverse, as the coset table numbers them."""
    return [col for img in tables for col in (img, inverse_images(img))]


def _breadth_first(
    degree: int, columns: Sequence[Sequence[int]], start: int
) -> tuple[list[int], list[int | None]]:
    """Breadth-first walk from ``start``: the points in discovery order, and
    for each point the column that first reached it (``-1`` at ``start``,
    ``None`` where the walk never came).

    From each point the columns are tried in order.  The point that a column
    ``c`` came from is ``columns[c ^ 1][t]``, so the walk is also the
    spanning tree of the orbit (the arrival-column "Schreier vector" of Holt,
    Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, §4.1).
    """
    came: list[int | None] = [None] * degree
    came[start] = -1
    order = [start]
    numbered = list(enumerate(columns))
    for x in order:  # the order grows while it is walked
        for c, col in numbered:
            y = col[x]
            if came[y] is None:
                came[y] = c
                order.append(y)
    return order, came


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

        Composes raw image tuples, inverting a generator once per syllable
        with a negative exponent, so the cost is O(degree * |word|).
        """
        out = tuple(range(self.degree))
        for name, exp in word.syllables:
            if name not in self.images:
                raise ValueError(f"representation has no generator {name!r}")
            img = self.images[name].images
            if exp < 0:
                img = inverse_images(img)
            for _ in range(abs(exp)):
                out = tuple(img[y] for y in out)
        return Perm(out)

    def orbit(self, point: int) -> tuple[int, ...]:
        """Orbit of a point under the generated group, in discovery order.

        Breadth first; from each point every generator's image is tried, then
        its inverse's, in ``images`` order.  Each inverse table is built once,
        so the cost is O(degree * k) for k generators.
        """
        columns = _image_columns(p.images for p in self.images.values())
        return tuple(_breadth_first(self.degree, columns, point)[0])

    def is_transitive(self) -> bool:
        return self.degree == 0 or len(self.orbit(0)) == self.degree
