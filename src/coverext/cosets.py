"""Coset machinery: stabilizer generators and coset enumeration.

Two complementary routes between subgroups and permutation actions:

* ``schreier_generators`` reads generators of a point stabilizer off a
  transitive permutation representation (breadth-first transversal, one word
  per (sheet, generator) edge, spanning-tree edges dropped).
* ``todd_coxeter`` enumerates cosets of a finitely generated subgroup of a
  finitely presented group and returns the coset table together with the
  induced permutation action.  Deterministic; bounded by a live-coset cap.

Cosets are right cosets, numbered from 0 (the subgroup itself), and the
action is on the right: ``table.act(c, w)`` is the coset of ``rep(c) * w``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import CapExceeded
from .perms import Perm, inverse_images
from .reps import PermRep
from .words import Word


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: generator names plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        known = set(self.generators)
        for r in self.relators:
            for name in r.generators():
                if name not in known:
                    raise ValueError(f"relator uses unknown generator {name!r}")

    @staticmethod
    def free(generators: Sequence[str]) -> "Presentation":
        return Presentation(tuple(generators), ())


@dataclass(frozen=True)
class StabilizerData:
    """Transversal words and stabilizer generators for a point stabilizer."""

    base_point: int
    transversal: tuple[Word, ...]
    generators: tuple[Word, ...]


def schreier_generators(
    rep: PermRep,
    gen_order: Sequence[str] | None = None,
    base_point: int = 0,
) -> StabilizerData:
    """Stabilizer generators of ``base_point`` under a transitive representation.

    The transversal is breadth-first in ``gen_order`` (each generator tried
    with exponent +1 then -1), so ``transversal[s]`` maps the base point to
    sheet ``s``.  For each sheet ``s`` and generator ``g`` the word
    ``transversal[s] * g * transversal[g(s)]**-1`` stabilizes the base point;
    the freely trivial ones (spanning-tree edges) are dropped, leaving
    ``b*(n-1) + 1`` generators for a transitive action on ``b`` sheets.

    Each inverse image table is built once and each word is reduced once, so
    the cost is O(b * n * |word|) for transversal words of length ``|word|``.
    """
    names = tuple(gen_order) if gen_order is not None else rep.generator_names
    if set(names) != set(rep.images):
        raise ValueError("gen_order must list exactly the representation's generators")
    b = rep.degree
    moves = []  # (images, inverse images, letter, inverse letter) per generator
    for name in names:
        img = rep.images[name].images
        moves.append((img, inverse_images(img), Word.gen(name).syllables, Word.gen(name, -1).syllables))
    transversal: list[Word | None] = [None] * b
    transversal[base_point] = Word.identity()
    order = [base_point]
    frontier = [base_point]
    while frontier:
        nxt: list[int] = []
        for s in frontier:
            for img, inv, up, down in moves:
                for t, letter in ((img[s], up), (inv[s], down)):
                    if transversal[t] is None:
                        transversal[t] = Word(transversal[s].syllables + letter)  # type: ignore[union-attr]
                        order.append(t)
                        nxt.append(t)
        frontier = nxt
    if any(t is None for t in transversal):
        raise ValueError("representation is not transitive; stabilizer has no finite transversal data")
    back = [t.inverse().syllables for t in transversal]  # type: ignore[union-attr]
    gens: list[Word] = []
    for s in order:
        head = transversal[s].syllables  # type: ignore[union-attr]
        for img, _, up, _ in moves:
            w = Word(head + up + back[img[s]])
            if not w.is_identity():
                gens.append(w)
    return StabilizerData(base_point, tuple(transversal), tuple(gens))  # type: ignore[arg-type]


def _column_of(gen_names: Sequence[str]) -> dict[str, int]:
    """Coset-table column of each generator; its inverse is the next column."""
    return {g: 2 * i for i, g in enumerate(gen_names)}


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table; coset 0 is the subgroup."""

    gen_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    rep_words: tuple[Word, ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    @cached_property
    def _col_of(self) -> dict[str, int]:
        return _column_of(self.gen_names)

    def _col(self, name: str, step: int) -> int:
        if name not in self._col_of:
            raise ValueError(f"coset table has no generator {name!r}")
        return self._col_of[name] + (0 if step > 0 else 1)

    def act(self, coset: int, word: Word) -> int:
        """Coset reached from ``coset`` by right multiplication with ``word``."""
        c = coset
        for name, step in word.letters():
            c = self.rows[c][self._col(name, step)]
        return c

    def coset_action(self, name: str) -> Perm:
        col = self._col(name, 1)
        return Perm(tuple(row[col] for row in self.rows))

    def to_rep(self) -> PermRep:
        return PermRep(self.index, {g: self.coset_action(g) for g in self.gen_names})

    def format_table(self) -> str:
        """Tab-separated dump: one row per coset, one column per signed generator."""
        header = ["coset"]
        for g in self.gen_names:
            header += [g, f"{g}^-1"]
        lines = ["\t".join(header)]
        for c, row in enumerate(self.rows):
            lines.append("\t".join([str(c)] + [str(x) for x in row]))
        return "\n".join(lines)


class _CapHit(Exception):
    pass


class _Enumerator:
    """Coset enumeration with relator scanning, coincidences and lookahead."""

    def __init__(self, pres: Presentation, subgroup: Sequence[Word], cap: int) -> None:
        self.pres = pres
        self.cap = cap
        self.ncols = 2 * len(pres.generators)
        self.col_of = _column_of(pres.generators)
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]
        self.words: list[Word] = [Word.identity()]
        self.alive = 1
        self.relator_cols = [self._word_cols(r) for r in pres.relators if not r.is_identity()]
        self.subgroup_cols = [self._word_cols(w) for w in subgroup if not w.is_identity()]

    def _word_cols(self, w: Word) -> list[int]:
        out = []
        for name, step in w.letters():
            if name not in self.col_of:
                raise ValueError(f"word uses unknown generator {name!r}")
            out.append(self.col_of[name] + (0 if step > 0 else 1))
        return out

    def rep(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def _define(self, a: int, col: int) -> int:
        if self.alive >= self.cap:
            raise _CapHit
        b = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(b)
        self.words.append(self.words[a] * self._letter(col))
        self.alive += 1
        self.rows[a][col] = b
        self.rows[b][col ^ 1] = a
        return b

    def _letter(self, col: int) -> Word:
        name = self.pres.generators[col // 2]
        return Word.gen(name, 1 if col % 2 == 0 else -1)

    def _coincide(self, a: int, b: int) -> None:
        queue = deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            x, y = self.rep(x), self.rep(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.parent[y] = x
            self.alive -= 1
            for col in range(self.ncols):
                d = self.rows[y][col]
                if d is None:
                    continue
                self.rows[y][col] = None
                if self.rows[d][col ^ 1] == y:
                    self.rows[d][col ^ 1] = None
                d = self.rep(d)
                e = self.rows[x][col]
                if e is None:
                    self.rows[x][col] = d
                    if self.rows[d][col ^ 1] is None:
                        self.rows[d][col ^ 1] = x
                    else:
                        queue.append((self.rows[d][col ^ 1], x))
                else:
                    queue.append((self.rep(e), d))

    def _scan(self, a: int, cols: Sequence[int], fill: bool) -> None:
        i, j = 0, len(cols) - 1
        f = b = a
        while True:
            while i <= j and self.rows[f][cols[i]] is not None:
                f = self.rep(self.rows[f][cols[i]])  # type: ignore[arg-type]
                i += 1
            if i > j:
                if f != b:
                    self._coincide(f, b)
                return
            while j >= i and self.rows[b][cols[j] ^ 1] is not None:
                b = self.rep(self.rows[b][cols[j] ^ 1])  # type: ignore[arg-type]
                j -= 1
            if j < i:
                self._coincide(f, b)
                return
            if j == i:
                self.rows[f][cols[i]] = b
                if self.rows[b][cols[i] ^ 1] is None:
                    self.rows[b][cols[i] ^ 1] = f
                elif self.rep(self.rows[b][cols[i] ^ 1]) != self.rep(f):  # type: ignore[arg-type]
                    self._coincide(self.rows[b][cols[i] ^ 1], f)  # type: ignore[arg-type]
                return
            if not fill:
                return
            self._define(f, cols[i])

    def _lookahead(self) -> None:
        for c in range(len(self.rows)):
            if self.rep(c) != c:
                continue
            for cols in self.relator_cols:
                self._scan(c, cols, fill=False)
                if self.rep(c) != c:
                    break

    def _compact(self) -> None:
        live = [c for c in range(len(self.rows)) if self.rep(c) == c]
        old2new = {c: i for i, c in enumerate(live)}
        new_rows: list[list[int | None]] = []
        for c in live:
            new_rows.append([None if d is None else old2new[self.rep(d)] for d in self.rows[c]])
        self.rows = new_rows
        self.words = [self.words[c] for c in live]
        self.parent = list(range(len(live)))
        self.alive = len(live)
        self._old2new = old2new

    def _enumerate(self) -> None:
        """One HLT sweep over the table from coset 0, with lookahead at the cap."""

        def scans_at(c: int, include_subgroup: bool) -> None:
            if include_subgroup:
                for cols in self.subgroup_cols:
                    self._scan(self.rep(c), cols, fill=True)
            for cols in self.relator_cols:
                c2 = self.rep(c)
                self._scan(c2, cols, fill=True)
            c2 = self.rep(c)
            for col in range(self.ncols):
                if self.rows[c2][col] is None:
                    self._define(c2, col)

        alpha = 0
        while alpha < len(self.rows):
            if self.rep(alpha) != alpha:
                alpha += 1
                continue
            try:
                scans_at(alpha, include_subgroup=(alpha == 0))
            except _CapHit:
                before = self.alive
                self._lookahead()
                rep_old = self.rep(alpha)
                self._compact()
                alpha = self._old2new[rep_old]
                if self.alive >= self.cap and self.alive >= before:
                    raise CapExceeded(
                        f"coset enumeration exceeded the cap of {self.cap} live cosets "
                        f"({self.alive} live after lookahead); the subgroup may have "
                        f"infinite index or the cap is too small"
                    )
                continue
            alpha += 1

    def _stable(self) -> bool:
        """Whether every scan closes on the compacted table."""
        for c in range(len(self.rows)):
            for cols in ([*self.subgroup_cols] if c == 0 else []) + self.relator_cols:
                i, f = 0, c
                while i < len(cols) and self.rows[f][cols[i]] is not None:
                    f = self.rows[f][cols[i]]  # type: ignore[assignment]
                    i += 1
                if i < len(cols) or f != c:
                    return False
        return True

    def run(self) -> CosetTable:
        # A merge can invalidate an earlier scan; sweep again until none does.
        while True:
            self._enumerate()
            self._compact()
            if self._stable():
                break
        rows = tuple(tuple(int(d) for d in row) for row in self.rows)  # type: ignore[union-attr, arg-type]
        return CosetTable(self.pres.generators, rows, tuple(self.words))


def todd_coxeter(
    pres: Presentation,
    subgroup: Sequence[Word] = (),
    cap: int = 1_000_000,
) -> CosetTable:
    """Enumerate cosets of ``<subgroup>`` in the presented group.

    Returns the completed table (coset 0 = subgroup) with one representative
    word per coset.  Raises :class:`CapExceeded` when more than ``cap`` live
    cosets are needed even after a lookahead/compaction pass.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _Enumerator(pres, subgroup, cap).run()
