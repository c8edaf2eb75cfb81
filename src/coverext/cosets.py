"""Coset machinery: stabilizer generators and coset enumeration.

Two complementary routes between subgroups and permutation actions:

* ``schreier_generators`` reads generators of a point stabilizer off a
  transitive permutation representation (breadth-first transversal, one word
  per (sheet, generator) edge, spanning-tree edges dropped).
* ``todd_coxeter`` enumerates cosets of a finitely generated subgroup of a
  finitely presented group and returns the coset table together with the
  induced permutation action: HLT with lookahead, in one sweep (Holt, Eick &
  O'Brien, *Handbook of Computational Group Theory*, 2005, §5.1).
  Deterministic; bounded by a live-coset cap.

Cosets are right cosets, numbered from 0 (the subgroup itself), and the
action is on the right: ``table.act(c, w)`` is the coset of ``rep(c) * w``.
"""

from __future__ import annotations

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
    """HLT enumeration; live rows point only at live cosets, and
    ``rows[a][col] == b`` iff ``rows[b][col ^ 1] == a``.

    Each coset keeps the record of its definition, ``(record of the defining
    coset, column)``, with ``None`` for the subgroup; representative words are
    spelled out from these records only for the cosets alive at the end.
    """

    def __init__(self, pres: Presentation, subgroup: Sequence[Word], cap: int) -> None:
        self.pres = pres
        self.cap = cap
        self.ncols = 2 * len(pres.generators)
        self.col_of = _column_of(pres.generators)
        self.letters = [(g, step) for g in pres.generators for step in (1, -1)]
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]
        self.defs: list[tuple | None] = [None]
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

    def _define(self, a: int, col: int) -> None:
        if self.alive >= self.cap:
            raise _CapHit
        rows = self.rows
        b = len(rows)
        row: list[int | None] = [None] * self.ncols
        row[col ^ 1] = a
        rows.append(row)
        self.parent.append(b)
        self.defs.append((self.defs[a], col))
        self.alive += 1
        rows[a][col] = b

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        """Identify the classes of ``a`` and ``b``; the larger representative dies."""
        a, b = sorted((self.rep(a), self.rep(b)))
        if a != b:
            self.parent[b] = a
            self.alive -= 1
            queue.append(b)

    def _coincide(self, a: int, b: int) -> None:
        """Holt's COINCIDENCE: move each dead coset's entries onto its representative."""
        queue: list[int] = []
        self._merge(a, b, queue)
        for y in queue:  # the queue grows while it is walked
            for col in range(self.ncols):
                d = self.rows[y][col]
                if d is None:
                    continue
                self.rows[d][col ^ 1] = None
                mu, nu = self.rep(y), self.rep(d)
                if self.rows[mu][col] is not None:
                    self._merge(nu, self.rows[mu][col], queue)  # type: ignore[arg-type]
                elif self.rows[nu][col ^ 1] is not None:
                    self._merge(mu, self.rows[nu][col ^ 1], queue)  # type: ignore[arg-type]
                else:
                    self.rows[mu][col] = nu
                    self.rows[nu][col ^ 1] = mu

    def _scan(self, a: int, cols: Sequence[int], fill: bool) -> None:
        """Scan ``cols`` at live coset ``a``; with ``fill``, define cosets to bridge a gap."""
        rows = self.rows  # only _compact replaces the table, and it never runs inside a scan
        i, j = 0, len(cols) - 1
        f = b = a
        while True:
            while i <= j and (d := rows[f][cols[i]]) is not None:
                f = d
                i += 1
            if i > j:
                if f != b:
                    self._coincide(f, b)
                return
            while j >= i and (d := rows[b][cols[j] ^ 1]) is not None:
                b = d
                j -= 1
            if j < i:
                self._coincide(f, b)
                return
            if j == i:
                rows[f][cols[i]] = b
                rows[b][cols[i] ^ 1] = f
                return
            if not fill:
                return
            self._define(f, cols[i])

    def _lookahead(self) -> None:
        for c in range(len(self.rows)):
            if self.parent[c] != c:
                continue
            for cols in self.relator_cols:
                self._scan(c, cols, fill=False)
                if self.parent[c] != c:
                    break

    def _compact(self) -> dict[int, int]:
        """Renumber the live cosets in order; returns the old-to-new map."""
        live = [c for c in range(len(self.rows)) if self.parent[c] == c]
        old2new = {c: i for i, c in enumerate(live)}
        self.rows = [[None if d is None else old2new[d] for d in self.rows[c]] for c in live]
        self.defs = [self.defs[c] for c in live]
        self.parent = list(range(len(live)))
        self.alive = len(live)
        return old2new

    def run(self) -> CosetTable:
        alpha = 0
        while alpha < len(self.rows):
            if self.parent[alpha] != alpha:
                alpha += 1
                continue
            try:
                for cols in self.subgroup_cols if alpha == 0 else ():
                    self._scan(0, cols, fill=True)
                for cols in self.relator_cols:
                    self._scan(self.rep(alpha), cols, fill=True)
                c = self.rep(alpha)
                for col in range(self.ncols):
                    if self.rows[c][col] is None:
                        self._define(c, col)
            except _CapHit:
                before = self.alive
                self._lookahead()
                c = self.rep(alpha)
                alpha = self._compact()[c]
                if self.alive >= self.cap and self.alive >= before:
                    raise CapExceeded(
                        f"coset enumeration exceeded the cap of {self.cap} live cosets "
                        f"({self.alive} live after lookahead); the subgroup may have "
                        f"infinite index or the cap is too small"
                    )
                continue
            alpha += 1
        self._compact()
        rows = tuple(tuple(map(int, row)) for row in self.rows)  # type: ignore[arg-type]
        return CosetTable(self.pres.generators, rows, tuple(self._spell(d) for d in self.defs))

    def _spell(self, record: tuple | None) -> Word:
        """Representative word of a definition record: its letters, freely reduced
        once (free reduction is confluent, so this is the word built letter by letter)."""
        cols: list[int] = []
        while record is not None:
            record, col = record
            cols.append(col)
        return Word(tuple(self.letters[col] for col in reversed(cols)))


def todd_coxeter(
    pres: Presentation,
    subgroup: Sequence[Word] = (),
    cap: int = 1_000_000,
) -> CosetTable:
    """Enumerate cosets of ``<subgroup>`` in the presented group by HLT with
    lookahead; the coincidence procedure of Holt, Eick & O'Brien (2005, §5.1)
    keeps the table consistent, so one sweep closes every relator.

    Returns the completed table (coset 0 = subgroup) with one representative
    word per coset.  Raises :class:`CapExceeded` when more than ``cap`` live
    cosets are needed even after a lookahead/compaction pass.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _Enumerator(pres, subgroup, cap).run()
