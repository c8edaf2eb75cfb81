"""Coset machinery: stabilizer generators and coset enumeration.

Two complementary routes between subgroups and permutation actions:

* ``schreier_generators`` reads generators of the stabilizer of sheet 0 off a
  transitive permutation representation (breadth-first transversal, one word
  per (sheet, generator) edge, spanning-tree edges dropped).
* ``todd_coxeter`` enumerates cosets of a finitely generated subgroup of a
  finitely presented group and returns the coset table together with the
  induced permutation action: HLT with lookahead, in one sweep (Holt, Eick &
  O'Brien, *Handbook of Computational Group Theory*, 2005, §5.1).  An
  involution, a generator with a relator ``g^2``, gets one column that is
  its own inverse, as in ACE and GAP, and the finished table is renumbered
  to standard form (ibid., ch. 5).  Deterministic; bounded by a live-coset cap.

Both run on the integer columns that ``reps`` owns, numbered as the coset
table numbers them: column ``2i`` is generator ``i`` and ``2i + 1`` its
inverse, so free reduction cancels ``c`` against ``c ^ 1``.  The enumerator
takes its subgroup as a graph over sheets whose edges are labelled by words,
with sheet 0 at coset 0 (HLT from a partial table, ibid., ch. 5).
``todd_coxeter``'s subgroup words are loops at sheet 0.
``pushed_coset_table`` pushes a stabilizer through a homomorphism given by
word images: it enters the stabilizer's spanning tree and other edges,
labelled by the images, so the pushed subgroup's graph folds in the table
(Stallings, "Topology of finite graphs", *Invent. Math.* 71, 1983) and no
pushed word is built.  One scan routine serves the graph and the relators: it
runs from a start coset to an end coset, and a relator is the case where the
end is the start.  Each coset's relators are swept in one pass that walks
them forward inline and scans only where a walk meets a gap or ends
elsewhere.

Words are spelled only when a caller reads them:
``StabilizerData.transversal`` and ``.generators`` and
``CosetTable.rep_words`` are built on first access and cached.  A table's
representative words are the paths of the breadth-first tree that numbered
it, so they too depend only on the subgroup and the generator order.

Cosets are right cosets, numbered from 0 (the subgroup itself), and the
action is on the right: ``table.act(c, w)`` is the coset of ``rep(c) * w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CapExceeded
from .perms import Perm
from .reps import PermRep, _breadth_first, _column_of, _columns, _image_columns, _spell
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


def _inverse(cols: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([c ^ 1 for c in reversed(cols)])


@dataclass(frozen=True)
class StabilizerData:
    """Breadth-first spanning tree of a transitive action from sheet 0, for its stabilizer.

    Edges are ``(s, c, t)``: column ``c`` (``_column_of(gen_names)``) takes
    sheet ``s`` to sheet ``t``.  ``tree`` holds the tree edges in discovery
    order, and ``edges`` the other generator edges, one per Schreier
    generator, in generator order.  The words ``transversal`` and
    ``generators`` are spelled on first access.
    """

    gen_names: tuple[str, ...]
    tree: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def _source(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Transversal and Schreier generator columns, pushed once for both
        word lists.

        ``transversal[t]`` is ``transversal[s] + (c,)`` along the tree edge
        into ``t``, and edge ``(s, c, t)`` gives the generator
        ``transversal[s] + (c,) + transversal[t]**-1``.  Both are freely
        reduced as they stand: a tree path is, and an edge that is a tree edge
        neither way round cancels against neither of its neighbours.
        """
        words: list[tuple[int, ...]] = [()] * (len(self.tree) + 1)
        for s, c, t in self.tree:
            words[t] = words[s] + (c,)
        inverses = [_inverse(w) for w in words]
        return words, [words[s] + (c,) + inverses[t] for s, c, t in self.edges]

    @cached_property
    def transversal(self) -> tuple[Word, ...]:
        """``transversal[s]`` maps sheet 0 to sheet ``s``."""
        return _spell(self._source[0], self.gen_names)

    @cached_property
    def generators(self) -> tuple[Word, ...]:
        """Schreier generators of the stabilizer of sheet 0."""
        return _spell(self._source[1], self.gen_names)


def schreier_generators(
    rep: PermRep,
    gen_order: Sequence[str] | None = None,
) -> StabilizerData:
    """Stabilizer generators of sheet 0 under a transitive representation.

    The transversal is breadth-first from sheet 0 in ``gen_order`` (each
    generator tried with exponent +1 then -1), so ``transversal[s]`` maps
    sheet 0 to sheet ``s``.  For each sheet ``s`` and generator ``g`` the word
    ``transversal[s] * g * transversal[g(s)]**-1`` stabilizes sheet 0;
    the spanning-tree edges, whose words are freely trivial, are dropped,
    leaving ``b*(n-1) + 1`` generators for a transitive action on ``b``
    sheets.

    The walk builds no word: it records the tree and the other edges in
    O(b * n), and the words are spelled when a caller reads them.
    """
    names = tuple(gen_order) if gen_order is not None else rep.generator_names
    if set(names) != set(rep.images):
        raise ValueError("gen_order must list exactly the representation's generators")
    columns = _image_columns(rep.images[name].images for name in names)
    order, came = _breadth_first(rep.degree, columns, 0)
    if len(order) != rep.degree:
        raise ValueError("representation is not transitive; stabilizer has no finite transversal data")
    tree = [(columns[came[t] ^ 1][t], came[t], t) for t in order[1:]]  # type: ignore[operator]
    edges = []
    for s in order:
        for c in range(0, len(columns), 2):
            t = columns[c][s]
            if came[t] != c and came[s] != c + 1:  # not a tree edge, either way round
                edges.append((s, c, t))
    return StabilizerData(names, tuple(tree), tuple(edges))


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table in standard form; coset 0 is the subgroup.

    ``rows[c]`` holds two columns per generator, as ``reps`` numbers them
    (an involution's two are equal).  Standard form: a breadth-first walk
    from coset 0 that tries the columns in order meets the cosets in the
    order 0, 1, 2, ... (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, ch. 5).  So the numbering depends only on the
    subgroup and the generator order, not on how the table was enumerated.
    """

    gen_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    @cached_property
    def rep_words(self) -> tuple[Word, ...]:
        """One representative word per coset: the path to it in the tree of
        the breadth-first walk that numbered the table, spelled on first
        access.  Tree words are freely reduced, and coset ``c``'s word ends
        with the column that first reached ``c``."""
        columns = list(zip(*self.rows))
        order, came = _breadth_first(self.index, columns, 0)
        words: list[tuple[int, ...]] = [()] * self.index
        for t in order[1:]:
            c: int = came[t]  # type: ignore[assignment]
            words[t] = words[columns[c ^ 1][t]] + (c,)
        return _spell(words, self.gen_names)

    @cached_property
    def _col_of(self) -> dict[str, int]:
        return _column_of(self.gen_names)

    def act(self, coset: int, word: Word) -> int:
        """Coset reached from ``coset`` by right multiplication with ``word``."""
        return self._walk(coset, _columns(word, self._col_of))

    def _walk(self, coset: int, cols: Iterable[int]) -> int:
        rows = self.rows
        for col in cols:
            coset = rows[coset][col]
        return coset

    def coset_action(self, name: str) -> Perm:
        if name not in self._col_of:
            raise ValueError(f"unknown generator {name!r}")
        col = self._col_of[name]
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
    """HLT enumeration with lookahead on the enumerator's own columns.

    A generator ``g`` with a relator ``g^2`` or ``g^-2`` is an involution:
    its two ``reps`` columns share one column that is its own inverse, so
    ``g^2`` holds by construction and is dropped.  Every other generator
    keeps a column and an inverse column.  ``col[c]`` is the column of
    ``reps`` column ``c`` and ``inv[k]`` the inverse of column ``k``; live
    rows point only at live cosets, and ``rows[a][k] == b`` iff
    ``rows[b][inv[k]] == a``.

    The subgroup comes as a graph over sheets, with sheet 0 at coset 0, whose
    closed paths at sheet 0 spell the subgroup: ``tree[n] = (s, i)`` says
    that word ``words[i]`` takes sheet ``s <= n`` to sheet ``n + 1``, and
    each ``(s, i, t)`` of ``edges`` that ``words[i]`` takes sheet ``s`` to
    sheet ``t``.  Subgroup words are loops at sheet 0 with no tree.

    The relators and the words are compiled once: each is freely reduced
    with ``g g`` cancelling for an involution ``g``, and kept with its
    backward columns (the inverse of each letter), which the scan reads from
    the right.
    """

    def __init__(
        self,
        pres: Presentation,
        words: Iterable[Sequence[int]],
        tree: Sequence[tuple[int, int]],
        edges: Iterable[tuple[int, int, int]],
        cap: int,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.gen_names = pres.generators
        self.cap = cap
        col_of = _column_of(pres.generators)
        relators = [_columns(r, col_of) for r in pres.relators]
        involutions = {cols[0] >> 1 for cols in relators if len(cols) == 2 and cols[0] == cols[1]}
        self.col: list[int] = []
        self.inv: list[int] = []
        for i in range(len(pres.generators)):
            k = len(self.inv)
            if i in involutions:
                self.col += [k, k]
                self.inv.append(k)
            else:
                self.col += [k, k + 1]
                self.inv += [k + 1, k]
        self.ncols = len(self.inv)
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]
        self.alive = 1
        self.relators = [r for r in self._compiled(relators) if r[0]]
        self.words = self._compiled(words)
        self.tree = tree
        # each edge is scanned once the later of its two sheets has a coset
        self.edges = sorted(edges, key=lambda e: e[0] if e[0] > e[2] else e[2])

    def _compiled(self, words: Iterable[Sequence[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each word's freely reduced columns and backward columns.  The words
        come freely reduced, so only an involution's ``g g`` can cancel."""
        col, inv = self.col, self.inv
        out = []
        for word in words:
            stack: list[int] = []
            for c in word:
                k = col[c]
                if stack and stack[-1] == inv[k]:
                    stack.pop()
                else:
                    stack.append(k)
            out.append((tuple(stack), tuple([inv[k] for k in stack])))
        return out

    def rep(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def _define(self, a: int, k: int) -> None:
        if self.alive >= self.cap:
            raise _CapHit
        rows = self.rows
        b = len(rows)
        row: list[int | None] = [None] * self.ncols
        row[self.inv[k]] = a
        rows.append(row)
        self.parent.append(b)
        self.alive += 1
        rows[a][k] = b

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        """Identify the classes of ``a`` and ``b``; the larger representative dies."""
        a, b = sorted((self.rep(a), self.rep(b)))
        if a != b:
            self.parent[b] = a
            self.alive -= 1
            queue.append(b)

    def _coincide(self, a: int, b: int) -> None:
        """Holt's COINCIDENCE: move each dead coset's entries onto its representative."""
        rows, inv = self.rows, self.inv
        queue: list[int] = []
        self._merge(a, b, queue)
        for y in queue:  # the queue grows while it is walked
            for k in range(self.ncols):
                d = rows[y][k]
                if d is None:
                    continue
                rows[d][inv[k]] = None
                mu, nu = self.rep(y), self.rep(d)
                if rows[mu][k] is not None:
                    self._merge(nu, rows[mu][k], queue)  # type: ignore[arg-type]
                elif rows[nu][inv[k]] is not None:
                    self._merge(mu, rows[nu][inv[k]], queue)  # type: ignore[arg-type]
                else:
                    rows[mu][k] = nu
                    rows[nu][inv[k]] = mu

    def _scan(self, a: int, b: int, cols: Sequence[int], back: Sequence[int], fill: bool) -> None:
        """Scan ``cols`` from live coset ``a`` to live coset ``b`` (a relator
        scans from ``a`` to ``a``); with ``fill``, define cosets to bridge a gap."""
        rows = self.rows  # only _compact replaces the table, and it never runs inside a scan
        i, j = 0, len(cols) - 1
        f = a
        while True:
            while i <= j and (d := rows[f][cols[i]]) is not None:
                f = d
                i += 1
            if i > j:
                if f != b:
                    self._coincide(f, b)
                return
            while j >= i and (d := rows[b][back[j]]) is not None:
                b = d
                j -= 1
            if j < i:
                self._coincide(f, b)
                return
            if j == i:
                rows[f][cols[i]] = b
                rows[b][back[i]] = f
                return
            if not fill:
                return
            self._define(f, cols[i])

    def _sweep(self, a: int, fill: bool) -> int:
        """Scan every relator at live coset ``a``; returns ``a``'s representative.

        Each relator is walked forward inline, and ``_scan`` runs only where
        the walk meets a gap or ends at another coset; the representative is
        recomputed only after such a call.  With ``fill`` the sweep goes on
        at the representative when ``a`` dies; without it, it stops there."""
        rows = self.rows
        c = a
        for cols, back in self.relators:
            d: int | None = c
            for k in cols:
                d = rows[d][k]  # type: ignore[index]
                if d is None:
                    break
            if d != c:
                self._scan(c, c, cols, back, fill)
                c = self.rep(a)
                if c != a and not fill:
                    break
        return c

    def _push_subgroup(self) -> None:
        """Enter the subgroup graph: trace each tree edge's word from its
        parent sheet's coset, defining cosets where needed, and scan each
        other edge from the coset of its first sheet to that of its second,
        filling gaps, as soon as both sheets have cosets.  On a table that
        already holds the graph this defines nothing, so a retry after a cap
        hit walks it again."""
        coset = [0]  # of each sheet, as traced; read through rep
        rep = self.rep
        for s, i, t in self.edges:
            while len(coset) <= s or len(coset) <= t:
                self._trace(coset)
            cols, back = self.words[i]
            self._scan(rep(coset[s]), rep(coset[t]), cols, back, fill=True)
        while len(coset) <= len(self.tree):
            self._trace(coset)

    def _trace(self, coset: list[int]) -> None:
        """Append the coset of the next sheet: its tree edge's word, walked
        from the parent sheet's coset, with a coset defined at each gap."""
        rows = self.rows
        s, i = self.tree[len(coset) - 1]
        a = self.rep(coset[s])
        for k in self.words[i][0]:
            if rows[a][k] is None:
                self._define(a, k)
            a = rows[a][k]  # type: ignore[assignment]
        coset.append(a)

    def _lookahead(self) -> None:
        for c in range(len(self.rows)):
            if self.parent[c] == c:
                self._sweep(c, fill=False)

    def _compact(self) -> dict[int, int]:
        """Renumber the live cosets in order; returns the old-to-new map."""
        live = [c for c in range(len(self.rows)) if self.parent[c] == c]
        old2new = {c: i for i, c in enumerate(live)}
        self.rows = [[None if d is None else old2new[d] for d in self.rows[c]] for c in live]
        self.parent = list(range(len(live)))
        self.alive = len(live)
        return old2new

    def _standard(self) -> CosetTable:
        """The completed table renumbered to standard form, two columns per
        generator: one breadth-first walk from coset 0 that tries the
        ``reps`` columns in order numbers each coset when it first meets it,
        and writes each row once all of its entries are numbered.  The
        enumerator's columns follow the ``reps`` columns in order, an
        involution's two being one, so the walk tries them in turn."""
        rows, col = self.rows, self.col
        new = [-1] * len(rows)
        new[0] = 0
        order = [0]
        out = []
        for x in order:  # the order grows while it is walked
            row = rows[x]
            for y in row:
                if new[y] < 0:  # type: ignore[index]
                    new[y] = len(order)
                    order.append(y)
            out.append(tuple([new[row[k]] for k in col]))  # type: ignore[index]
        if len(order) != self.alive:
            raise RuntimeError("internal error: the completed coset table is not transitive")
        return CosetTable(self.gen_names, tuple(out))

    def run(self) -> CosetTable:
        alpha = 0
        while alpha < len(self.rows):
            if self.parent[alpha] != alpha:
                alpha += 1
                continue
            try:
                if alpha == 0:
                    self._push_subgroup()
                c = self._sweep(alpha, fill=True)
                row = self.rows[c]
                for k in range(self.ncols):
                    if row[k] is None:
                        self._define(c, k)
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
        return self._standard()


def pushed_coset_table(
    stab: StabilizerData,
    images: Mapping[str, Word],
    target: Presentation,
    cap: int,
) -> tuple[CosetTable, tuple[int, ...]]:
    """Cosets of the stabilizer's image under the homomorphism sending each
    source generator ``name`` to ``images[name]``, a word in the target's
    generators, and the coset of each image transversal word.

    Each image is compiled to columns once, and the stabilizer's graph goes
    into the enumerator where ``todd_coxeter``'s subgroup words go: each tree
    edge's image is traced from its parent sheet's coset, defining cosets
    where needed, and each other edge's image is scanned between the cosets
    of its two sheets as soon as both have one, so that cycles fold as early
    as the pushed words would fold them.  No pushed word is built, so the
    memory stays linear in the sheet count however deep the tree.  The fiber
    map walks the tree edges' images through the finished table.  The table
    is in standard form and equals ``todd_coxeter(target, pushed generator
    words)``.
    """
    col_of = _column_of(target.generators)
    letter = []
    for name in stab.gen_names:
        image = _columns(images[name], col_of)
        letter += [image, _inverse(image)]
    order = [0] + [t for _, _, t in stab.tree]
    sheet = [0] * len(order)  # the enumerator numbers the sheets in tree order
    for n, x in enumerate(order):
        sheet[x] = n
    tree = [(sheet[s], c) for s, c, _ in stab.tree]
    edges = [(sheet[s], c, sheet[t]) for s, c, t in stab.edges]
    table = _Enumerator(target, letter, tree, edges, cap).run()
    fiber = [0] * len(order)
    for s, c, t in stab.tree:
        fiber[t] = table._walk(fiber[s], letter[c])
    return table, tuple(fiber)


def todd_coxeter(
    pres: Presentation,
    subgroup: Sequence[Word] = (),
    cap: int = 1_000_000,
) -> CosetTable:
    """Enumerate cosets of ``<subgroup>`` in the presented group by HLT with
    lookahead; the coincidence procedure of Holt, Eick & O'Brien (2005, §5.1)
    keeps the table consistent, so one sweep closes every relator.

    A generator ``g`` with a relator ``g^2`` or ``g^-2`` is enumerated on one
    column that is its own inverse: ``g^2`` then holds by construction, and
    every relator and subgroup word is freely reduced with ``g g`` cancelling.
    The subgroup words are scanned first, as loops at coset 0, filling gaps;
    then each live coset in turn has its relators swept in one pass (walked
    forward, scanned only at a gap or a wrong end) and its empty entries
    defined.

    Returns the completed table (coset 0 = subgroup) in standard form, two
    columns per generator, with one representative word per coset taken from
    the breadth-first tree that numbered it.  Raises :class:`CapExceeded`
    when more than ``cap`` live cosets are needed even after a
    lookahead/compaction pass.
    """
    col_of = _column_of(pres.generators)
    words = [_columns(w, col_of) for w in subgroup]
    return _Enumerator(pres, words, (), [(0, i, 0) for i in range(len(words))], cap).run()
