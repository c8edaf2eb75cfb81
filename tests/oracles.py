"""Independent reference implementations used to cross-check the package.

Nothing here goes through the package's own algorithms: roots come from
numpy's companion matrix, resultants and discriminants from root-product
formulas, group-theoretic counts from breadth-first search on raw index
tuples, lasso permutations from nearest-root matching of companion-matrix
fibers along a subdivision that is fine near the branch points, the
boundary loop's cycle type from the Newton polygon at z = infinity, and
single-linkage clusters from breadth-first connected components.  The word
oracles use only ``Word`` multiplication and inversion, one factor at a time,
as the reference for batched substitution and powers.  Coset tables are
checked entry by entry on their raw rows, and standard coset tables against
right cosets listed as sets of permutations.  ``corpus_answer`` and
``answer_digest`` encode the answers of the generic-cover corpus and of the
wide set for ``scripts/scale_monodromy.py`` and the tests alike.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from coverext.cosets import CosetTable, Presentation
from coverext.words import Word


def companion_roots(coeffs_constant_first) -> list[complex]:
    """Roots via numpy's companion-matrix eigenvalues (highest-first input)."""
    cs = [complex(c) for c in coeffs_constant_first]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) == 1:
        return []
    return [complex(r) for r in np.roots(list(reversed(cs)))]


def horner(coeffs_constant_first, z: complex) -> complex:
    out = 0j
    for c in reversed([complex(c) for c in coeffs_constant_first]):
        out = out * z + c
    return out


def resultant_by_roots(p_coeffs, q_coeffs) -> complex:
    """Res(p, q) = lc(p)^deg(q) * prod over roots r of p of q(r)."""
    p = [complex(c) for c in p_coeffs]
    q = [complex(c) for c in q_coeffs]
    dq = len(q) - 1
    val = p[-1] ** dq
    for r in companion_roots(p):
        val *= horner(q, r)
    return val


def discriminant_by_roots(coeffs_constant_first) -> complex:
    """lc^(2d-2) * prod_{i<j} (r_i - r_j)^2 via companion roots."""
    cs = [complex(c) for c in coeffs_constant_first]
    rs = companion_roots(cs)
    d = len(rs)
    val = cs[-1] ** (2 * d - 2)
    for i in range(d):
        for j in range(i + 1, d):
            val *= (rs[i] - rs[j]) ** 2
    return val


def tuple_inverse(t: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(t)
    for i, ti in enumerate(t):
        inv[ti] = i
    return tuple(inv)


def orbit_size(images: list[tuple[int, ...]], start: int) -> int:
    """Breadth-first orbit count on raw image tuples (generators + inverses)."""
    moves = list(images) + [tuple_inverse(t) for t in images]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for t in moves:
                y = t[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def closure(images: list[tuple[int, ...]], cap: int) -> set[tuple[int, ...]] | None:
    """Every element of the group the image tuples generate, by breadth-first
    search from the identity (the empty set for no generators), or None once
    it would hold more than ``cap`` elements."""
    if not images:
        return set()
    ident = tuple(range(len(images[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for t in images:
                gt = tuple(t[y] for y in g)
                if gt not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(gt)
                    nxt.append(gt)
        frontier = nxt
    return seen


def orbit_order(images: list[tuple[int, ...]], start: int) -> list[int]:
    """Breadth-first orbit in discovery order: from each point, every
    generator's image and then its inverse's, in the given generator order."""
    inverses = [tuple_inverse(t) for t in images]
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for t, inv in zip(images, inverses):
                for y in (t[x], inv[x]):
                    if y not in seen:
                        seen.add(y)
                        order.append(y)
                        nxt.append(y)
        frontier = nxt
    return order


def chase(images: dict[str, tuple[int, ...]], word: Word, x: int) -> int:
    """Follow one point through a word, letter by letter, on raw image tuples."""
    for name, exp in word.syllables:
        row = images[name]
        for _ in range(abs(exp)):
            x = row[x] if exp > 0 else row.index(x)
    return x


def _braid_relations(m: int) -> list[tuple[Word, Word]]:
    """Both sides of s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and of s_i s_j = s_j s_i
    for j >= i + 2, spelled out letter by letter."""
    relations = []
    for i in range(1, m - 1):
        a, b = f"s{i}", f"s{i + 1}"
        relations.append((Word(((a, 1), (b, 1), (a, 1))), Word(((b, 1), (a, 1), (b, 1)))))
        for j in range(i + 2, m):
            c = f"s{j}"
            relations.append((Word(((a, 1), (c, 1))), Word(((c, 1), (a, 1)))))
    return relations


def _relations_hold(images: dict[str, tuple[int, ...]], relations, degree: int) -> bool:
    return all(chase(images, lhs, x) == chase(images, rhs, x) for lhs, rhs in relations for x in range(degree))


def braid_homs_by_chase(m: int, degree: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every assignment of S_degree to s1..s{m-1} under which each braid
    relation takes every point to the same place on both sides, by brute
    force and ``chase`` on raw tuples."""
    names = [f"s{i}" for i in range(1, m)]
    relations = _braid_relations(m)
    out = set()
    for combo in itertools.product(itertools.permutations(range(degree)), repeat=len(names)):
        if _relations_hold(dict(zip(names, combo)), relations, degree):
            out.add(combo)
    return out


def minimal_extension_by_product(
    images: dict[str, tuple[int, ...]], b0: int, m_big: int, cap_degree: int
) -> tuple[int, dict[str, tuple[int, ...]]] | None:
    """The least N in b0..cap_degree with a transitive braid action of s1..s{m_big-1}
    on N sheets whose given generators act on sheets 0..b0-1 as ``images``, and
    its first action in the lexicographic order of the image tuples (given
    generators run over ``images`` followed by a permutation of the other
    sheets, the rest over all of S_N), by brute force; None when there is none."""
    names = [f"s{i}" for i in range(1, m_big)]
    relations = _braid_relations(m_big)
    for degree in range(max(b0, 1), cap_degree + 1):
        tails = list(itertools.permutations(range(b0, degree)))
        sym = list(itertools.permutations(range(degree)))
        choices = [[images[n] + tail for tail in tails] if n in images else sym for n in names]
        for combo in itertools.product(*choices):
            action = dict(zip(names, combo))
            if _relations_hold(action, relations, degree) and orbit_size(list(combo), 0) == degree:
                return degree, action
    return None


def power_iterated(word: Word, k: int) -> Word:
    """``word ** k`` as |k| products, each reduced on its own."""
    base = word if k >= 0 else word.inverse()
    out = Word.identity()
    for _ in range(abs(k)):
        out = out * base
    return out


def substitute_iterated(word: Word, mapping: dict[str, Word]) -> Word:
    """Homomorphic image of a word, multiplied in one syllable image at a time."""
    out = Word.identity()
    for name, exp in word.syllables:
        out = out * power_iterated(mapping[name], exp)
    return out


def schreier_words(
    images: dict[str, tuple[int, ...]], names: tuple[str, ...], base: int = 0
) -> tuple[list[Word], list[Word]]:
    """Breadth-first transversal and Schreier generators by ``Word`` products.

    Each generator of ``names`` is tried with exponent +1 then -1; the
    generators are ``t[s] * g * t[g(s)]**-1`` over the sheets in discovery
    order, with the freely trivial ones dropped.
    """
    inverse = {n: tuple_inverse(images[n]) for n in names}
    trans = {base: Word.identity()}
    frontier = [base]
    while frontier:
        nxt = []
        for s in frontier:
            for n in names:
                for t, letter in ((images[n][s], Word.gen(n)), (inverse[n][s], Word.gen(n, -1))):
                    if t not in trans:
                        trans[t] = trans[s] * letter
                        nxt.append(t)
        frontier = nxt
    gens = [trans[s] * Word.gen(n) * trans[images[n][s]].inverse() for s in trans for n in names]
    return [trans[s] for s in range(len(trans))], [w for w in gens if not w.is_identity()]


def free_reduce(letters) -> list[tuple[str, int]]:
    """Stack reduction of (name, +-1) letters; cancels adjacent inverses."""
    out: list[tuple[str, int]] = []
    for name, step in letters:
        if out and out[-1][0] == name and out[-1][1] == -step:
            out.pop()
        else:
            out.append((name, step))
    return out


def random_transitive_images(rng: np.random.Generator, degree: int, k: int) -> list[tuple[int, ...]]:
    """k random permutation tuples whose group is transitive on the degree points."""
    while True:
        images = [tuple(int(x) for x in rng.permutation(degree)) for _ in range(k)]
        if orbit_size(images, 0) == degree:
            return images


def coxeter_presentation(n: int) -> Presentation:
    """Coxeter presentation of S_n on s_i = (i-1 i), i = 1..n-1: s_i^2,
    (s_i s_{i+1})^3 and (s_i s_j)^2 for |i - j| > 1."""
    gens = tuple(f"s{i}" for i in range(1, n))
    rels = []
    for i in range(1, n):
        a = Word.gen(f"s{i}")
        rels.append(a * a)
        if i + 1 < n:
            rels.append(power_iterated(a * Word.gen(f"s{i + 1}"), 3))
        for j in range(i + 2, n):
            rels.append(power_iterated(a * Word.gen(f"s{j}"), 2))
    return Presentation(gens, tuple(rels))


def coset_table_closes(table: CosetTable, relators, subgroup) -> bool:
    """Whether a coset table is complete and consistent, closes every relator
    at every coset and fixes coset 0 under every subgroup word, read entry by
    entry from the raw rows."""
    col = {}
    for i, g in enumerate(table.gen_names):
        col[(g, 1)], col[(g, -1)] = 2 * i, 2 * i + 1
    n = len(table.rows)
    for a, row in enumerate(table.rows):
        if len(row) != len(col):
            return False
        for c, b in enumerate(row):
            if not (isinstance(b, int) and 0 <= b < n and table.rows[b][c ^ 1] == a):
                return False

    def walk(x: int, word: Word) -> int:
        for letter in word.letters():
            x = table.rows[x][col[letter]]
        return x

    return all(walk(c, r) == c for r in relators for c in range(n)) and all(
        walk(0, w) == 0 for w in subgroup
    )


def standard_coset_table_by_permutations(n: int, subgroup_perms) -> tuple[tuple[int, ...], ...]:
    """Rows of the standard coset table of the subgroup H of S_n that
    ``subgroup_perms`` generate, over the generators s_i = (i-1 i) of
    ``coxeter_presentation``.

    Permutations are image tuples composed left to right, (xy)[p] = y[x[p]],
    as words act.  The right cosets Hg are listed as frozensets of
    permutations and numbered breadth first from H, each coset trying s1,
    s1^-1, s2, ... in order; every s_i is an involution, so its two columns
    are equal.
    """
    ident = tuple(range(n))
    group = closure(list(subgroup_perms), math.factorial(n)) or {ident}
    gens = []
    for i in range(1, n):
        s = list(ident)
        s[i - 1], s[i] = i, i - 1
        gens.append(tuple(s))
    reps = [ident]
    number = {frozenset(group): 0}
    rows = []
    for x in reps:  # the list grows while it is walked
        row: list[int] = []
        for s in gens:
            xs = tuple(s[y] for y in x)
            coset = frozenset(tuple(xs[y] for y in h) for h in group)
            if coset not in number:
                number[coset] = len(reps)
                reps.append(xs)
            row += [number[coset]] * 2
        rows.append(tuple(row))
    return tuple(rows)


def breadth_first_tree(rows) -> tuple[list[int], list[list[int]]]:
    """A breadth-first walk from coset 0 over raw table rows, trying the
    columns in order: the cosets in the order it meets them, and for each
    coset the columns of its path in the walk's tree."""
    paths = {0: []}
    order = [0]
    for x in order:
        for c, y in enumerate(rows[x]):
            if y not in paths:
                paths[y] = paths[x] + [c]
                order.append(y)
    return order, [paths[c] for c in range(len(rows))]


def fd_complex_hessian_loop(f, w: np.ndarray, h: float) -> np.ndarray:
    """Complex Hessian d^2 f / dw_j dwbar_k of a scalar f, one real central
    difference at a time (16 n^2 scalar calls).  An independent reference
    for the exact Hessian of rho's jet; with step h it carries a truncation
    error of order h^2, about 1e-8 at h = 1e-4."""
    n = w.size

    def ev(dx: np.ndarray, dy: np.ndarray) -> float:
        return f(w + dx + 1j * dy)

    def mixed(a: int, b: int, ya: bool, yb: bool) -> float:
        if a == b and ya == yb:
            # plain second difference in one real coordinate
            dx = np.zeros(n)
            dy = np.zeros(n)
            (dy if ya else dx)[a] = h
            return (ev(dx, dy) - 2.0 * ev(np.zeros(n), np.zeros(n)) + ev(-dx, -dy)) / (h * h)
        dxa = np.zeros(n)
        dya = np.zeros(n)
        (dya if ya else dxa)[a] = h
        dxb = np.zeros(n)
        dyb = np.zeros(n)
        (dyb if yb else dxb)[b] = h
        return (
            ev(dxa + dxb, dya + dyb)
            - ev(dxa - dxb, dya - dyb)
            - ev(dxb - dxa, dyb - dya)
            + ev(-dxa - dxb, -dya - dyb)
        ) / (4.0 * h * h)

    hess = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            xx = mixed(j, k, False, False)
            yy = mixed(j, k, True, True)
            xy = mixed(j, k, False, True)
            yx = mixed(j, k, True, False)
            hess[j, k] = 0.25 * ((xx + yy) + 1j * (xy - yx))
    return hess


def levi_matrix_one_point(w: np.ndarray, q: int, alpha: float, r: float) -> np.ndarray:
    """Closed-form Levi matrix of rho_alpha at one point, one block at a time
    (the reference for the stacked closed form); None where the w2 block
    vanishes at a non-integer alpha."""
    n1 = w.size - q
    kappa = 1.0 - r * r / 4.0
    w2 = w[n1:]
    s = float(np.sum(np.abs(w2) ** 2))
    mat = np.zeros((w.size, w.size), dtype=complex)
    mat[:n1, :n1] = -2.0 * np.eye(n1)
    if s == 0.0:
        if abs(alpha - round(alpha)) > 0:
            return None
        if round(alpha) == 1:
            mat[n1:, n1:] = 2.0 * kappa * np.eye(q)
        return mat
    v = np.conj(w2).reshape(-1, 1)
    block = alpha * s ** (alpha - 1) * np.eye(q)
    block = block + alpha * (alpha - 1) * s ** (alpha - 2) * (v @ v.conj().T)
    mat[n1:, n1:] = 2.0 * kappa * block
    return mat


def in_hartogs_figure(w, q: int, r: float) -> bool:
    """Membership in the standard two-piece figure inside the unit polydisk,
    from the coordinate moduli: the slab (first block inside the polydisk of
    radius r) or the ring (second block outside the closed polydisk of
    radius 1 - r)."""
    mods = [abs(complex(x)) for x in w]
    n1 = len(mods) - q
    if max(mods) >= 1.0:
        return False
    return max(mods[:n1]) < r or max(mods[n1:]) > 1.0 - r


def levi_eigenvalues_one_point(mat: np.ndarray) -> tuple[tuple[float, ...], tuple[int, int, int]]:
    """Spectrum of one Levi matrix and its inertia (positive, negative, zero)."""
    eigs = np.linalg.eigvalsh(mat)
    tol = 1e-8 * (1.0 + float(np.abs(eigs).max()))
    pos = int(np.sum(eigs > tol))
    neg = int(np.sum(eigs < -tol))
    return tuple(float(e) for e in eigs), (pos, neg, eigs.size - pos - neg)


def _cover_rows(seed: int, base: int, zmax: int) -> list[list[complex]]:
    """Raw ``w_coeffs`` of a seeded generic cover: degree base + seed % 6 in
    w, each c_k(z) of z-degree 1 to ``zmax`` with complex normal
    coefficients drawn one by one from ``default_rng(seed)``, monic."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(base + seed % 6):
        zdeg = int(rng.integers(1, zmax + 1))
        rows.append([complex(rng.normal(), rng.normal()) for _ in range(zdeg + 1)])
    return rows + [[1 + 0j]]


def generic_cover_rows(seed: int) -> list[list[complex]]:
    """The generic-cover corpus (seeds 100-159): degree 3 + seed % 6 in w,
    coefficients of z-degree 1 or 2."""
    return _cover_rows(seed, 3, 2)


def wide_cover_rows(seed: int) -> list[list[complex]]:
    """The wide generic-cover set (seeds 1000-1039): degree 4 + seed % 6 in
    w, coefficients of z-degree 1, 2 or 3."""
    return _cover_rows(seed, 4, 3)


def connected_components(points, tol: float) -> list[list[int]]:
    """Components of the graph on the indices of ``points`` that joins two
    points at most ``tol`` apart, by breadth-first search from each index
    not yet reached; each component ascending, in order of least index."""
    reached: set[int] = set()
    out = []
    for start in range(len(points)):
        if start in reached:
            continue
        reached.add(start)
        comp, frontier = [start], [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in range(len(points)):
                    if j not in reached and abs(points[i] - points[j]) <= tol:
                        reached.add(j)
                        comp.append(j)
                        nxt.append(j)
            frontier = nxt
        out.append(sorted(comp))
    return out


def _nearest(w: complex, points: list[complex]) -> int:
    """Index of the point nearest w; asserts that the second nearest is more
    than three times as far, so the choice is unambiguous."""
    dists = sorted((abs(w - v), j) for j, v in enumerate(points))
    assert len(dists) < 2 or 3 * dists[0][0] < dists[1][0], f"ambiguous match for {w}"
    return dists[0][1]


def _cuts(a: complex, b: complex, h: float, branch) -> list[complex]:
    """Points along the segment from a to b, ending at b, each placed
    max(h, d / 8) past the previous one, where d is the previous point's
    distance to the nearest of the points ``branch``."""
    out, z = [], a
    while True:
        piece = max(h, min((abs(z - c) for c in branch), default=math.inf) / 8)
        if abs(b - z) <= piece:
            return out + [b]
        z = z + (b - z) * (piece / abs(b - z))
        out.append(z)


def loop_perm_by_matching(rows, nodes, fiber0, h: float, branch) -> tuple[int, ...]:
    """Image tuple of the loop through ``nodes`` (starting and ending at the
    z of ``fiber0``) on the sheets ``fiber0``.  Each segment is cut into
    pieces no longer than max(h, d / 8), with d the distance from the
    piece's start to the nearest branch point, so the cut is fine only near
    ``branch``; at every cut the fiber is recomputed from companion-matrix
    roots and each sheet moves to the nearest new root.  Every matching must
    be unambiguous and a bijection."""
    cur = [complex(w) for w in fiber0]
    for a, b in zip(nodes, nodes[1:]):
        for z in _cuts(a, b, h, branch):
            fib = companion_roots([horner(row, z) for row in rows])
            idx = [_nearest(w, fib) for w in cur]
            assert len(set(idx)) == len(idx), f"two sheets matched one root at z = {z}"
            cur = [fib[j] for j in idx]
    images = tuple(_nearest(w, list(fiber0)) for w in cur)
    assert sorted(images) == list(range(len(fiber0)))
    return images


def boundary_cycle_type(rows) -> tuple[int, ...] | None:
    """Cycle type, fixed points included and sorted descending, of the loop
    round a circle enclosing every branch point of the monic cover with raw
    ``w_coeffs`` ``rows``, from the Newton polygon at z = infinity; None when
    an edge polynomial is not squarefree.

    On a large circle the sheets follow the edges of the upper hull of the
    points (k, deg_z c_k).  An edge from k1 to k2 of run L = k2 - k1 whose
    height falls by p over it (p may be zero or negative) holds L sheets
    w ~ a z^(p / L).  With p / L = p' / q in lowest terms, a^q runs over the
    L / q roots of the edge polynomial, the sum over the edge's points of
    lc(c_k) u^((k - k1) / q).  One turn multiplies a by exp(2 pi i p' / q),
    so when those roots are distinct the edge gives L / q cycles of length q.
    """
    pts = []
    for k, row in enumerate(rows):
        cs = [complex(c) for c in row]
        while cs and cs[-1] == 0:
            cs.pop()
        if cs:
            pts.append((k, len(cs) - 1, cs[-1]))
    hull: list[tuple[int, int, complex]] = []
    for pt in pts:
        k, h, _ = pt
        while len(hull) >= 2:
            (k0, h0, _), (k1, h1, _) = hull[-2], hull[-1]
            if (k1 - k0) * (h - h0) - (h1 - h0) * (k - k0) < 0:
                break  # the last hull point lies strictly above the chord to pt
            hull.pop()
        hull.append(pt)
    cycles: list[int] = []
    for (k1, h1, _), (k2, h2, _) in zip(hull, hull[1:]):
        run = k2 - k1
        q = run // math.gcd(h1 - h2, run)
        edge = [0j] * (run // q + 1)
        for k, h, lc in pts:
            if k1 <= k <= k2 and (h - h1) * run == (h2 - h1) * (k - k1):
                edge[(k - k1) // q] = lc
        us = companion_roots(edge)
        scale = 1.0 + max((abs(u) for u in us), default=0.0)
        if any(abs(u - v) <= 1e-8 * scale for i, u in enumerate(us) for v in us[i + 1:]):
            return None
        cycles += [q] * (run // q)
    return tuple(sorted(cycles, reverse=True))


def corpus_answer(seed: int, outcome) -> list:
    """The answer of one generic-cover corpus seed as JSON values: the image
    tuples of its lasso permutations, of its boundary permutation and its
    closure order, from a ``MonodromyResult``; or the type name and text of
    the error ``full_monodromy`` raised."""
    if isinstance(outcome, Exception):
        return [seed, type(outcome).__name__, str(outcome)]
    order = str(outcome.closure_order())
    return [seed, [list(p.images) for p in outcome.perms], list(outcome.boundary_perm.images), order]


def answer_digest(answers) -> str:
    """SHA-256 over the JSON lines of ``corpus_answer`` values."""
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(json.dumps(answer).encode() + b"\n")
    return digest.hexdigest()
