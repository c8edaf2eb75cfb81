"""The three benchmark workloads: inputs, ops and per-op output checks.

An op is one call into coverext that returns a verdict or result.  Every op
reaches the package through module attributes at call time (``cx.x.f``), so
the traced run's wrappers see it.  Each op carries an independent check
(``oracles``); expected values that depend only on the inputs are computed
once by ``expect`` before timing starts.

Op outcomes: ``ok`` (returned, check passed), ``wrong`` (returned, check
failed), ``refused`` (raised one of the op's documented typed errors, e.g.
``NumericFailure`` when tracking cannot certify a lasso) and ``raised`` (any
other exception).  All but ``ok`` count as failed; ``wrong`` and ``raised``
make a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    cls: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], str | None]  # (output, expected) -> problem or None
    expect: Callable[[], Any] = lambda: None
    refuse: tuple[type[BaseException], ...] = ()
    expected: Any = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass of the op list, in order
    passes_per_block: int  # percentiles are taken per block of this many passes


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# paper: the verify-paper path without file writes


def paper(cx: SimpleNamespace, seed: int) -> Workload:
    S = cx.scenarios
    with open(os.path.join(HERE, "paper_digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    names = S.bundled_scenario_names()
    if names != sorted(recorded):
        raise RuntimeError(f"bundled scenarios {names} differ from the recorded set {sorted(recorded)}")

    def op(name: str) -> Op:
        payload = S.load_bundled(name)

        def call() -> tuple[Any, str]:
            report = S.run_payload(payload)
            return report, report.to_json()

        def check(out: tuple[Any, str], _: Any) -> str | None:
            report, text = out
            want = recorded[name]
            tally: dict[str, int] = {}
            for claim in report.claims:
                tally[claim["verdict"]] = tally.get(claim["verdict"], 0) + 1
            if report.status != want["status"] or tally != want["verdicts"]:
                return f"{name}: status/verdicts {report.status} {tally} != {want['status']} {want['verdicts']}"
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != want["sha256"]:
                return f"{name}: report bytes differ from the recorded digest"
            return None

        return Op(f"paper.{name}", call, check)

    rng = np.random.default_rng(seed)
    # 17 passes per block put the tail percentile (11th slowest of 136 ops)
    # among the middle of the block's 17 hartogs_signature_sweep runs.
    return Workload("paper", _shuffled(rng, [op(n) for n in names]), passes_per_block=17)


# ---------------------------------------------------------------------------
# groups: pure combinatorics

# (sheets, generators, target) for class (a); half free, half cyclic.  The
# 2000-sheet point (about 4 s) is left to refpoints.py: with it a pass takes
# about 11 s, too few passes for a steady median in one run.
COVERS = (
    [(250, 2, "free"), (250, 3, "cyclic"), (250, 3, "free"), (250, 2, "cyclic")] * 2
    + [(500, 3, "free"), (500, 3, "cyclic")] * 2
    + [(1000, 2, "free"), (1000, 2, "cyclic")]
)
COXETER = ((6, "trivial"), (6, "small"), (6, "small"), (7, "trivial"), (7, "small"), (7, "small"))


def _coxeter(cx: SimpleNamespace, n: int) -> Any:
    W = cx.words.Word
    gens = tuple(f"s{i}" for i in range(1, n))
    rels = []
    for i in range(1, n):
        a = W.gen(f"s{i}")
        rels.append(a * a)
        if i + 1 < n:
            rels.append((a * W.gen(f"s{i + 1}")) ** 3)
        for j in range(i + 2, n):
            rels.append((a * W.gen(f"s{j}")) ** 2)
    return cx.cosets.Presentation(gens, tuple(rels))


def random_cover(rng: np.random.Generator, b: int, k: int) -> dict[str, tuple[int, ...]]:
    while True:  # weak_extend needs a transitive cover
        images = {f"a{i + 1}": tuple(int(x) for x in rng.permutation(b)) for i in range(k)}
        if oracles.orbit_size(images.values()) == b:
            return images


def groups(cx: SimpleNamespace, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    Perm, PermRep, Word = cx.perms.Perm, cx.reps.PermRep, cx.words.Word
    Presentation, Inclusion = cx.cosets.Presentation, cx.extension.Inclusion
    ops: list[Op] = []

    for b, k, target in COVERS:
        images = random_cover(rng, b, k)
        rho0 = PermRep(b, {n: Perm(img) for n, img in images.items()})
        names = tuple(sorted(images))
        if target == "free":
            inc = Inclusion(names, {n: Word.gen(n) for n in names}, Presentation.free(names))
            expect = (lambda b=b: b)
        else:
            m = int(rng.integers(2, 7))
            exps = {n: (1 if i == 0 else int(rng.integers(1, m))) for i, n in enumerate(names)}
            gamma = Presentation(("gamma",), (Word.gen("gamma", m),))
            inc = Inclusion(names, {n: Word.gen("gamma", e) for n, e in exps.items()}, gamma)
            expect = (lambda images=images, exps=exps, m=m: oracles.cyclic_extension_degree(images, exps, m))

        def check(res: Any, b1: int, b0: int = b) -> str | None:
            if res.b1 != b1 or res.strong != (b1 == b0):
                return f"weak_extend b0={b0}: b1={res.b1} strong={res.strong}, oracle b1={b1}"
            return None

        ops.append(Op(f"groups.a.{target}", lambda rho0=rho0, inc=inc: cx.extension.weak_extend(rho0, inc),
                      check, expect))

    for n, kind in COXETER:
        pres = _coxeter(cx, n)
        if kind == "trivial":
            letters: list[int] = []
        else:
            i, j = (int(x) for x in rng.choice(np.arange(1, n), size=2, replace=False))
            letters = [i, j]
        sub = [Word(tuple((f"s{i}", 1) for i in letters))] if letters else []

        def expect_index(n: int = n, letters: list[int] = letters) -> int:
            g = tuple(range(n))
            for i in letters:
                s = oracles.transposition_images(n, i)
                g = tuple(s[y] for y in g)
            return math.factorial(n) // oracles.closure_size([g], n)

        def check_index(table: Any, index: int, n: int = n) -> str | None:
            return None if table.index == index else f"todd_coxeter S{n}: index {table.index} != {index}"

        ops.append(Op(f"groups.b.S{n}", lambda pres=pres, sub=sub: cx.cosets.todd_coxeter(pres, sub),
                      check_index, expect_index))

    pin = tuple(int(x) for x in rng.permutation(4))
    for m, degree, pinned in ((4, 4, {}), (3, 5, {}), (4, 4, {"s2": pin})):
        def expect_homs(m: int = m, degree: int = degree, pinned: dict = pinned) -> set:
            return oracles.braid_homs(m, degree, pinned)

        def check_homs(sols: Any, want: set, m: int = m) -> str | None:
            got = {tuple(sol[f"s{i}"].images for i in range(1, m)) for sol in sols}
            if len(got) != len(sols) or got != want:
                return f"hom_search({m}): {len(sols)} solutions, brute force {len(want)}"
            return None

        pinned_perms = {n: Perm(img) for n, img in pinned.items()}
        ops.append(Op("groups.c.hom_search",
                      lambda m=m, degree=degree, p=pinned_perms: cx.braids.hom_search(m, degree, p),
                      check_homs, expect_homs))

    for m_small, m_big in ((3, 4), (4, 6)):
        sigma = [int(x) for x in rng.permutation(m_small)]
        # the standard strand action, relabelled through sigma
        images = {}
        for i in range(1, m_small):
            img = list(range(m_small))
            a, c = sigma[i - 1], sigma[i]
            img[a], img[c] = c, a
            images[f"s{i}"] = tuple(img)
        rho0 = PermRep(m_small, {n: Perm(img) for n, img in images.items()})
        smaller_exists: dict[int, bool] = {}  # brute-force answers, by returned degree

        def check_ext(res: Any, _: Any, images: dict = images, b0: int = m_small, m_big: int = m_big,
                      smaller_exists: dict = smaller_exists) -> str | None:
            deg = res.degree
            witness = {n: p.images for n, p in res.images.items()}
            names = [f"s{i}" for i in range(1, m_big)]
            if sorted(witness) != sorted(names) or deg < b0:
                return f"minimal_extension_degree: bad witness shape {sorted(witness)} degree {deg}"
            if not oracles.relators_hold(witness, oracles.braid_relators(m_big), deg):
                return "minimal_extension_degree: witness breaks a braid relator"
            if oracles.orbit_size(witness.values()) != deg:
                return "minimal_extension_degree: witness is not transitive"
            for n, img in images.items():
                w = witness[n]
                if tuple(w[:b0]) != img or sorted(w[b0:]) != list(range(b0, deg)):
                    return f"minimal_extension_degree: {n} does not extend rho0"
            if deg not in smaller_exists:
                smaller_exists[deg] = oracles.minimal_braid_extension(images, b0, m_big, deg)
            if smaller_exists[deg]:
                return f"minimal_extension_degree: a smaller degree than {deg} exists"
            return None

        ops.append(Op("groups.c.minimal_extension_degree",
                      lambda rho0=rho0, m_big=m_big: cx.braids.minimal_extension_degree(rho0, m_big),
                      check_ext))

    # Two passes per block put the tail (11th slowest of 50 ops) among the
    # 500-sheet covers and S7 enumerations, and the median among the
    # 250-sheet covers.
    return Workload("groups", _shuffled(rng, ops), passes_per_block=2)


# ---------------------------------------------------------------------------
# analytic: numerical slices and Levi forms

SLICES = 3  # from ROADMAP item 2's generator, default_rng(1), unfiltered
SEPARATIONS = 22  # separates_fiber points per slice
# Per pass: 3 tracked slices, 3 Weierstrass polynomials, 66 separation tests
# and 36 Levi points, 108 ops.  The separation tests (about 1 ms, mostly
# cpoly.roots) are the fastest ops, so the median (54th/55th) falls inside the
# 22 on the slowest-rooted slice; the tail (11th slowest) falls inside the 24
# n=8 Levi points.  At a group boundary either would jump with the seeded draws.
LEVI_DIMS = (6,) * 6 + (7,) * 6 + (8,) * 24
WP_SAMPLES = 4  # z per Weierstrass check: 3 in the sampling disc, 1 on its rim


def slice_corpus() -> list[list[list[complex]]]:
    """Raw ``w_coeffs`` of ``w^d + sum (a_k + b_k z) w^k``, d drawn from 3..8.

    Fixed, not seeded: a slice's cost spans three orders of magnitude
    (0.04 s to 12 s here), so a handful drawn per seed would make every
    timing spread far beyond any useful bound.  The first three draws
    (d = 5, 6, 7) take about 20 s together: one ok, two refused.
    """
    rng = np.random.default_rng(1)
    out = []
    for _ in range(SLICES):
        d = int(rng.integers(3, 9))
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append([[complex(a[k]), complex(b[k])] for k in range(d)] + [[1 + 0j]])
    return out


def _complex_normal(rng: np.random.Generator) -> complex:
    return complex(rng.normal(), rng.normal())


def analytic(cx: SimpleNamespace, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    Bivar, CoverSlice = cx.cpoly.BivarPoly, cx.monodromy.CoverSlice
    NumericFailure = cx.errors.NumericFailure
    ops: list[Op] = []

    for rows in slice_corpus():
        d = len(rows) - 1
        cover = CoverSlice(Bivar.from_lists(rows))
        branch_oracle = (lambda rows=rows: oracles.slice_discriminant_roots(rows))

        def mono_call(cover: Any = cover) -> tuple[Any, int]:
            res = cx.monodromy.full_monodromy(cover)
            return res, res.closure_order()

        def mono_check(out: tuple[Any, int], branch: np.ndarray, d: int = d) -> str | None:
            res, order = out
            gens = [p.images for p in res.perms]
            if oracles.orbit_size(gens) != d:
                return f"full_monodromy d={d}: lasso group is not transitive"
            if len(res.branch) != len(branch):
                return f"full_monodromy d={d}: {len(res.branch)} branch points, oracle {len(branch)}"
            if order != oracles.closure_size(gens, d):
                return f"full_monodromy d={d}: closure order {order} disagrees with the raw closure"
            return None

        ops.append(Op("analytic.a.full_monodromy", mono_call, mono_check, branch_oracle, (NumericFailure,)))

        f_rows = [[_complex_normal(rng), _complex_normal(rng)] for _ in range(3)]
        func = Bivar.from_lists(f_rows)
        # (radius as a share of the sampling radius, turn): uniform in the disc, then the rim
        spots = [(float(np.sqrt(rng.uniform())), float(rng.uniform())) for _ in range(WP_SAMPLES - 1)]
        spots.append((float(rng.uniform(0.8, 1.2)), float(rng.uniform())))

        def wp_expect(rows: list = rows, f_rows: list = f_rows, spots: list = spots) -> tuple:
            # The coefficients are interpolated on a circle of 1.37 x (1 + max
            # |branch point|); the rounding there bounds the error at every z
            # (oracles.interpolation_tolerance).
            branch = oracles.slice_discriminant_roots(rows)
            radius = 1.37 * (1.0 + max((abs(c) for c in branch), default=0.0))
            zs = [oracles.on_circle(radius * s, t) for s, t in spots]
            # interpolation points: 1 + degree * (z-degree of f + w-degree of f * z-degree of the slice)
            f_zdeg, f_wdeg, slice_zdeg = max(map(len, f_rows)) - 1, len(f_rows) - 1, max(map(len, rows)) - 1
            npts = (len(rows) - 1) * (f_zdeg + f_wdeg * slice_zdeg) + 1
            return radius, zs, npts, oracles.symmetric_maxima(rows, f_rows, radius)

        def wp_check(wp: Any, want: tuple, rows: list = rows, f_rows: list = f_rows) -> str | None:
            radius, zs, npts, maxima = want
            coeffs = [list(c.coeffs) for c in wp.w_coeffs]
            if len(coeffs) != len(rows) or coeffs[-1] != [1]:
                return "weierstrass_poly_of_function: result is not monic of the cover's degree"
            for z in zs:
                for w in oracles.fiber(rows, z):
                    zeta = oracles.bivar_eval(f_rows, z, w)
                    val = abs(oracles.bivar_eval(coeffs, z, zeta))
                    tol = oracles.interpolation_tolerance(maxima, abs(z) / radius, npts, zeta)
                    if val > tol:
                        return (f"weierstrass_poly_of_function: residual {val:.3e} at z={z:.4g} "
                                f"exceeds the rounding bound {tol:.3e}")
            return None

        ops.append(Op("analytic.b.weierstrass", lambda cover=cover, func=func:
                      cx.monodromy.weierstrass_poly_of_function(cover, func), wp_check, wp_expect))

        for _ in range(SEPARATIONS):
            z = 3.0 * _complex_normal(rng)

            def sep_expect(rows: list = rows, f_rows: list = f_rows, z: complex = z) -> bool:
                vals = [oracles.bivar_eval(f_rows, z, w) for w in oracles.fiber(rows, z)]
                return oracles.min_separation(vals) > 1e-8 * (1.0 + max(abs(v) for v in vals))

            def sep_check(got: Any, want: bool) -> str | None:
                return None if got == want else f"separates_fiber: {got} != oracle {want}"

            ops.append(Op("analytic.b.separates_fiber", lambda cover=cover, func=func, z=z:
                          cx.monodromy.separates_fiber(cover, func, z), sep_check, sep_expect))

    for n in LEVI_DIMS:
        q = int(rng.integers(1, n))
        alpha = float(rng.uniform(1.0, 4.0))
        w = rng.uniform(0.25, 0.7, size=n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))

        def levi_check(data: Any, _: Any, n: int = n, q: int = q) -> str | None:
            if tuple(data.signature) != (q, n - q, 0):
                return f"levi_signature n={n} q={q}: signature {data.signature}"
            if any(abs(e + 2.0) > 1e-6 for e in data.eigenvalues if e < 0):
                return f"levi_signature n={n}: a negative eigenvalue is not -2"
            return None

        ops.append(Op("analytic.b.levi_signature", lambda w=w, q=q, alpha=alpha:
                      cx.hartogs.levi_signature(w, q, alpha, 0.5), levi_check))

    return Workload("analytic", _shuffled(rng, ops), passes_per_block=1)


BUILDERS: dict[str, Callable[[SimpleNamespace, int], Workload]] = {
    "paper": paper,
    "groups": groups,
    "analytic": analytic,
}
