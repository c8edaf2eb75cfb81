from __future__ import annotations

import cmath
import gc
import hashlib
from time import perf_counter

import numpy as np
import pytest

from coverext.cpoly import RESIDUAL_TOL, BivarPoly, CPoly, eval_scale
from coverext.errors import DegenerateCover, NumericFailure
from coverext import monodromy
from coverext.monodromy import (
    CoverSlice,
    _loops,
    auto_basepoint,
    branch_points,
    full_monodromy,
    lasso_radii,
    separates_fiber,
    track_path,
    track_to,
    weierstrass_poly_of_function,
    z_discriminant,
)
from coverext.perms import Perm
from coverext.scenarios import run_payload

from oracles import (
    answer_digest,
    boundary_cycle_type,
    companion_roots,
    connected_components,
    corpus_answer,
    generic_cover_rows,
    loop_perm_by_matching,
    orbit_size,
)

# w^3 + (1/4)^(1/3) w + z/sqrt(27): discriminant is z^2 - 1, branch points -1 and 1
C1 = 0.25 ** (1 / 3)
C0 = 27 ** -0.5
CUBIC = CoverSlice(BivarPoly.from_lists([[0.0, C0 * 1j], [C1], [0.0], [1.0]]))
# w^3 = z^3 - z^2 - z + 1 = (z-1)^2 (z+1): branch point 1 sits at a double
# zero of the discriminant, -1 at a quadruple one
GALOIS = CoverSlice(BivarPoly.from_lists([[-1.0, 1.0, 1.0, -1.0], [0.0], [0.0], [1.0]]))
# w^2 = z with the separating / non-separating test function (z-1) w
STEIN = CoverSlice(BivarPoly.from_lists([[0.0, -1.0], [0.0], [1.0]]))
STEIN_FUNC = BivarPoly.from_lists([[0.0], [-1.0, 1.0]])


def test_cover_slice_validation():
    with pytest.raises(DegenerateCover, match="positive degree"):
        CoverSlice(BivarPoly.from_lists([[1.0, 2.0]]))
    with pytest.raises(DegenerateCover, match="must not depend on z"):
        CoverSlice(BivarPoly.from_lists([[0.0], [0.0], [1.0, 1.0]]))
    # non-monic input is normalized
    c = CoverSlice(BivarPoly.from_lists([[0.0, -2.0], [0.0], [2.0]]))
    assert c.poly.w_coeffs[-1].coeffs == (1 + 0j,)
    fib = c.fiber(4.0)
    assert abs(fib[0] + 2) < 1e-9 and abs(fib[1] - 2) < 1e-9


def test_z_discriminant_frozen():
    assert z_discriminant(STEIN).coeffs == (0j, 4 + 0j)
    d = z_discriminant(GALOIS)
    expect = [-27.0, 54.0, 27.0, -108.0, 27.0, 54.0, -27.0]
    assert d.degree == 6
    for got, want in zip(d.coeffs, expect):
        assert abs(got - want) < 1e-9 * 110
    with pytest.raises(DegenerateCover, match="vanishes identically"):
        z_discriminant(CoverSlice(BivarPoly.from_lists([[0.0], [0.0], [1.0]])))


def test_branch_points_frozen():
    bp = sorted(branch_points(CUBIC), key=lambda z: z.real)
    assert len(bp) == 2
    assert abs(bp[0] + 1) < 1e-10 and abs(bp[1] - 1) < 1e-10
    bp = sorted(branch_points(GALOIS), key=lambda z: z.real)
    assert len(bp) == 2
    assert abs(bp[0] + 1) < 1e-8 and abs(bp[1] - 1) < 1e-8
    bp = branch_points(STEIN)
    assert len(bp) == 1 and abs(bp[0]) < 1e-10


def test_lasso_geometry():
    assert auto_basepoint([-1, 1]) == 2.5
    radii = lasso_radii([-1, 1], 2.5)
    assert radii == (pytest.approx(0.8), pytest.approx(0.6))


def test_cubic_monodromy_frozen():
    mono = full_monodromy(CUBIC)
    assert mono.basepoint == 2.5
    assert abs(mono.branch[0] + 1) < 1e-10 and abs(mono.branch[1] - 1) < 1e-10
    assert [p.images for p in mono.perms] == [(0, 2, 1), (2, 1, 0)]
    assert mono.product_perm.images == (2, 0, 1)
    assert mono.product_matches_boundary
    assert mono.boundary_perm == mono.product_perm
    assert mono.closure_order() == 6
    want = [-0.4336 - 0.5222j, 0.0 + 1.0443j, 0.4336 - 0.5222j]
    for got, ref in zip(mono.fiber, want):
        assert abs(got - ref) < 1e-3
    # doubling the tracking resolution must not change any permutation
    fine = full_monodromy(CUBIC, refine=2)
    assert [p.images for p in fine.perms] == [p.images for p in mono.perms]
    assert fine.boundary_perm == mono.boundary_perm


def test_galois_monodromy_frozen():
    mono = full_monodromy(GALOIS)
    assert [p.cycle_type() for p in mono.perms] == [(3,), (3,)]
    assert (mono.perms[0] * mono.perms[1]).is_identity()
    assert mono.product_matches_boundary
    assert mono.closure_order() == 3


def test_stein_monodromy_and_weierstrass():
    mono = full_monodromy(STEIN)
    assert len(mono.branch) == 1 and abs(mono.branch[0]) < 1e-10
    assert mono.perms[0].images == (1, 0)
    assert mono.product_matches_boundary
    wp = weierstrass_poly_of_function(STEIN, STEIN_FUNC)
    rows = [c.coeffs for c in wp.w_coeffs]
    assert len(rows) == 3
    for got, want in zip(rows[0], (0j, -1 + 0j, 2 + 0j, -1 + 0j)):
        assert abs(got - want) < 1e-8
    assert rows[1] == (0j,)
    assert rows[2] == (1 + 0j,)
    assert separates_fiber(STEIN, STEIN_FUNC, -1.0)
    assert not separates_fiber(STEIN, STEIN_FUNC, 1.0)


def test_weierstrass_of_coordinate_recovers_cover():
    w_itself = BivarPoly.from_lists([[0.0], [1.0]])
    for cover in (CUBIC, GALOIS, STEIN):
        wp = weierstrass_poly_of_function(cover, w_itself)
        assert wp.w_degree == cover.degree
        for mine, orig in zip(wp.w_coeffs, cover.poly.w_coeffs):
            assert mine.degree == orig.degree
            for a, b in zip(mine.coeffs, orig.coeffs):
                assert abs(a - b) < 1e-8


def test_weierstrass_keeps_coefficients_that_matter_on_the_sampling_circle():
    # the d=6 slice w^6 + sum (a_k + b_k z) w^k from default_rng(1) (second draw)
    rng = np.random.default_rng(1)
    for _ in range(2):
        d = int(rng.integers(3, 9))
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert d == 6
    cover = CoverSlice(BivarPoly.from_lists([[a[k], b[k]] for k in range(d)] + [[1.0]]))
    # a function f(z, w) linear in z and quadratic in w, drawn from default_rng(2)
    # after the 64 draws the analytic benchmark spends on the first slice
    rng = np.random.default_rng(2)
    rng.normal(size=12)
    rng.uniform(size=8)
    rng.normal(size=44)
    func = BivarPoly.from_lists(
        [[complex(rng.normal(), rng.normal()) for _ in range(2)] for _ in range(3)]
    )
    wp = weierstrass_poly_of_function(cover, func)
    assert wp.w_degree == d and wp.w_coeffs[-1].coeffs == (1 + 0j,)
    # the sampling circle has radius about 270 here; its small z^k coefficients
    # still move the polynomial by |c| R^k inside the disc
    radius = 1.37 * (1.0 + max(abs(c) for c in branch_points(cover)))
    for share, turn in ((0.1, 0.3), (0.45, 0.9), (0.8, 0.11), (0.95, 0.62)):
        z = share * radius * cmath.exp(2j * cmath.pi * turn)
        coeffs = [c(z) for c in wp.w_coeffs]
        for w in cover.fiber(z):
            zeta = func(z, w)
            val = abs(sum(c * zeta**j for j, c in enumerate(coeffs)))
            scale = sum(abs(c) * abs(zeta) ** j for j, c in enumerate(coeffs))
            assert val <= 1e-8 * scale


def test_perm_around():
    mono = full_monodromy(CUBIC)
    assert mono.perm_around(-1.0).images == (0, 2, 1)
    assert mono.perm_around(1.0).images == (2, 1, 0)
    with pytest.raises(ValueError, match="no branch point near"):
        mono.perm_around(5.0 + 5.0j)


def test_track_to_isolates_the_untouched_sheet():
    fiber0, end, base = track_to(CUBIC, 1.04)
    assert base == 2.5
    assert len(fiber0) == 3 == len(end)
    # near z=1 two sheets collide; the sheet farthest from the others there
    # is the one the lasso around +1 must fix
    def isolation(i):
        return min(abs(end[i] - end[j]) for j in range(3) if j != i)

    iso = max(range(3), key=isolation)
    assert iso == 1
    mono = full_monodromy(CUBIC)
    assert mono.perm_around(1.0)(iso) == iso
    assert mono.product_perm(iso) != iso


def test_track_to_next_to_a_branch_point_terminates():
    target = 1.0 + 1e-6
    _, end, _ = track_to(CUBIC, target)
    want = CUBIC.fiber(target)
    for w in want:
        assert min(abs(w - e) for e in end) < 1e-6


def test_track_to_is_continuous_inside_a_lasso_disk():
    # 0.5 lies in the disk about +1, opposite the entry point 1.6
    _, mid, _ = track_to(CUBIC, 0.5)
    for w in CUBIC.fiber(0.5):
        assert min(abs(w - e) for e in mid) < 1e-9
    for side in (1e-3j, -1e-3j):
        _, end, _ = track_to(CUBIC, 0.5 + side)
        assert max(abs(a - b) for a, b in zip(mid, end)) < 1e-2


def test_track_to_across_a_cut_differs_by_the_lasso():
    mono = full_monodromy(CUBIC)
    for center, radius, lasso in zip(mono.branch, mono.radii, mono.perms):
        out = (mono.basepoint - center) / abs(mono.basepoint - center)
        on_cut = center + 0.5 * radius * out
        _, ccw, _ = track_to(CUBIC, on_cut + 1e-3j * out)
        _, cw, _ = track_to(CUBIC, on_cut - 1e-3j * out)
        assert lasso.images != tuple(range(3))
        assert all(abs(cw[i] - ccw[lasso(i)]) < 1e-2 for i in range(3))


def test_track_to_outside_every_disk_follows_the_detoured_segment(monkeypatch):
    paths = []
    track_path = monodromy.track_path

    def recorded(cover, nodes, fiber):
        paths.append(nodes)
        return track_path(cover, nodes, fiber)

    monkeypatch.setattr(monodromy, "track_path", recorded)
    branch = branch_points(CUBIC)
    base = auto_basepoint(branch)
    radii = lasso_radii(branch, base)
    step = monodromy._step_rule(branch, radii, 1)
    for target in (0.5j, -2.0 - 0.3j, 1.0 + 0.61j):
        assert all(abs(target - c) > r for c, r in zip(branch, radii))
        track_to(CUBIC, target)
        assert paths.pop() == monodromy._route_segment(base, target, list(zip(branch, radii)), step)


def test_track_to_without_branch_points():
    flat = CoverSlice(BivarPoly.from_lists([[0.0, -1.0], [1.0]]))  # w = z
    fiber0, end, base = track_to(flat, 3.0 + 1.0j, basepoint=0.0)
    assert abs(fiber0[0]) < 1e-12
    assert abs(end[0] - (3.0 + 1.0j)) < 1e-9


def test_unbranched_cover_generates_the_trivial_group():
    flat = CoverSlice(BivarPoly.from_lists([[0.0, -1.0], [1.0]]))  # w = z
    square = CoverSlice(BivarPoly.from_lists([[-1.0], [0.0], [1.0]]))  # w^2 = 1
    for cover in (flat, square):
        mono = full_monodromy(cover)
        assert mono.perms == ()
        assert mono.closure_order() == 1
    cover = {"w_coeffs": [[[-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]}  # w^2 = 1
    report = run_payload({"kind": "slice-monodromy", "name": "unbranched", "cover": cover})
    assert report.results["closure_order"] == 1


def test_degree_ten_slice_answers_its_closure_order_quickly():
    # w^10 + w + z: nine simple branch points, lasso group S10
    cover = {"w_coeffs": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]] + [[[0.0, 0.0]]] * 8 + [[[1.0, 0.0]]]}
    t0 = perf_counter()
    report = run_payload({"kind": "slice-monodromy", "name": "degree-10", "cover": cover})
    assert perf_counter() - t0 < 5.0
    assert report.status == "ok"
    assert report.results["closure_order"] == 3628800
    assert report.results["cycle_types"] == [[2] + [1] * 8] * 9
    assert report.results["product_matches_boundary"] is True


def test_basepoint_on_branch_point_rejected():
    with pytest.raises(ValueError, match="branch point"):
        full_monodromy(STEIN, basepoint=0.0)
    b = max(branch_points(CUBIC), key=lambda c: c.real)
    with pytest.raises(ValueError, match="branch point"):
        track_to(CUBIC, 0.5j, basepoint=b)
    for c in branch_points(CUBIC):
        with pytest.raises(ValueError, match="target coincides with a branch point"):
            track_to(CUBIC, c + 1e-10)
    for refine in (0, -1):
        with pytest.raises(ValueError, match="refine"):
            full_monodromy(STEIN, refine=refine)
        with pytest.raises(ValueError, match="refine"):
            track_to(CUBIC, 1.04, refine=refine)


def test_square_root_family_monodromy():
    rng = np.random.default_rng(77)
    done = 0
    while done < 25:
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(a - b) < 0.5:
            continue
        done += 1
        cover = CoverSlice(
            BivarPoly(
                (
                    CPoly((a * b, -(a + b), 1 + 0j)).scale(-1),
                    CPoly((0j,)),
                    CPoly((1 + 0j,)),
                )
            )
        )
        bp = branch_points(cover)
        assert len(bp) == 2
        assert min(abs(bp[0] - a), abs(bp[0] - b)) < 1e-8
        assert min(abs(bp[1] - a), abs(bp[1] - b)) < 1e-8
        mono = full_monodromy(cover)
        assert [p.images for p in mono.perms] == [(1, 0), (1, 0)]
        assert mono.product_perm.images == (0, 1)
        assert mono.product_matches_boundary
        assert mono.closure_order() == 2


@pytest.mark.parametrize("seed", range(12))
def test_generic_cover_lassos_compose_to_the_boundary_loop(seed):
    # w^d + sum (a_k + b_k z) w^k with complex normal a_k, b_k: generic, so
    # irreducible with simple branch points
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 9))
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    cover = CoverSlice(BivarPoly.from_lists([[a[k], b[k]] for k in range(d)] + [[1.0]]))
    mono = full_monodromy(cover)
    assert mono.product_matches_boundary
    assert orbit_size([p.images for p in mono.perms], 0) == d
    fine = full_monodromy(cover, refine=2)
    assert [p.images for p in fine.perms] == [p.images for p in mono.perms]
    assert fine.boundary_perm == mono.boundary_perm


def test_branch_points_of_a_slowly_converging_discriminant():
    # corpus seed 100: d = 7 with coefficients c_k(z) of z-degree 1 or 2;
    # Aberth iterates on its degree-22 discriminant stall for 12 sweeps
    # before they converge
    cover = CoverSlice(BivarPoly.from_lists(generic_cover_rows(100)))
    want = companion_roots(z_discriminant(cover).coeffs)
    got = branch_points(cover)
    assert len(want) == len(got) == 22
    for z in want:
        assert min(abs(z - g) for g in got) < 1e-9


def test_rejected_cluster_reports_each_raw_root_once():
    # w^2 = z^3 - 1e-4 z^2: the discriminant is a multiple of z^2 (z - 1e-4),
    # so the root finder returns 0 twice, and the three roots form one
    # cluster at tau that fails verification (the second derivative vanishes
    # at 1e-4 / 3); 0 must come out once, or its lasso radius is 0
    cover = CoverSlice(BivarPoly.from_lists([[0.0, 0.0, 1e-4, -1.0], [0.0], [1.0]]))
    got = branch_points(cover)
    assert len(got) == 2 and got[0] == 0 and abs(got[1] - 1e-4) < 1e-12
    mono = full_monodromy(cover)
    assert mono.perm_around(0j) == Perm.identity(2)
    assert mono.perm_around(1e-4) == Perm((1, 0))
    _, fiber, _ = track_to(cover, 0.5j)
    assert np.allclose([w * w for w in fiber], [(0.5j) ** 3 - 1e-4 * (0.5j) ** 2] * 2)


def test_coincident_branch_points_are_rejected(monkeypatch):
    monkeypatch.setattr(monodromy, "branch_points", lambda cover: (0j, 0j, 1 + 0j))
    with pytest.raises(NumericFailure, match="two branch points coincide"):
        full_monodromy(CUBIC)
    with pytest.raises(NumericFailure, match="two branch points coincide"):
        track_to(CUBIC, 0.5j)


@pytest.mark.parametrize("seed", range(12))
def test_clusters_are_the_connected_components_at_the_merge_distance(seed):
    # clumps of near points among scattered ones, at a tolerance that merges
    # some clumps and some scattered points, in a shuffled order
    rng = np.random.default_rng(seed)

    def scatter(k, scale):
        return [scale * complex(rng.normal(), rng.normal()) for _ in range(k)]

    points = scatter(int(rng.integers(0, 12)), 3.0)
    for c in scatter(int(rng.integers(1, 8)), 3.0):
        points += [c + d for d in scatter(int(rng.integers(1, 5)), 0.05)]
    points = [points[k] for k in rng.permutation(len(points))]
    tol = float(rng.uniform(0.05, 1.0))
    assert monodromy._clusters(points, tol) == connected_components(points, tol)


@pytest.mark.parametrize(
    "points, tol, want",
    [
        # a-c is 2 apart, but b lies within 1 of both and comes last
        ([0j, 2 + 0j, 1 + 0j], 1.0, [[0, 1, 2]]),
        # two chains that grow towards each other until 7 joins them
        ([0j, 10 + 0j, 1 + 0j, 9 + 0j, 5 + 0j, 3 + 0j, 7 + 0j, 4 + 0j], 2.0, [[0, 1, 2, 3, 4, 5, 6, 7]]),
        # exactly tol apart merges (|0.75 + 1i| = 1.25 exactly); a hair less does not
        ([0j, 0.75 + 1j], 1.25, [[0, 1]]),
        ([0j, 0.75 + 1j], float(np.nextafter(1.25, 0)), [[0], [1]]),
        ([3 + 0j, 0j, 3.5 + 0j, 0.5 + 0j], 1.0, [[0, 2], [1, 3]]),
        ([], 1.0, []),
    ],
)
def test_clusters_chain_through_points_within_the_merge_distance(points, tol, want):
    assert monodromy._clusters(points, tol) == want == connected_components(points, tol)


# lasso permutations of corpus seed 121 as the fiber-wide step limit found them
PERMS_121 = [
    (3, 1, 2, 0), (0, 2, 1, 3), (1, 0, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (0, 1, 3, 2),
    (0, 1, 3, 2), (0, 3, 2, 1), (1, 0, 2, 3), (0, 2, 1, 3), (0, 3, 2, 1), (2, 1, 0, 3),
]


def test_isolated_fast_sheet_does_not_hold_up_the_tracker():
    # corpus seed 121 (d = 4): one sheet grows like z^2 and sits at |w| = 1582
    # at the basepoint, the other three within 0.43 of each other; under a
    # fiber-wide step limit the fast sheet was held to their spacing (88 s)
    cover = CoverSlice(BivarPoly.from_lists(generic_cover_rows(121)))
    t0 = perf_counter()
    mono = full_monodromy(cover)
    assert perf_counter() - t0 < 5.0
    assert mono.product_matches_boundary
    assert [p.images for p in mono.perms] == PERMS_121


CORPUS = range(100, 160)
# ROADMAP item 1: z_discriminant drops a genuine leading coefficient of these
# two covers, so seed 131 misses a branch point near |z| = 2.06e3 and answers
# with a wrong boundary loop, and seed 143 raises
MISSED_BRANCH_POINT = "ROADMAP item 1: z_discriminant drops a genuine leading coefficient"
# answers of the whole corpus as scripts/scale_monodromy.py prints them
CORPUS_DIGEST = "554ae7660d7d1669c2088f319a6184f5729cdfbf5e82728b64187ff4bc14b2f2"


def _corpus_param(seed, xfail_seeds):
    if seed not in xfail_seeds:
        return seed
    mark = pytest.mark.xfail(strict=True, raises=xfail_seeds[seed], reason=MISSED_BRANCH_POINT)
    return pytest.param(seed, marks=mark)


@pytest.fixture(scope="module")
def corpus():
    """``full_monodromy`` of each corpus cover, or the NumericFailure it raised."""
    out = {}
    for seed in CORPUS:
        try:
            out[seed] = full_monodromy(CoverSlice(BivarPoly.from_lists(generic_cover_rows(seed))))
        except NumericFailure as exc:
            out[seed] = exc
    return out


def _solved(corpus, seed):
    outcome = corpus[seed]
    if isinstance(outcome, NumericFailure):
        raise outcome
    return outcome


def _closed_loops(mono):
    """The node lists of every lasso and the boundary loop of ``mono``, closed:
    the approach, the turn and the approach reversed."""
    loops = _loops(mono.basepoint, mono.branch, mono.radii, 1)
    return [approach + turn[1:] + approach[-2::-1] for approach, turn in loops]


@pytest.mark.parametrize("seed", [_corpus_param(s, {143: NumericFailure}) for s in CORPUS])
def test_lasso_permutations_match_nearest_root_continuation(corpus, seed):
    # the oracle follows the whole closed loops, the return legs included
    rows = generic_cover_rows(seed)
    mono = _solved(corpus, seed)
    h = min(mono.radii) / 8
    got = [loop_perm_by_matching(rows, nodes, mono.fiber, h, mono.branch) for nodes in _closed_loops(mono)]
    assert got == [p.images for p in mono.perms] + [mono.boundary_perm.images]


@pytest.mark.parametrize(
    "seed", [_corpus_param(s, {131: AssertionError, 143: NumericFailure}) for s in CORPUS]
)
def test_boundary_loop_has_the_cycle_type_of_the_newton_polygon(corpus, seed):
    want = boundary_cycle_type(generic_cover_rows(seed))
    if want is None:
        pytest.skip("an edge polynomial of the Newton polygon is not squarefree")
    assert _solved(corpus, seed).boundary_perm.cycle_type() == want


@pytest.mark.parametrize("cover, want", [(CUBIC, (3,)), (GALOIS, (1, 1, 1)), (STEIN, (2,))])
def test_bundled_boundary_loops_have_the_cycle_type_of_the_newton_polygon(cover, want):
    assert boundary_cycle_type([c.coeffs for c in cover.poly.w_coeffs]) == want
    assert full_monodromy(cover).boundary_perm.cycle_type() == want


def test_corpus_answers_are_pinned(corpus):
    answering = [m for m in corpus.values() if not isinstance(m, NumericFailure)]
    assert len(answering) == 59
    assert all(m.product_matches_boundary for m in answering)
    assert answer_digest(corpus_answer(seed, corpus[seed]) for seed in CORPUS) == CORPUS_DIGEST


# SHA-256 over the reprs of the branch points of the three bundled slices and
# of every answering corpus cover, in that order: the clustering and the
# refinement must place exactly these points, bit for bit
BRANCH_POINTS_DIGEST = "c4ae1b50f06266a1eea4e0a8af77c4b06833676fda821f6553e1ff1ff7f1b05a"


def test_branch_points_are_pinned(corpus):
    digest = hashlib.sha256()
    for cover in (CUBIC, GALOIS, STEIN):
        digest.update(repr(branch_points(cover)).encode())
    for seed in CORPUS:
        if not isinstance(corpus[seed], NumericFailure):
            digest.update(repr(corpus[seed].branch).encode())
    assert digest.hexdigest() == BRANCH_POINTS_DIGEST


# the three bundled slices and the first six corpus covers
SLICE_CASES = [CUBIC, GALOIS, STEIN, *range(100, 106)]
SLICE_IDS = ["cubic", "galois", "stein", *map(str, range(100, 106))]
# SHA-256 of the _loops node lists of the SLICE_CASES, in order: the node
# spacing must place exactly these nodes, bit for bit
LOOP_NODES_DIGEST = "9e4ba34e3145624e2e9cec659f8528cd329a4c1fab3d74fba8d02aceadb53fe3"
# SHA-256 of the entry fiber and the turn's end fiber of each _loops loop of
# the SLICE_CASES, in order: the tracker must hand on exactly these fibers
TRACKED_FIBERS_DIGEST = "852cc6035468816f594ec65eb2aea5c23f3a1d5557de0cc2126a63dfe7d680c4"


def _slice_case(corpus, case):
    """(cover, full_monodromy of it) for one of the SLICE_CASES."""
    if isinstance(case, int):
        return CoverSlice(BivarPoly.from_lists(generic_cover_rows(case))), _solved(corpus, case)
    return case, full_monodromy(case)


@pytest.mark.parametrize("case", SLICE_CASES, ids=SLICE_IDS)
def test_tracking_the_return_legs_gives_the_same_permutations(corpus, case):
    # full_monodromy reads each permutation on the lasso circle; tracking
    # the closed loop back to the basepoint and matching there must agree
    cover, mono = _slice_case(corpus, case)
    got = [monodromy._match_perm(mono.fiber, track_path(cover, nodes, mono.fiber)) for nodes in _closed_loops(mono)]
    assert got == [*mono.perms, mono.boundary_perm]


def test_loop_node_lists_are_pinned(corpus):
    digest = hashlib.sha256()
    for case in SLICE_CASES:
        _, mono = _slice_case(corpus, case)
        for approach, turn in _loops(mono.basepoint, mono.branch, mono.radii, 1):
            for leg in (approach, turn):
                digest.update(np.array(leg, dtype=complex).tobytes())
                digest.update(b"|")
    assert digest.hexdigest() == LOOP_NODES_DIGEST


def test_tracked_fibers_are_pinned(corpus):
    digest = hashlib.sha256()
    for case in SLICE_CASES:
        cover, mono = _slice_case(corpus, case)
        for approach, turn in _loops(mono.basepoint, mono.branch, mono.radii, 1):
            entry = track_path(cover, approach, mono.fiber)
            for fiber in (entry, track_path(cover, turn, entry)):
                digest.update(np.array(fiber, dtype=complex).tobytes())
                digest.update(b"|")
    assert digest.hexdigest() == TRACKED_FIBERS_DIGEST


def test_tracking_leaves_no_reference_cycles():
    # every object the tracker makes is freed by reference count, so no
    # later collection pays for a monodromy computation
    covers = [CUBIC, GALOIS, STEIN, CoverSlice(BivarPoly.from_lists(generic_cover_rows(100)))]
    gc.collect()
    gc.disable()
    try:
        for cover in covers:
            full_monodromy(cover)
            assert gc.collect() == 0
            track_to(cover, 0.3 + 0.2j)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("case", SLICE_CASES, ids=SLICE_IDS)
def test_tracked_fibers_keep_full_accuracy(corpus, case):
    # the corrector may stop on quadratic contraction before a step falls
    # below 1e-13 relative; every fiber it hands on must still be a root
    # set to working accuracy, sheet for sheet the one a cold solve finds
    cover, mono = _slice_case(corpus, case)
    for approach, turn in _loops(mono.basepoint, mono.branch, mono.radii, 1):
        entry = track_path(cover, approach, mono.fiber)
        for z, fiber in ((approach[-1], entry), (turn[-1], track_path(cover, turn, entry))):
            p = cover.poly.at_z(z)
            cold = cover.fiber(z)
            matched = []
            for w in fiber:
                assert abs(p(w)) <= RESIDUAL_TOL * eval_scale(p, w)
                dists = [abs(w - v) for v in cold]
                j = dists.index(min(dists))
                assert dists[j] <= 1e-10 * (1.0 + abs(w))
                matched.append(j)
            assert sorted(matched) == list(range(len(cold)))


def test_repeated_nodes_return_the_start_fiber():
    # a zero-length step leaves no secant to extrapolate along the next one
    fiber = STEIN.fiber(1.0)
    end = track_path(STEIN, [1, 1, 2, 2, 1], fiber)
    assert all(abs(a - b) < 1e-12 for a, b in zip(end, fiber))


def test_tracking_through_a_branch_point_fails_at_the_depth_cap():
    # w^2 = z along [1, -1] passes through the double root at z = 0: every
    # step that ends there is rejected, down to the last bisection level
    t0 = perf_counter()
    with pytest.raises(NumericFailure, match=r"near z = 0\.0 \(bisection depth 40\)"):
        track_path(STEIN, [1, -1], STEIN.fiber(1.0))
    assert perf_counter() - t0 < 0.5


@pytest.mark.parametrize(
    "k, leg, name",
    [
        pytest.param(0, 0, r"lasso 0 around z = 0j", id="0-lasso 0 around z = 0j"),
        pytest.param(1, 0, "boundary loop", id="1-boundary loop"),
        pytest.param(0, 1, r"lasso 0 around z = 0j", id="0-turn-lasso 0 around z = 0j"),
    ],
)
def test_full_monodromy_names_the_failing_loop(monkeypatch, k, leg, name):
    # the approach (leg 0) or the turn (leg 1) of loop k runs straight
    # through the branch point z = 0 of w^2 = z
    loops = monodromy._loops

    def through_the_branch_point(basepoint, branch, radii, refine):
        out = loops(basepoint, branch, radii, refine)
        legs = list(out[k])
        start = legs[leg][0]
        legs[leg] = [start, -start]
        out[k] = tuple(legs)
        return out

    monkeypatch.setattr(monodromy, "_loops", through_the_branch_point)
    with pytest.raises(NumericFailure, match=rf"^{name}: sheet tracking failed to converge near z = 0"):
        full_monodromy(STEIN)


@pytest.mark.parametrize("seed", [102, 103])
def test_reversing_paths_match_nearest_root_continuation(seed):
    # out to each lasso circle, once round, back round it the way it came,
    # round again and home: the path reverses twice on the circle, where a
    # secant predicts worst, and still ends in the lasso permutation
    rows = generic_cover_rows(seed)
    cover = CoverSlice(BivarPoly.from_lists(rows))
    mono = full_monodromy(cover)
    disks = list(zip(mono.branch, mono.radii))
    step = monodromy._step_rule(mono.branch, mono.radii, 1)
    h = min(mono.radii) / 8
    for k, (c, r) in enumerate(disks):
        approach, th = monodromy._approach(mono.basepoint, c, r, disks[:k] + disks[k + 1:], step)
        turn = monodromy._arc(c, r, th, 2 * cmath.pi, step)
        nodes = approach + turn + turn[-2::-1] + approach[-1:] + turn + approach[-2::-1]
        tracked = monodromy._match_perm(mono.fiber, track_path(cover, nodes, mono.fiber))
        assert tracked == mono.perms[k]
        assert loop_perm_by_matching(rows, nodes, mono.fiber, h, mono.branch) == tracked.images
