from __future__ import annotations

import numpy as np
import pytest

from coverext import hartogs
from coverext.errors import NotSmooth, NumericFailure
from coverext.hartogs import (
    _Jet,
    _levi_batch,
    _rho_rows,
    levi_matrix,
    levi_signature,
    rho_alpha,
)
from oracles import fd_complex_hessian_loop, in_hartogs_figure, levi_eigenvalues_one_point, levi_matrix_one_point


def random_point(rng, n, low=0.05, high=0.95):
    mods = rng.uniform(low, high, size=n)
    args = rng.uniform(0, 2 * np.pi, size=n)
    return [complex(m * np.cos(a), m * np.sin(a)) for m, a in zip(mods, args)]


def test_rho_closed_form_values():
    assert rho_alpha([0, 0, 0], q=2, alpha=1.0, r=0.5) == pytest.approx(0.0625)
    # on the sphere |w1| = r/2 with vanishing second block the function is zero
    assert rho_alpha([0.25, 0, 0], q=2, alpha=3.0, r=0.5) == pytest.approx(0.0)
    w = [0.3 - 0.1j, 0.2 + 0.4j, -0.5j]
    r, alpha = 0.7, 2.5
    s = abs(w[1]) ** 2 + abs(w[2]) ** 2
    expect = -abs(w[0]) ** 2 + r * r / 4 + (1 - r * r / 4) * s**alpha
    assert rho_alpha(w, q=2, alpha=alpha, r=r) == pytest.approx(expect, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError, match="q"):
        rho_alpha([0.1, 0.2], q=2, alpha=1.0, r=0.5)
    with pytest.raises(ValueError, match="q"):
        rho_alpha([0.1, 0.2], q=0, alpha=1.0, r=0.5)
    with pytest.raises(ValueError, match="alpha"):
        rho_alpha([0.1, 0.2], q=1, alpha=0.0, r=0.5)
    with pytest.raises(ValueError, match="strictly between"):
        rho_alpha([0.1, 0.2], q=1, alpha=1.0, r=1.0)
    with pytest.raises(ValueError, match="strictly between"):
        rho_alpha([0.1, 0.2], q=1, alpha=1.0, r=0.0)


def test_signature_frozen_cases():
    rng = np.random.default_rng(3)
    for n, q, alpha in ((3, 2, 1.0), (4, 2, 2.0), (5, 2, 3.5)):
        for _ in range(10):
            data = levi_signature(random_point(rng, n), q, alpha, r=0.5)
            assert data.signature == (q, n - q, 0)
            for e in sorted(data.eigenvalues)[: n - q]:
                assert abs(e + 2.0) < 1e-9


def test_levi_matrix_alpha_one_is_constant():
    data = levi_signature([0.3, 0.1 - 0.2j, 0.4j], q=2, alpha=1.0, r=0.5)
    kappa = 1 - 0.5**2 / 4
    expect = np.diag([-2.0, 2 * kappa, 2 * kappa]).astype(complex)
    assert np.allclose(data.matrix, expect, atol=1e-12)


def test_degenerate_block_at_vanishing_w2():
    # integer alpha >= 2: the second block of the Levi form dies at w2 = 0
    data = levi_signature([0.3, 0, 0], q=2, alpha=2.0, r=0.5)
    assert data.signature == (0, 1, 2)
    # alpha = 1 stays nondegenerate there
    data = levi_signature([0.3, 0, 0], q=2, alpha=1.0, r=0.5)
    assert data.signature == (2, 1, 0)
    with pytest.raises(NotSmooth):
        levi_signature([0.3, 0, 0], q=2, alpha=3.5, r=0.5)


def test_the_jet_check_trips_on_a_closed_form_off_by_1e_7(monkeypatch):
    closed_form = hartogs._levi_matrices

    def off(*args):
        mats, failure = closed_form(*args)
        return mats * (1.0 + 1e-7), failure

    monkeypatch.setattr(hartogs, "_levi_matrices", off)
    # the -2 at (0, 0) is the largest entry, so it deviates the most
    with pytest.raises(NumericFailure, match=r"deviates .* by 2\.000e-07 at entry \(0, 0\) \(allowed 3\.000e-12\)"):
        levi_signature([0.3, 0.2 + 0.1j, 0.4 - 0.2j], q=2, alpha=3.5, r=0.5)


def test_finite_difference_guard_trips_on_a_nan_deviation():
    # alpha = 1e300 overflows the weight: one Levi entry is NaN, and a
    # `dev > tol` test would let it through to a made-up signature
    with pytest.raises(NumericFailure, match=r"by nan at entry \(2, 2\)"):
        levi_signature([0.3, 0.4, 0.2j], q=1, alpha=1e300, r=0.5)


def _check_jet_levi(w, q, alpha):
    # the Levi matrix of rho's jet, 2 * 1/4 (H_xx + H_yy + i (H_xy - H_yx))
    n = w.size
    h = _rho_rows(_Jet.seed(w[None, :]), q, alpha, 0.5).hess[..., 0]
    jet = 0.5 * ((h[:n, :n] + h[n:, n:]) + 1j * (h[:n, n:] - h[n:, :n]))
    mat = levi_matrix(w, q, alpha, 0.5)
    scale = 1.0 + float(np.abs(mat).max())
    assert float(np.abs(jet - mat).max()) <= hartogs.LEVI_REL_TOL * scale
    # the loop reference differences with step 1e-4, so it is good to about 1e-8
    loop = fd_complex_hessian_loop(lambda p: rho_alpha(p, q, alpha, 0.5), w, 1e-4)
    assert float(np.abs(jet - 2.0 * loop).max()) <= 1e-5 * scale


def test_batched_stencil_matches_loop_reference_and_closed_form():
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        for q in range(1, n):
            for alpha in (0.3, 1.0, 2.0, 3.5):
                _check_jet_levi(np.array(random_point(rng, n)), q, alpha)
    # integer alpha where the second block vanishes: the closed form is still defined
    for n, q in ((2, 1), (5, 2), (8, 7)):
        w = np.zeros(n, dtype=complex)
        w[: n - q] = random_point(rng, n - q)
        for alpha in (1.0, 2.0, 3.0):
            _check_jet_levi(w, q, alpha)


def test_stacked_levi_forms_equal_the_one_point_reference_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        for q in range(1, n):
            for alpha in (0.3, 1.0, 2.0, 3.0, 3.5):
                r = float(rng.uniform(0.1, 0.9))
                points = np.array([random_point(rng, n) for _ in range(int(rng.integers(1, 6)))])
                if alpha in (1.0, 2.0, 3.0):
                    points[rng.integers(0, len(points)), n - q :] = 0.0
                mats, eigs, sigs = _levi_batch(points, q, alpha, r)
                assert len(mats) == len(eigs) == len(sigs) == len(points)
                for w, mat, eig, sig in zip(points, mats, eigs, sigs):
                    spectrum = (tuple(eig.tolist()), tuple(sig.tolist()))
                    want = levi_matrix_one_point(w, q, alpha, r)
                    assert mat.tobytes() == want.tobytes()
                    assert spectrum == levi_eigenvalues_one_point(want)
                    one = levi_signature(w, q, alpha, r)
                    assert one.matrix.tobytes() == want.tobytes()
                    assert (one.eigenvalues, one.signature) == spectrum
                    assert levi_matrix(w, q, alpha, r).tobytes() == want.tobytes()


def _answer_of_the_oracle(w, q, alpha, r):
    return levi_eigenvalues_one_point(levi_matrix_one_point(np.asarray(w, dtype=complex), q, alpha, r))


def test_the_first_failing_point_in_order_decides_the_error():
    rng = np.random.default_rng(43)
    points = np.array([random_point(rng, 3) for _ in range(5)])
    far = points[4].copy()
    far[1:] = 1e3  # far outside the domain: the jet keeps every digit there
    data = levi_signature(far, 2, 3.5, 0.5)
    assert (data.eigenvalues, data.signature) == _answer_of_the_oracle(far, 2, 3.5, 0.5)
    points[2, 1:] = 0.0  # not twice differentiable at alpha = 3.5
    points[4, 1] = np.nan  # the check fails on a NaN deviation
    with pytest.raises(NotSmooth):
        _levi_batch(points, 2, 3.5, 0.5)
    with pytest.raises(NumericFailure, match="deviates from the jet of rho by nan") as alone:
        levi_signature(points[4], 2, 3.5, 0.5)
    with pytest.raises(NumericFailure) as batched:
        _levi_batch(np.delete(points, 2, axis=0), 2, 3.5, 0.5)
    assert str(batched.value) == str(alone.value)
    # a point's failed check comes before a later point's NotSmooth
    with pytest.raises(NumericFailure) as swapped:
        _levi_batch(points[[0, 4, 2]], 2, 3.5, 0.5)
    assert str(swapped.value) == str(alone.value)


def test_an_overflowing_levi_form_is_a_numeric_failure_in_point_order():
    for levi in (levi_signature, levi_matrix):
        with pytest.raises(NumericFailure, match="overflows a float"):
            levi([0.3, 2.0], 1, 1e3, 0.5)
    # ordered like NotSmooth: the rows before the failing one are judged first
    fine, flat, huge = [0.3, 0.5], [0.3, 0.0], [0.3, 2.0]
    alpha = 1000.5  # not an integer, so w2 = 0 is not smooth
    assert levi_signature(fine, 1, alpha, 0.5).signature == (0, 1, 1)
    with pytest.raises(NumericFailure, match="overflows a float"):
        _levi_batch(np.array([fine, huge, flat], dtype=complex), 1, alpha, 0.5)
    with pytest.raises(NotSmooth):
        _levi_batch(np.array([fine, flat, huge], dtype=complex), 1, alpha, 0.5)
    # a point's failed check comes before a later point's overflow
    with pytest.raises(NumericFailure, match="deviates from the jet of rho by nan"):
        _levi_batch(np.array([[0.3, np.nan], huge], dtype=complex), 1, alpha, 0.5)
    far = [1e3, 1e3]  # -2 is zero next to the w2 block there, by the relative ZERO_TOL
    data = levi_signature(far, 1, 3.5, 0.5)
    assert (data.eigenvalues, data.signature) == _answer_of_the_oracle(far, 1, 3.5, 0.5)
    assert data.signature == (1, 0, 1)
    with pytest.raises(ValueError, match="finite"):
        levi_signature(flat, 1, float("inf"), 0.5)


@pytest.mark.parametrize(
    "n, q, alpha, r, count, seed",
    [(3, 2, 3.5, 0.5, 40, 5), (5, 2, 0.3, 0.8, 19, 17), (2, 1, 2.0, 0.2, 3, 0), (8, 7, 1.0, 0.6, 5, 2**40)],
)
def test_signature_sweep_tallies_what_levi_signature_gives_at_the_same_draws(n, q, alpha, r, count, seed):
    rng = np.random.default_rng(seed)
    want: dict = {}
    worst = 0.0
    for _ in range(count):  # one point at a time: n radii, then n angles
        radii = rng.uniform(0.25, 0.7, size=n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        data = levi_signature(radii * np.exp(1j * angles), q, alpha, r)
        want[data.signature] = want.get(data.signature, 0) + 1
        worst = max([worst] + [abs(e + 2.0) for e in data.eigenvalues if e < 0])
    assert hartogs.signature_sweep(n, q, alpha, r, count, seed) == (want, worst)


def test_levi_dimension_is_capped():
    assert hartogs.MAX_DIM == 64
    w = [0.3] * (hartogs.MAX_DIM + 1)
    for levi in (levi_signature, levi_matrix):
        with pytest.raises(ValueError, match=r"n=65 exceeds MAX_DIM=64"):
            levi(w, 2, 2.0, 0.5)
    with pytest.raises(ValueError, match="MAX_DIM"):
        _levi_batch(np.zeros((1, 10**6), dtype=complex), 2, 2.0, 0.5)
    # the cap only bounds the Levi matrix: the weight itself is fine
    assert np.isfinite(rho_alpha([0.1] * 1000, 2, 2.0, 0.5))


def test_signature_random_parameters():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, n))
        alpha = float(rng.uniform(0.3, 4.0))
        r = float(rng.uniform(0.1, 0.9))
        data = levi_signature(random_point(rng, n), q, alpha, r=r)
        assert data.signature == (q, n - q, 0)


def test_union_of_superlevel_sets_fills_polydisk_off_the_annulus():
    """With one coordinate in the first block, sweeping alpha reaches every
    polydisk point with nonvanishing second block, while on the w2 = 0 slice
    membership is exactly |w1| < r/2 at every alpha."""
    rng = np.random.default_rng(8)
    r = 0.5
    alphas = [2.0**k for k in range(-8, 9)]
    for _ in range(60):
        w1 = random_point(rng, 1, high=0.95)[0]
        w2 = random_point(rng, 2, low=0.05)
        w = [w1, *w2]
        assert any(rho_alpha(w, q=2, alpha=a, r=r) > 0 for a in alphas)
    for _ in range(60):
        mod = rng.uniform(0.0, 0.95)
        w1 = mod * np.exp(1j * rng.uniform(0, 2 * np.pi))
        w = [complex(w1), 0j, 0j]
        inside = abs(w1) < r / 2
        for a in (0.5, 1.0, 2.0, 7.0):
            assert (rho_alpha(w, q=2, alpha=a, r=r) > 0) == inside


def test_superlevel_sets_stay_inside_the_figure():
    # for large alpha the positivity set pinches into the two-piece figure
    rng = np.random.default_rng(15)
    r, alpha, hits = 0.5, 40.0, 0
    while hits < 50:
        w = random_point(rng, 3, low=0.0, high=0.999)
        if rho_alpha(w, q=2, alpha=alpha, r=r) <= 0:
            continue
        hits += 1
        assert in_hartogs_figure(w, q=2, r=r)
