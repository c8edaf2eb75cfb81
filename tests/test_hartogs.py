from __future__ import annotations

import numpy as np
import pytest

from coverext.errors import NotSmooth, NumericFailure
from coverext.hartogs import (
    _fd_complex_hessian,
    _rho_rows,
    in_hartogs_figure,
    levi_matrix,
    levi_signature,
    rho_alpha,
)
from oracles import fd_complex_hessian_loop


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
        in_hartogs_figure([0.1, 0.2], q=1, r=0.0)


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


def test_finite_difference_guard_trips_on_coarse_step():
    w = [0.3, 0.2 + 0.1j, 0.4 - 0.2j]
    with pytest.raises(NumericFailure, match=r"deviates .* at entry \(2, 2\) \(allowed"):
        levi_signature(w, q=2, alpha=3.5, r=0.5, fd_step=0.5)


def test_finite_difference_guard_trips_on_a_nan_deviation():
    # alpha = 1e300 overflows the weight: one Levi entry is NaN, and a
    # `dev > tol` test would let it through to a made-up signature
    with pytest.raises(NumericFailure, match=r"by nan at entry \(2, 2\)"):
        levi_signature([0.3, 0.4, 0.2j], q=1, alpha=1e300, r=0.5)


def _check_batched_stencil(w, q, alpha):
    # levi_signature's defaults: fd_step 1e-4, fd_rel_tol 1e-5
    batched = _fd_complex_hessian(lambda pts: _rho_rows(pts, q, alpha, 0.5), w, 1e-4)
    loop = fd_complex_hessian_loop(lambda p: rho_alpha(p, q, alpha, 0.5), w, 1e-4)
    assert float(np.abs(batched - loop).max()) <= 1e-6
    mat = levi_matrix(w, q, alpha, 0.5)
    scale = 1.0 + float(np.abs(mat).max())
    assert float(np.abs(2.0 * batched - mat).max()) <= 1e-5 * scale


def test_batched_stencil_matches_loop_reference_and_closed_form():
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        for q in range(1, n):
            for alpha in (0.3, 1.0, 2.0, 3.5):
                _check_batched_stencil(np.array(random_point(rng, n)), q, alpha)
    # integer alpha where the second block vanishes: the closed form is still defined
    for n, q in ((2, 1), (5, 2), (8, 7)):
        w = np.zeros(n, dtype=complex)
        w[: n - q] = random_point(rng, n - q)
        for alpha in (1.0, 2.0, 3.0):
            _check_batched_stencil(w, q, alpha)


def test_signature_random_parameters():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, n))
        alpha = float(rng.uniform(0.3, 4.0))
        r = float(rng.uniform(0.1, 0.9))
        data = levi_signature(random_point(rng, n), q, alpha, r=r)
        assert data.signature == (q, n - q, 0)


def test_figure_membership_examples():
    r = 0.5
    assert in_hartogs_figure([0, 0, 0], q=2, r=r)
    assert not in_hartogs_figure([0.9, 0.5, 0.5], q=2, r=r)
    assert in_hartogs_figure([0.9, 0.9, 0.2], q=2, r=r)
    assert in_hartogs_figure([0.2, 0.8, 0.8], q=2, r=r)
    assert not in_hartogs_figure([1.2, 0.1, 0.1], q=2, r=r)
    assert not in_hartogs_figure([1.0, 0.0, 0.0], q=2, r=r)


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
