from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from coverext.cpoly import (
    BivarPoly,
    CPoly,
    discriminant,
    root_bound,
    roots,
    sylvester_matrix,
    sylvester_resultant,
)
from coverext.errors import NumericFailure

from oracles import companion_roots, discriminant_by_roots, resultant_by_roots

finite_c = st.complex_numbers(
    min_magnitude=0,
    max_magnitude=3,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,  # numpy's vectorized divide flushes these to zero
)


def coeff_lists(max_degree=5):
    return st.lists(finite_c, min_size=1, max_size=max_degree + 1)


def match_multisets(xs, ys, tol):
    assert len(xs) == len(ys)
    remaining = list(ys)
    for x in xs:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - x))
        assert abs(remaining[best] - x) <= tol, (x, remaining)
        remaining.pop(best)


def test_trim_and_degree():
    assert CPoly((1 + 0j, 0j, 0j)).coeffs == (1 + 0j,)
    assert CPoly((0j,)).degree == -1
    assert CPoly((0j, 1 + 0j)).degree == 1
    assert CPoly((0j,)).is_zero()


@given(coeff_lists(), coeff_lists(), finite_c)
def test_ring_operations_pointwise(a, b, z):
    p, q = CPoly(tuple(a)), CPoly(tuple(b))
    assert abs((p + q)(z) - (p(z) + q(z))) <= 1e-9 * (1 + abs(p(z)) + abs(q(z)))
    assert abs((p * q)(z) - p(z) * q(z)) <= 1e-6 * (1 + abs(p(z)) * abs(q(z)))
    assert abs((p - q)(z) - (p(z) - q(z))) <= 1e-9 * (1 + abs(p(z)) + abs(q(z)))


@given(coeff_lists(), coeff_lists(), finite_c)
def test_derivative_product_rule(a, b, z):
    p, q = CPoly(tuple(a)), CPoly(tuple(b))
    lhs = (p * q).derivative()(z)
    rhs = p.derivative()(z) * q(z) + p(z) * q.derivative()(z)
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs) + abs(rhs))


def test_monic_and_zero_poly():
    p = CPoly((2 + 0j, 0j, 4 + 0j))
    assert p.monic().coeffs == (0.5 + 0j, 0j, 1 + 0j)
    with pytest.raises(ValueError):
        CPoly((0j,)).monic()
    with pytest.raises(ValueError):
        roots(CPoly((0j,)))


def test_roots_against_companion_matrix():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        cs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        while abs(cs[-1]) < 0.3:
            cs[-1] = rng.normal() + 1j * rng.normal()
        p = CPoly(tuple(complex(c) for c in cs))
        mine = roots(p)
        ref = companion_roots(list(p.coeffs))
        scale = 1.0 + max(abs(r) for r in ref)
        match_multisets(mine, ref, 1e-6 * scale)


def test_roots_with_exact_zeros_and_multiplicity():
    p = CPoly((0j, 0j, 0j, 1 + 0j))  # z^3
    assert roots(p) == (0j, 0j, 0j)
    q = CPoly((0j, 0j, -1 + 0j, 1 + 0j))  # z^2 (z - 1)
    rs = roots(q)
    assert rs[0] == 0j and rs[1] == 0j
    assert abs(rs[2] - 1) < 1e-9
    # planted double root: cluster stays within the usual sqrt(eps) radius
    dbl = CPoly((1 + 0j, -2 + 0j, 1 + 0j)) * CPoly((2 + 0j, 1 + 0j))  # (z-1)^2 (z+2)
    rs = sorted(roots(dbl), key=lambda z: z.real)
    assert abs(rs[0] + 2) < 1e-9
    assert abs(rs[1] - 1) < 1e-6 and abs(rs[2] - 1) < 1e-6


def test_nan_coefficient_fails_the_residual_check():
    with pytest.warns(RuntimeWarning), pytest.raises(NumericFailure, match="residual nan"):
        roots(CPoly((float("nan"), 0.0, 1.0)))


@given(coeff_lists(max_degree=5))
def test_root_bound_contains_all_roots(cs):
    p = CPoly(tuple(cs))
    if p.degree < 1:
        return
    # companion-matrix oracle needs a leading coefficient it can divide by
    assume(abs(p.coeffs[-1]) > 1e-3 * max(abs(c) for c in p.coeffs))
    bound = root_bound(p)
    for r in companion_roots(list(p.coeffs)):
        assert abs(r) <= bound + 1e-9


def test_sylvester_matrix_layout():
    p = CPoly((2 + 0j, 3 + 0j, 1 + 0j))  # z^2 + 3z + 2
    q = CPoly((-1 + 0j, 1 + 0j))  # z - 1
    m = sylvester_matrix(p, q)
    assert m.shape == (3, 3)
    assert m[0].tolist() == [1, 3, 2]
    assert m[1].tolist() == [1, -1, 0]
    assert m[2].tolist() == [0, 1, -1]
    # Res(p, q) = lc(p)^deg q * q-side product = p evaluated structure: q's root is 1
    assert abs(sylvester_resultant(p, q) - p(1)) < 1e-12


def test_resultant_against_root_product():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dp, dq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1)
        q = rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1)
        p[-1] += 2.0
        q[-1] += 2.0
        mine = sylvester_resultant(CPoly(tuple(map(complex, p))), CPoly(tuple(map(complex, q))))
        ref = resultant_by_roots(p, q)
        assert abs(mine - ref) <= 1e-6 * (1 + abs(ref))


def test_resultant_properties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = CPoly(tuple(map(complex, rng.normal(size=4) + 1j * rng.normal(size=4))))
        q1 = CPoly(tuple(map(complex, rng.normal(size=3) + 1j * rng.normal(size=3))))
        q2 = CPoly(tuple(map(complex, rng.normal(size=3) + 1j * rng.normal(size=3))))
        lhs = sylvester_resultant(p, q1 * q2)
        rhs = sylvester_resultant(p, q1) * sylvester_resultant(p, q2)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs) + abs(rhs))
        d, e = p.degree, q1.degree
        swap = sylvester_resultant(q1, p) * (-1) ** (d * e)
        assert abs(sylvester_resultant(p, q1) - swap) <= 1e-8 * (1 + abs(swap))
    shared = CPoly((1 + 0j, 1 + 0j)) * CPoly((2 + 0j, 0j, 1 + 0j))
    other = CPoly((1 + 0j, 1 + 0j)) * CPoly((-3 + 0j, 1 + 0j))
    assert abs(sylvester_resultant(shared, other)) < 1e-9


def test_discriminant_frozen_forms():
    # depressed cubic w^3 + p w + q -> -4 p^3 - 27 q^2
    rng = np.random.default_rng(9)
    for _ in range(50):
        pv = complex(rng.normal(), rng.normal())
        qv = complex(rng.normal(), rng.normal())
        poly = CPoly((qv, pv, 0j, 1 + 0j))
        exact = -4 * pv**3 - 27 * qv**2
        assert abs(discriminant(poly) - exact) <= 1e-9 * max(1.0, abs(exact))
    assert abs(discriminant(CPoly((-1 + 0j, 0j, 1 + 0j))) - 4) < 1e-12
    with pytest.raises(ValueError):
        discriminant(CPoly((3 + 0j,)))


def test_discriminant_against_root_product():
    rng = np.random.default_rng(13)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        cs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        cs[-1] += 2.0
        p = CPoly(tuple(map(complex, cs)))
        ref = discriminant_by_roots(cs)
        assert abs(discriminant(p) - ref) <= 1e-5 * (1 + abs(ref))


def test_discriminant_vanishes_on_double_root():
    p = CPoly((1 + 0j, -2 + 0j, 1 + 0j))  # (z-1)^2
    assert abs(discriminant(p)) < 1e-12


def test_bivar_poly_evaluation_and_slices():
    f = BivarPoly.from_lists([[1.0, 2.0], [0.0, 1.0], [3.0]])
    assert f.w_degree == 2 and f.z_degree == 1
    z, w = 0.5 + 0.25j, -1.0 + 2.0j
    direct = (1 + 2 * z) + (z) * w + 3 * w**2
    assert abs(f(z, w) - direct) < 1e-12
    assert abs(f.at_z(z)(w) - direct) < 1e-12
    dw = f.dw()
    assert abs(dw(z, w) - (z + 6 * w)) < 1e-12
    dz = f.dz()
    assert abs(dz(z, w) - (2 + w)) < 1e-12
    assert BivarPoly.from_lists([[0.0], [0.0]]).w_degree == -1
