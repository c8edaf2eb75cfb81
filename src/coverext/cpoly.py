"""Complex polynomials: root finding, resultants, discriminants.

Coefficients are stored constant-first.  Root finding is simultaneous
Aberth-Ehrlich iteration followed by a short Newton polish and a residual
acceptance test; clustered roots from a multiple zero are returned as the
cluster (callers that need the multiplicity structure collapse them).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

import numpy as np

from .errors import NumericFailure


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (0j,)


@dataclass(frozen=True)
class CPoly:
    """Univariate polynomial over the complex numbers, constant term first."""

    coeffs: tuple[complex, ...] = (0j,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree == -1

    def __call__(self, z: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + c
        return out

    def derivative(self) -> "CPoly":
        if len(self.coeffs) == 1:
            return CPoly((0j,))
        return CPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __add__(self, other: "CPoly") -> "CPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return CPoly(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "CPoly") -> "CPoly":
        if self.is_zero() or other.is_zero():
            return CPoly((0j,))
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CPoly(tuple(out))

    def scale(self, c: complex) -> "CPoly":
        return CPoly(tuple(c * a for a in self.coeffs))

    def monic(self) -> "CPoly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.coeffs[-1]
        return CPoly(tuple(a / lc for a in self.coeffs))

    def __repr__(self) -> str:
        return f"CPoly({list(self.coeffs)})"


def eval_scale(p: CPoly, z: complex) -> float:
    """Size of the terms of p at z, sum |a_k| max(1, |z|)^k: the scale that
    rounding errors in evaluating p(z) are measured against."""
    return sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(p.coeffs))


def root_bound(p: CPoly) -> float:
    """Radius bounding all roots: max(1, sum |a_k / a_d|)."""
    if p.degree < 1:
        return 1.0
    lc = p.coeffs[-1]
    return max(1.0, sum(abs(c / lc) for c in p.coeffs[:-1]))


def roots(
    p: CPoly,
    residual_tol: float = 1e-9,
    max_iter: int = 400,
) -> tuple[complex, ...]:
    """All roots with multiplicity via Aberth-Ehrlich plus Newton polish.

    Multiple zeros come back as tight clusters (spacing ~eps^(1/m)); each
    returned value must pass ``|p(r)| <= residual_tol * scale`` where scale
    bounds the evaluation magnitude, else :class:`NumericFailure`.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    zero_roots: list[complex] = []
    cs = list(p.monic().coeffs)
    while len(cs) > 1 and cs[0] == 0:
        zero_roots.append(0j)
        cs.pop(0)
    q = CPoly(tuple(cs))
    d = q.degree
    if d < 1:
        out = tuple(zero_roots)
        _check_residuals(p, out, residual_tol)
        return out

    dq = q.derivative()
    radius = 0.8 * root_bound(q)
    zs = [radius * np.exp(2j * pi * (k / d) + 0.4j) for k in range(d)]
    best = np.inf
    stale = 0
    for _ in range(max_iter):
        ws = []
        for j in range(d):
            pv = q(zs[j])
            dpv = dq(zs[j])
            if dpv == 0:
                dpv = 1e-300
            newton = pv / dpv
            s = sum(1.0 / (zs[j] - zs[k]) for k in range(d) if k != j)
            denom = 1.0 - newton * s
            if denom == 0:
                denom = 1e-300
            ws.append(newton / denom)
        zs = [z - w for z, w in zip(zs, ws)]
        step = max(abs(w) for w in ws)
        if step < 1e-14 * (1.0 + max(abs(z) for z in zs)):
            break
        if step < 0.5 * best:
            best = step
            stale = 0
        else:
            stale += 1
            # stop on stagnation only once every iterate is a root to well
            # within the acceptance test; slow clusters may still converge
            if stale >= 12:
                if all(abs(q(z)) <= 1e-3 * residual_tol * eval_scale(q, z) for z in zs):
                    break
                stale = 0

    polished = []
    for z in zs:
        zz, val = z, abs(q(z))
        for _ in range(3):
            dpv = dq(zz)
            if dpv == 0:
                break
            z2 = zz - q(zz) / dpv
            if abs(q(z2)) < val:
                zz, val = z2, abs(q(z2))
            else:
                break
        polished.append(zz)

    out = tuple(zero_roots + polished)
    _check_residuals(p, out, residual_tol)
    return out


def _check_residuals(p: CPoly, rs: Sequence[complex], residual_tol: float) -> None:
    for r in rs:
        scale = eval_scale(p, r)
        if not abs(p(r)) <= residual_tol * scale:  # a NaN residual fails too
            raise NumericFailure(
                f"root candidate {r} has residual {abs(p(r)):.3e} above "
                f"{residual_tol:.1e} * {scale:.3e}"
            )


def sylvester_matrix(p: CPoly, q: CPoly) -> np.ndarray:
    """The (deg p + deg q) square Sylvester matrix, highest coefficients first."""
    d, e = p.degree, q.degree
    if d < 0 or e < 0:
        raise ValueError("Sylvester matrix needs nonzero polynomials")
    n = d + e
    mat = np.zeros((n, n), dtype=complex)
    prow = list(reversed(p.coeffs))
    qrow = list(reversed(q.coeffs))
    for i in range(e):
        mat[i, i : i + d + 1] = prow
    for i in range(d):
        mat[e + i, i : i + e + 1] = qrow
    return mat


def sylvester_resultant(p: CPoly, q: CPoly) -> complex:
    """Resultant via the Sylvester determinant (LU underneath)."""
    d, e = p.degree, q.degree
    if d < 0 or e < 0:
        return 0j
    if d == 0:
        return p.coeffs[0] ** e
    if e == 0:
        return q.coeffs[0] ** d
    return complex(np.linalg.det(sylvester_matrix(p, q)))


def discriminant(p: CPoly) -> complex:
    """Discriminant: (-1)^(d(d-1)/2) Res(p, p') / lc(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(p, p.derivative()) / p.coeffs[-1]


@dataclass(frozen=True)
class BivarPoly:
    """Polynomial in (z, w) stored as w-power slices: sum_k c_k(z) * w^k."""

    w_coeffs: tuple[CPoly, ...]

    def __post_init__(self) -> None:
        cs = list(self.w_coeffs) or [CPoly((0j,))]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "w_coeffs", tuple(cs))

    @staticmethod
    def from_lists(rows: Sequence[Sequence[complex]]) -> "BivarPoly":
        """Build from per-w-power coefficient lists in z (constant-first)."""
        return BivarPoly(tuple(CPoly(tuple(row)) for row in rows))

    @property
    def w_degree(self) -> int:
        if len(self.w_coeffs) == 1 and self.w_coeffs[0].is_zero():
            return -1
        return len(self.w_coeffs) - 1

    @property
    def z_degree(self) -> int:
        return max((c.degree for c in self.w_coeffs), default=-1)

    def at_z(self, z: complex) -> CPoly:
        """Specialize z, leaving a polynomial in w."""
        return CPoly(tuple(c(z) for c in self.w_coeffs))

    def __call__(self, z: complex, w: complex) -> complex:
        out = 0j
        for c in reversed(self.w_coeffs):
            out = out * w + c(z)
        return out

    def dw(self) -> "BivarPoly":
        if len(self.w_coeffs) == 1:
            return BivarPoly((CPoly((0j,)),))
        return BivarPoly(tuple(c.scale(k) for k, c in enumerate(self.w_coeffs) if k > 0))

    def dz(self) -> "BivarPoly":
        return BivarPoly(tuple(c.derivative() for c in self.w_coeffs))
