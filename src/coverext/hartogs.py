"""Defining functions for Hartogs-type domains and their Levi forms.

Points of C^n split as w = (w1, w2) with w1 the first n-q coordinates and
w2 the last q.  The defining function is

    rho_alpha(w) = -||w1||^2 + r^2/4 + (1 - r^2/4) * ||w2||^(2*alpha)

with Euclidean norms, 0 < r < 1 and alpha > 0.  Its complex Hessian is block
diagonal; the reported Levi matrix is scaled by 2 so the w1 block is exactly
-2 times the identity, and the w2 block has eigenvalues
2*kappa*alpha^2*S^(alpha-1) (radial direction) and 2*kappa*alpha*S^(alpha-1)
with S = ||w2||^2 and kappa = 1 - r^2/4; all positive away from w2 = 0.

Every closed-form Levi matrix is cross-checked against a finite-difference
complex Hessian, evaluated at all 8n^2 + 1 stencil points in one batched call,
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotSmooth, NumericFailure

FD_STEP = 1e-4  # step of the finite-difference Hessian that cross-checks each Levi matrix
FD_REL_TOL = 1e-5  # its allowed deviation, relative to 1 + the largest Levi entry
ZERO_TOL = 1e-8  # eigenvalues this small relative to 1 + the largest count as zero


def _point(w: Sequence[complex], q: int) -> np.ndarray:
    ws = np.asarray(list(w), dtype=complex)
    n = ws.size
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}, n={n}")
    return ws


def _split(w: Sequence[complex], q: int) -> tuple[np.ndarray, np.ndarray]:
    ws = _point(w, q)
    return ws[: ws.size - q], ws[ws.size - q :]


def _validate(alpha: float, r: float) -> None:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")


def _rho_rows(pts: np.ndarray, q: int, alpha: float, r: float) -> np.ndarray:
    """rho_alpha at every row of an (m, n) complex array; arguments unchecked."""
    n1 = pts.shape[1] - q
    kappa = 1.0 - r * r / 4.0
    s = np.sum(np.abs(pts[:, n1:]) ** 2, axis=1)
    return -np.sum(np.abs(pts[:, :n1]) ** 2, axis=1) + r * r / 4.0 + kappa * s**alpha


def rho_alpha(w: Sequence[complex], q: int, alpha: float, r: float) -> float:
    """Evaluate the defining function at a point."""
    _validate(alpha, r)
    return float(_rho_rows(_point(w, q)[None, :], q, alpha, r)[0])


def _fd_complex_hessian(
    f_rows: Callable[[np.ndarray], np.ndarray], w: np.ndarray, h: float
) -> np.ndarray:
    """Complex Hessian d^2 f / dw_j dwbar_k from real central differences.

    ``f_rows`` evaluates f at every row of an (m, n) array.  All 8n^2 + 1
    stencil points -- the centre, w +- h e_u and w +- h e_u +- h e_v for
    u < v over the 2n real coordinates -- go to it in one batched call.
    """
    n = w.size
    m = 2 * n
    # row u steps along real coordinate u: x_0 .. x_{n-1}, then y_0 .. y_{n-1}
    steps = h * np.concatenate([np.eye(n), 1j * np.eye(n)])
    iu, iv = np.triu_indices(m, k=1)
    du, dv = steps[iu], steps[iv]
    vals = f_rows(
        np.concatenate(
            [w[None, :], w + steps, w - steps, w + du + dv, w + du - dv, w - du + dv, w - du - dv]
        )
    )
    centre, plus, minus = vals[0], vals[1 : 1 + m], vals[1 + m : 1 + 2 * m]
    pp, pm, mp, mm = vals[1 + 2 * m :].reshape(4, -1)

    real = np.empty((m, m))
    real[iu, iv] = (pp - pm - mp + mm) / (4.0 * h * h)
    real[iv, iu] = real[iu, iv]
    # plain second difference in one real coordinate
    real[np.diag_indices(m)] = (plus - 2.0 * centre + minus) / (h * h)
    xx, xy, yx, yy = real[:n, :n], real[:n, n:], real[n:, :n], real[n:, n:]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


@dataclass(frozen=True)
class LeviData:
    """Levi matrix (2x complex Hessian), its spectrum, and the signature."""

    matrix: np.ndarray
    eigenvalues: tuple[float, ...]
    signature: tuple[int, int, int]  # (positive, negative, zero)


def levi_matrix(w: Sequence[complex], q: int, alpha: float, r: float) -> np.ndarray:
    """Closed-form Levi matrix of rho_alpha at a point (block diagonal)."""
    _validate(alpha, r)
    w1, w2 = _split(w, q)
    n1 = w1.size
    n = n1 + w2.size
    kappa = 1.0 - r * r / 4.0
    s = float(np.sum(np.abs(w2) ** 2))
    mat = np.zeros((n, n), dtype=complex)
    mat[:n1, :n1] = -2.0 * np.eye(n1)
    if s == 0.0:
        if abs(alpha - round(alpha)) > 0:
            raise NotSmooth(
                f"rho with alpha={alpha} is not twice differentiable where the "
                f"second block vanishes"
            )
        if round(alpha) == 1:
            mat[n1:, n1:] = 2.0 * kappa * np.eye(n - n1)
        # integer alpha >= 2: the block is identically zero at this point
        return mat
    v = np.conj(w2).reshape(-1, 1)
    block = alpha * s ** (alpha - 1) * np.eye(n - n1)
    block = block + alpha * (alpha - 1) * s ** (alpha - 2) * (v @ v.conj().T)
    mat[n1:, n1:] = 2.0 * kappa * block
    return mat


def levi_signature(w: Sequence[complex], q: int, alpha: float, r: float) -> LeviData:
    """Levi matrix, eigenvalues and inertia, cross-checked by differencing.

    The closed form is compared entrywise against a finite-difference complex
    Hessian (scaled by the same factor 2) with step ``FD_STEP``, whose
    8n^2 + 1 stencil points are evaluated in one batched call; disagreement
    beyond ``FD_REL_TOL * (1 + max entry)`` raises :class:`NumericFailure`
    naming the worst entry.
    """
    ws = np.asarray(list(w), dtype=complex)
    mat = levi_matrix(ws, q, alpha, r)

    fd = 2.0 * _fd_complex_hessian(lambda pts: _rho_rows(pts, q, alpha, r), ws, FD_STEP)
    scale = 1.0 + float(np.abs(mat).max())
    dev = np.abs(fd - mat)
    j, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
    err = float(dev[j, k])
    if not err <= FD_REL_TOL * scale:  # a NaN deviation fails too
        raise NumericFailure(
            f"closed-form Levi matrix deviates from finite differences by {err:.3e} "
            f"at entry ({j}, {k}) (allowed {FD_REL_TOL * scale:.3e})"
        )

    eigs = np.linalg.eigvalsh(mat)
    tol = ZERO_TOL * (1.0 + float(np.abs(eigs).max()))
    pos = int(np.sum(eigs > tol))
    neg = int(np.sum(eigs < -tol))
    zero = eigs.size - pos - neg
    return LeviData(mat, tuple(float(e) for e in eigs), (pos, neg, zero))


def in_hartogs_figure(w: Sequence[complex], q: int, r: float) -> bool:
    """Membership in the standard two-piece figure inside the unit polydisk.

    Uses the max of coordinate moduli on each block: inside the open unit
    polydisk, the point lies in the slab (first block inside the small
    polydisk of radius r, second block free) or in the ring (second block
    outside the closed polydisk of radius 1-r).
    """
    _validate(1.0, r)
    w1, w2 = _split(w, q)
    if max(np.abs(np.concatenate([w1, w2]))) >= 1.0:
        return False
    slab = float(np.max(np.abs(w1))) < r
    ring = float(np.max(np.abs(w2))) > 1.0 - r
    return slab or ring
