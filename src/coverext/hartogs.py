"""Defining functions for Hartogs-type domains and their Levi forms.

Points of C^n split as w = (w1, w2) with w1 the first n-q coordinates and
w2 the last q.  The defining function is

    rho_alpha(w) = -||w1||^2 + r^2/4 + (1 - r^2/4) * ||w2||^(2*alpha)

with Euclidean norms, 0 < r < 1 and alpha > 0.  Its complex Hessian is block
diagonal; the reported Levi matrix is scaled by 2 so the w1 block is exactly
-2 times the identity, and the w2 block has eigenvalues
2*kappa*alpha^2*S^(alpha-1) (radial direction) and 2*kappa*alpha*S^(alpha-1)
with S = ||w2||^2 and kappa = 1 - r^2/4; all positive away from w2 = 0.

Levi forms are evaluated a batch of points at a time, in one stacked pass:
the closed-form matrices as one (P, n, n) stack, the exact complex Hessians
that cross-check them from one call of the defining function on a
second-order jet of the P points (value, gradient and Hessian along the 2n
real coordinates), and the spectra from one stacked ``eigvalsh``.  A single
point is a batch of one.  Levi matrices are built only up to ``MAX_DIM``
coordinates.  ``signature_sweep`` runs the seeded signature check of a
``hartogs-check`` scenario: it draws the points, judges them a chunk at a
time, and tallies the signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotSmooth, NumericFailure

LEVI_REL_TOL = 1e-12  # allowed deviation of a Levi matrix from rho's jet, relative to 1 + its largest entry
ZERO_TOL = 1e-8  # eigenvalues this small relative to 1 + the largest count as zero
MAX_DIM = 64  # largest n a Levi matrix is built for; one point's jet check then peaks near 34 MB

# Largest jet array, in complex entries P * (2n)^2 * n, that signature_sweep
# evaluates in one batch of P points (128 KiB); a sweep of any count draws and
# judges its points in chunks of at most this size, and of at least one point.
LEVI_CHUNK_ENTRIES = 1 << 13
# Bounds of a swept point's draws, slot 0 its radii and slot 1 its angles
_SWEEP_LOW = np.array([[0.25], [0.0]])
_SWEEP_HIGH = np.array([[0.7], [2.0 * np.pi]])


def _check_q(n: int, q: int) -> None:
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}, n={n}")


def _check_levi_shape(n: int, q: int) -> None:
    """The split check plus the ``MAX_DIM`` limit on Levi matrices."""
    _check_q(n, q)
    if n > MAX_DIM:
        raise ValueError(f"n={n} exceeds MAX_DIM={MAX_DIM}, the largest dimension of a Levi matrix")


def _point(w: Sequence[complex], q: int) -> np.ndarray:
    ws = np.asarray(list(w), dtype=complex)
    _check_q(ws.size, q)
    return ws


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


def _check_r(r: float) -> None:
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")


def _rho_rows(pts: np.ndarray, q: int, alpha: float, r: float) -> np.ndarray:
    """rho_alpha at every point of a (..., n) complex array or :class:`_Jet`; arguments unchecked."""
    n1 = pts.shape[-1] - q
    kappa = 1.0 - r * r / 4.0
    blocks = np.zeros((pts.shape[-1], 2))
    blocks[:n1, 0] = blocks[n1:, 1] = 1.0
    # both squared block norms in one matrix product, far faster than two short sums
    norms = (pts.real**2 + pts.imag**2) @ blocks
    return -norms[..., 0] + r * r / 4.0 + kappa * norms[..., 1] ** alpha


def rho_alpha(w: Sequence[complex], q: int, alpha: float, r: float) -> float:
    """Evaluate the defining function at a point."""
    _check_alpha(alpha)
    _check_r(r)
    return float(_rho_rows(_point(w, q)[None, :], q, alpha, r)[0])


@dataclass(frozen=True)
class _Jet:
    """Exact second derivatives in forward mode, as hyper-dual numbers carry
    them (Fike & Alonso, AIAA 2011-886): a value with its gradient and
    Hessian along the 2n real coordinates x_0 .. x_{n-1}, y_0 .. y_{n-1}, as
    arrays of shapes S, (2n,) + S and (2n, 2n) + S.  It has the operations
    :func:`_rho_rows` uses: ``+``, unary ``-``, scalar ``*``, ``@`` by a
    constant matrix, indexing of trailing axes, ``.real``, ``.imag`` and
    ``**`` by a scalar; only ``**`` carries a chain rule.
    """

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @classmethod
    def seed(cls, points: np.ndarray) -> _Jet:
        """The coordinates of a (P, n) complex array: x_j moves w_j by 1, y_j by i."""
        count, n = points.shape
        grad = np.zeros((2 * n, count, n), dtype=complex)
        grad[np.arange(2 * n), :, np.arange(2 * n) % n] = np.repeat([1.0, 1j], n)[:, None]
        # a zero Hessian as a broadcast view, which holds no memory
        return cls(points, grad, np.broadcast_to(0j, (2 * n,) + grad.shape))

    shape = property(lambda self: self.val.shape)
    real = property(lambda self: self._map(np.real))
    imag = property(lambda self: self._map(np.imag))

    def _map(self, f: Callable[[np.ndarray], np.ndarray]) -> _Jet:
        return _Jet(f(self.val), f(self.grad), f(self.hess))

    def __add__(self, other: _Jet | float) -> _Jet:
        if isinstance(other, _Jet):
            return _Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return _Jet(self.val + other, self.grad, self.hess)

    def __neg__(self) -> _Jet:
        return self._map(np.negative)

    def __rmul__(self, c: float) -> _Jet:
        return self._map(lambda a: c * a)

    def __matmul__(self, mat: np.ndarray) -> _Jet:
        return self._map(lambda a: a @ mat)

    def __getitem__(self, key: tuple) -> _Jet:  # a key of the trailing axes, such as (..., k)
        return self._map(lambda a: a[key])

    def __pow__(self, a: float) -> _Jet:
        v, g = self.val, self.grad
        d1 = a * v ** (a - 1)
        # (a - 1) scales the power first, so an overflowing a * (a - 1) never meets an
        # underflowed power as inf * 0; a = 1 has no second term, even where v = 0
        d2 = 0.0 if a == 1 else a * ((a - 1) * v ** (a - 2))
        return _Jet(v**a, d1 * g, d1 * self.hess + d2 * (g[:, None] * g[None, :]))


@dataclass(frozen=True)
class LeviData:
    """Levi matrix (2x complex Hessian), its spectrum, and the signature."""

    matrix: np.ndarray
    eigenvalues: tuple[float, ...]
    signature: tuple[int, int, int]  # (positive, negative, zero)


def _levi_matrices(
    points: np.ndarray, q: int, alpha: float, r: float
) -> tuple[np.ndarray, NotSmooth | NumericFailure | None]:
    """Closed-form Levi matrices of the rows of a (P, n) complex array.

    Returns a (P', n, n) stack and None, with P' = P; or, when the row at
    index P' fails, the stack of the rows before it and that row's error,
    which the caller raises once it has judged those rows.  A row fails with
    :class:`NotSmooth` where rho is not twice differentiable, and with
    :class:`NumericFailure` where S^(alpha-1) or S^(alpha-2) overflows a
    float.  Those scalars are Python float powers taken one row at a time;
    the outer products and the sums are stacked.
    """
    _check_alpha(alpha)
    _check_r(r)
    count, n = points.shape
    _check_levi_shape(n, q)
    n1 = n - q
    kappa = 1.0 - r * r / 4.0
    w2 = points[:, n1:]
    radial, cross = np.zeros(count), np.zeros(count)
    flat: list[int] = []  # rows with w2 = 0 at an integer alpha
    failure = None
    for i, s in enumerate(np.sum(np.abs(w2) ** 2, axis=1).tolist()):
        if s == 0.0:
            if abs(alpha - round(alpha)) > 0:
                failure = NotSmooth(
                    f"rho with alpha={alpha} is not twice differentiable where the "
                    f"second block vanishes"
                )
                count = i
                break
            flat.append(i)
        else:
            try:
                radial[i] = alpha * s ** (alpha - 1)
                cross[i] = alpha * (alpha - 1) * s ** (alpha - 2)
            except OverflowError:
                failure = NumericFailure(
                    f"the Levi form with alpha={alpha} overflows a float where ||w2||^2 = {s!r}"
                )
                count = i
                break
    w2, radial, cross = w2[:count], radial[:count, None, None], cross[:count, None, None]
    block = radial * np.eye(q) + cross * (np.conj(w2)[:, :, None] @ w2[:, None, :])
    mats = np.zeros((count, n, n), dtype=complex)
    mats[:, :n1, :n1] = -2.0 * np.eye(n1)
    mats[:, n1:, n1:] = 2.0 * kappa * block
    if flat:  # w2 = 0: alpha = 1 keeps a constant block, an integer alpha >= 2 a zero one
        mats[flat, n1:, n1:] = 2.0 * kappa * np.eye(q) if round(alpha) == 1 else 0.0
    return mats, failure


def levi_matrix(w: Sequence[complex], q: int, alpha: float, r: float) -> np.ndarray:
    """Closed-form Levi matrix of rho_alpha at a point (block diagonal)."""
    mats, failure = _levi_matrices(np.asarray(list(w), dtype=complex)[None, :], q, alpha, r)
    if failure is not None:
        raise failure
    return mats[0]


def _levi_batch(
    points: np.ndarray, q: int, alpha: float, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levi matrices, eigenvalues and inertia of the rows of a (P, n) array:
    a (P, n, n) stack, a (P, n) array of ascending spectra, and a (P, 3)
    array of (positive, negative, zero) counts.

    Each closed-form matrix is compared entrywise against the complex
    Hessian of rho, scaled by the same factor 2, that :func:`_rho_rows`
    gives when evaluated on a :class:`_Jet` seeded at the points: exact
    second derivatives, so only rounding separates the two.  Disagreement
    beyond ``LEVI_REL_TOL * (1 + max entry)`` raises :class:`NumericFailure`
    naming the worst entry.  The first failing row in order decides the
    error; a row's :class:`NotSmooth`, or the :class:`NumericFailure` of a
    closed form that overflows, comes before its jet check.
    """
    mats, failure = _levi_matrices(points, q, alpha, r)
    count, n = len(mats), points.shape[1]
    h = _rho_rows(_Jet.seed(points[:count]), q, alpha, r).hess  # (2n, 2n, P), x before y
    # 2 * 1/4 (H_xx + H_yy + i (H_xy - H_yx)), moved to one (n, n) matrix per point
    jet = 0.5 * np.moveaxis((h[:n, :n] + h[n:, n:]) + 1j * (h[:n, n:] - h[n:, :n]), -1, 0)
    entries = mats.reshape(count, n * n)
    allowed = LEVI_REL_TOL * (1.0 + np.abs(entries).max(axis=1))
    dev = np.abs(jet.reshape(count, n * n) - entries)
    worst = dev.argmax(axis=1)
    err = dev[np.arange(count), worst]
    bad = np.flatnonzero(~(err <= allowed))  # a NaN deviation fails too
    if bad.size:
        i = int(bad[0])
        j, k = divmod(int(worst[i]), n)
        raise NumericFailure(
            f"closed-form Levi matrix deviates from the jet of rho by {err[i]:.3e} "
            f"at entry ({j}, {k}) (allowed {allowed[i]:.3e})"
        )
    if failure is not None:
        raise failure

    eigs = np.linalg.eigvalsh(mats)
    tol = ZERO_TOL * (1.0 + np.abs(eigs).max(axis=1))[:, None]
    pos, neg = (eigs > tol).sum(axis=1), (eigs < -tol).sum(axis=1)
    return mats, eigs, np.stack([pos, neg, n - pos - neg], axis=1)


def levi_signature(w: Sequence[complex], q: int, alpha: float, r: float) -> LeviData:
    """Levi matrix, eigenvalues and inertia at one point, cross-checked
    against the jet of rho: :func:`_levi_batch` on a batch of one."""
    mats, eigs, sigs = _levi_batch(np.asarray(list(w), dtype=complex)[None, :], q, alpha, r)
    return LeviData(mats[0], tuple(eigs[0].tolist()), tuple(sigs[0].tolist()))


def signature_sweep(
    n: int, q: int, alpha: float, r: float, count: int, seed: int
) -> tuple[dict[tuple[int, int, int], int], float]:
    """Levi signatures at ``count`` random points of C^n drawn from ``seed``:
    how often each (positive, negative, zero) signature occurs, and the
    largest |e + 2| over the negative eigenvalues e (0.0 if there are none).

    Each coordinate of a point has modulus uniform in [0.25, 0.7] and
    argument uniform in [0, 2 pi), drawn per point as n radii then n angles.
    The points are judged by :func:`_levi_batch` in chunks of at most
    ``LEVI_CHUNK_ENTRIES`` jet entries; chunks consume the stream in the
    same order as single points, so the chunk size never moves a result.
    """
    _check_levi_shape(n, q)
    rng = np.random.default_rng(seed)
    counts: dict[tuple[int, int, int], int] = {}
    worst = 0.0
    per_point = 4 * n**3  # entries of one point's largest jet array, a (2n, 2n, n) Hessian
    chunk = max(1, LEVI_CHUNK_ENTRIES // per_point)
    for start in range(0, count, chunk):
        draws = rng.uniform(_SWEEP_LOW, _SWEEP_HIGH, size=(min(chunk, count - start), 2, n))
        _, eigs, sigs = _levi_batch(draws[:, 0] * np.exp(1j * draws[:, 1]), q, alpha, r)
        for sig in map(tuple, sigs.tolist()):
            counts[sig] = counts.get(sig, 0) + 1
        negative = eigs[eigs < 0]
        if negative.size:
            worst = max(worst, float(np.abs(negative + 2.0).max()))
    return counts, worst
