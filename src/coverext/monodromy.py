"""Numerical monodromy of one-variable polynomial cover slices.

A slice is a monic polynomial ``P(z, w)`` of degree ``b`` in ``w``; its roots
over a base z-value form the fiber.  Branch points are the zeros of the
z-discriminant (computed by interpolating Sylvester determinants).  Each
branch point gets a basepoint lasso, and a boundary loop encircles them all:
a straight approach that takes the minor arc around each disk it crosses, a
counterclockwise circle, and the reversed approach.  Only the approach and
the circle are tracked, and the permutation is read at the circle: lifts of
paths are unique, so the reversed approach carries the fiber at the circle
back to the basepoint fiber sheet for sheet, and tracking it would only
recompute that bijection.  Path nodes are spaced by one local rule, 0.35 x
the distance to the nearest branch point (at least the smallest lasso radius)
over ``refine``.  Fibers are continued along the paths by a
predictor-corrector: a secant through the last two accepted fibers predicts
each sheet, and Newton corrects it, stopping on a step below 1e-13 relative
or on a quadratic contraction whose error estimate is below that (branch
point refinement keeps the first rule alone, as its bits reach the
reports).  A step is accepted only if no sheet moved more than a third of
its own distance to the nearest other sheet of the previous fiber, measured
from that fiber and not from the prediction; otherwise it is bisected, on
an explicit stack, first half before second.  So sheet identities cannot be
exchanged silently (the triangle-inequality argument is in
:func:`track_path`), and the predictor only saves Newton steps and
bisections.  Each sheet answers to its own spacing, so a fast sheet far from
the others does not force the step down to the separation of two slow ones.

Sheet indices always refer to the basepoint fiber sorted by (real, imag).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cpoly import RESIDUAL_TOL, BivarPoly, CPoly, discriminant, eval_scale, root_bound, roots
from .errors import DegenerateCover, NumericFailure
from .perms import Perm, generated_order

Step = Callable[[complex], float]

DEDUP_TOL = 1e-8  # discriminant roots this close merge before clusters are verified
DISC_STRIP_TOL = 1e-9  # z-discriminant coefficients this small next to the largest drop
MAX_DEPTH = 40  # bisection levels of one track_path step before it fails
SEPARATION_TOL = 1e-8  # relative gap below which fiber values do not separate
WEIERSTRASS_STRIP_TOL = 1e-8  # relative size on the circle below which a coefficient drops
CUT_TOL = 1e-6  # radians clockwise of a track_to cut at which a target still lies on it


@dataclass(frozen=True)
class CoverSlice:
    """A degree-b cover of the z-line: the w-roots of a monic P(z, w)."""

    poly: BivarPoly

    def __post_init__(self) -> None:
        lead = self.poly.w_coeffs[-1]
        if self.poly.w_degree < 1:
            raise DegenerateCover("cover needs positive degree in w")
        if lead.degree > 0:
            raise DegenerateCover("leading w-coefficient must not depend on z")
        lc = lead.coeffs[0]
        if lc == 0:
            raise DegenerateCover("leading w-coefficient vanishes")
        if lc != 1:
            object.__setattr__(
                self, "poly", BivarPoly(tuple(c.scale(1 / lc) for c in self.poly.w_coeffs))
            )

    @property
    def degree(self) -> int:
        return self.poly.w_degree

    def fiber(self, z: complex) -> tuple[complex, ...]:
        """The b roots over z, sorted by (real, imag)."""
        rs = roots(self.poly.at_z(z))
        return tuple(sorted(rs, key=lambda w: (w.real, w.imag)))


def _interpolate(zs: Sequence[complex], samples: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Constant-first coefficients of the polynomial of degree < len(zs) that
    takes the value samples[i] at zs[i]; a 2-D ``samples`` gives one column of
    coefficients per column of values."""
    vand = np.vander(np.array(zs, dtype=complex), N=len(zs), increasing=True)
    return np.linalg.solve(vand, np.asarray(samples, dtype=complex))


def z_discriminant(cover: CoverSlice) -> CPoly:
    """Discriminant of the fiber polynomial as a polynomial in z.

    Evaluated through Sylvester determinants at unit-circle sample points and
    interpolated back; coefficients at most ``DISC_STRIP_TOL`` of the largest
    are dropped.  Raises :class:`DegenerateCover` if it vanishes identically.
    """
    p = cover.poly
    # Res(P, dP/dw) bounds the z-degree; dP/dw has w-degree b - 1 and the z-degree of c_1 .. c_b
    b = p.w_degree
    dw_z_degree = max(c.degree for c in p.w_coeffs[1:])
    npts = (b - 1) * max(p.z_degree, 0) + b * max(dw_z_degree, 0) + 1
    zs = [cmath.exp(2j * math.pi * k / npts) for k in range(npts)]
    coeffs = _interpolate(zs, [discriminant(p.at_z(z)) for z in zs])
    top = max(abs(c) for c in coeffs)
    if top == 0:
        raise DegenerateCover("z-discriminant vanishes identically (non-reduced cover)")
    cleaned = tuple(c if abs(c) > DISC_STRIP_TOL * top else 0j for c in coeffs)
    return CPoly(cleaned)


def _newton_terms(coeffs: Sequence[complex]) -> list[tuple[complex, complex]]:
    """The Horner terms (c_k, k c_k) of p and p', from the top degree down to
    k = 1, of the polynomial with constant-first ``coeffs``."""
    return [(coeffs[k], k * coeffs[k]) for k in range(len(coeffs) - 1, 0, -1)]


def _newton_w(coeffs: Sequence[complex], w: complex) -> complex | None:
    """Newton's iteration from w on the polynomial with constant-first
    ``coeffs``, a derivative of the z-discriminant; None unless a step
    shrinks below 1e-13 relative within 60 steps.  One Horner loop evaluates
    p and p' together, each with the operations of its own Horner evaluation.
    Nothing is coerced: ``branch_points`` refines numpy scalars, whose bits
    reach the reports, so this keeps the plain step-size stop and not the
    tracker's contraction stop (:func:`track_path`)."""
    terms, c0 = _newton_terms(coeffs), coeffs[0]
    for _ in range(60):
        p = d = 0j
        for c, kc in terms:
            p = p * w + c
            d = d * w + kc
        p = p * w + c0
        if d == 0:
            return None
        step = p / d
        w = w - step
        if abs(step) < 1e-13 * (1.0 + abs(w)):
            return w
    return None


def _clusters(points: Sequence[complex], tol: float) -> list[list[int]]:
    """Single-linkage clusters of indices at the given merge distance."""
    n = len(points)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def branch_points(cover: CoverSlice) -> tuple[complex, ...]:
    """Distinct branch points of the cover, each located to near machine accuracy.

    A zero of multiplicity m comes out of the root finder as a cluster of
    radius ~eps^(1/m), far wider than any fixed dedup tolerance.  Clusters are
    therefore collapsed only after verification: the centroid must Newton-
    refine on the (m-1)-th derivative, and all lower derivatives must vanish
    there to relative accuracy; otherwise the cluster stays as separate
    points.  The refined representatives replace the raw cluster.
    """
    disc = z_discriminant(cover)
    if disc.degree < 1:
        return ()
    raw = list(roots(disc))

    # Plain dedup first; each merged point remembers how many raw roots it ate,
    # because a multiple zero can stagnate as a tight one-sided clump whose
    # members are closer to each other than to the true root.
    merged: list[complex] = []
    counts: list[int] = []
    for grp in _clusters(raw, DEDUP_TOL):
        merged.append(sum(raw[i] for i in grp) / len(grp))
        counts.append(len(grp))

    tau = 3e-4 * (1.0 + root_bound(disc))
    out: list[complex] = []
    for grp in _clusters(merged, tau):
        m = sum(counts[i] for i in grp)
        if m == 1:
            out.append(merged[grp[0]])
            continue
        centroid = sum(merged[i] * counts[i] for i in grp) / m
        deriv = disc
        for _ in range(m - 1):
            deriv = deriv.derivative()
        refined = _newton_w(deriv.coeffs, centroid)
        ok = refined is not None and abs(refined - centroid) <= 3 * tau
        if ok:
            d = disc
            for _ in range(m):
                if abs(d(refined)) > RESIDUAL_TOL * eval_scale(d, refined):  # type: ignore[arg-type]
                    ok = False
                    break
                d = d.derivative()
        if ok:
            out.append(refined)  # type: ignore[arg-type]
        else:
            out.extend(merged[i] for i in grp)
    return tuple(sorted((complex(z) for z in out), key=lambda z: (z.real, z.imag)))


def _nearest(points: Sequence[complex]) -> list[float]:
    """Each point's distance to the nearest other point (inf when it has
    none), in one pass over the pairs."""
    near = [math.inf] * len(points)
    for i, w in enumerate(points):
        for j in range(i + 1, len(points)):
            gap = abs(w - points[j])
            if gap < near[i]:
                near[i] = gap
            if gap < near[j]:
                near[j] = gap
    return near


def _correct(terms: Sequence[tuple[complex, complex]], c0: complex, w: complex) -> complex | None:
    """The tracker's Newton corrector from w on the polynomial with Horner
    ``terms`` (:func:`_newton_terms`) and constant ``c0``, None unless it
    stops within 30 steps.  It stops after a step s_k when s_k < tol =
    1e-13 (1 + |w|), as :func:`_newton_w` does, or when the steps contract
    quadratically: s_k < s_{k-1} / 4 and (s_k / s_{k-1})^2 s_k < tol, the
    quadratic estimate of the error left after s_k (s_k^3 < tol s_{k-1}^2,
    written so that no cube or square can overflow).  Under linear
    convergence (a double root) the ratio stays near 1/2 and only the first
    rule can stop it."""
    prev = 0.0
    for _ in range(30):
        p = d = 0j
        for c, kc in terms:
            p = p * w + c
            d = d * w + kc
        p = p * w + c0
        if d == 0:
            return None
        step = p / d
        w = w - step
        size = abs(step)
        tol = 1e-13 * (1.0 + abs(w))
        if size < tol or (size < prev / 4 and size * (size / prev) ** 2 < tol):
            return w
        prev = size
    return None


def track_path(
    cover: CoverSlice,
    nodes: Sequence[complex],
    start_fiber: Sequence[complex],
) -> tuple[complex, ...]:
    """Continue the fiber along a polyline, keeping sheet order.

    Each step Newton-corrects every sheet at the new z and is accepted only
    when every correction converged and each sheet i moved less than r_i / 3,
    where r_i is its distance to the nearest other sheet of the previous
    fiber; otherwise the step is bisected (up to ``MAX_DEPTH`` levels, then
    :class:`NumericFailure`): a stack of (target z, depth) pairs takes back
    the target and, on top, the midpoint, so the first half goes first.  An
    accepted step exchanges no sheets: r_i and r_j are both at most
    |w_i - w_j|, so by the triangle inequality the corrected sheets stay
    more than |w_i - w_j| / 3 apart, and the new w_i lies within r_i / 3 of
    w_i but at least 2 r_i / 3 from every other w_j.  A fast, isolated sheet
    is thus held to its own spacing, not to that of two slow ones elsewhere
    in the fiber.

    Newton starts from a secant prediction: with v the fiber accepted at
    z_back just before the current fiber w at z_from, sheet i starts at
    w_i + (w_i - v_i) (z_to - z_from) / (z_from - z_back).  The first step,
    a step after a zero-length one (z_from == z_back), and a prediction that
    is not finite or lies r_i / 3 or more from w_i start at w_i.  Where
    Newton starts changes only how fast it converges: the acceptance test
    still measures the move from w_i, so the argument above is unchanged.

    Newton (:func:`_correct`) stops after a step s_k when s_k < tol =
    1e-13 (1 + |w|), or when s_k < s_{k-1} / 4 and s_k^3 < tol s_{k-1}^2:
    under quadratic convergence the error left after s_k is about
    (s_k / s_{k-1}^2) s_k^2, so the step that would only confirm it is
    skipped.  At a double root convergence is linear, the ratio stays near
    1/2, and a path through a branch point still fails at ``MAX_DEPTH``.
    :func:`_newton_w` keeps the first rule alone, because the branch points
    it refines reach the reports bit for bit; the tracked fibers reach none.

    The corrector works on Python complex values: the w-coefficients at z
    are evaluated by Horner inline, they and their Newton terms once per
    step, and the limits r_i / 3 are recomputed only when a step is
    accepted.
    """
    rows = [row.coeffs[::-1] for row in cover.poly.w_coeffs]  # top degree first, for Horner
    fiber = [complex(w) for w in start_fiber]
    reach = [r / 3 for r in _nearest(fiber)]
    back: tuple[complex, list[complex]] | None = None  # the fiber accepted before ``fiber``
    z_from = nodes[0] if len(nodes) else 0j  # where ``fiber`` lies
    stack = [(z, 0) for z in nodes[:0:-1]]  # (target, bisection depth), next on top
    while stack:
        z_to, depth = stack.pop()
        coeffs = []
        for row in rows:
            v = 0j
            for c in row:
                v = v * z_to + c
            coeffs.append(v)
        terms, c0 = _newton_terms(coeffs), coeffs[0]
        if back is None or back[0] == z_from:
            guesses = fiber
        else:
            t = (z_to - z_from) / (z_from - back[0])
            guesses = [w + (w - v) * t for w, v in zip(fiber, back[1])]
        corrected: list[complex] = []
        for w, guess, limit in zip(fiber, guesses, reach):
            w2 = _correct(terms, c0, guess if abs(guess - w) < limit else w)
            if w2 is None or abs(w2 - w) >= limit:
                break
            corrected.append(w2)
        else:
            back = (z_from, fiber)
            z_from, fiber = z_to, corrected
            reach = [r / 3 for r in _nearest(fiber)]
            continue
        if depth >= MAX_DEPTH:
            raise NumericFailure(
                f"sheet tracking failed to converge near z = {z_to} "
                f"(bisection depth {depth})"
            )
        stack.append((z_to, depth + 1))
        stack.append(((z_from + z_to) / 2, depth + 1))
    return tuple(fiber)


def _step_rule(branch: Sequence[complex], radii: Sequence[float], refine: int) -> Step:
    """Node spacing at z: 0.35 x the distance from z to the nearest branch
    point (the radius of the disc where the sheets are analytic), never less
    than 0.35 x the smallest lasso radius, divided by ``refine``."""
    floor = min(radii, default=math.inf)

    def step(z: complex) -> float:
        near = math.inf
        for c in branch:
            gap = abs(z - c)
            if gap < near:
                near = gap
        return 0.35 * max(floor, near) / refine

    return step


def _nodes(point: Callable[[float], complex], length: float, step: Step) -> list[complex]:
    """Nodes ``point(t)`` for t in (0, 1] along a path of the given arc length,
    each placed ``step(z)`` past the previous node z; the last is ``point(1)``."""
    out: list[complex] = []
    s = 0.0
    z = point(0.0)
    while s < length:
        s = min(length, s + step(z))
        z = point(s / length)
        out.append(z)
    return out


def _route_segment(
    a: complex,
    b: complex,
    obstacles: Sequence[tuple[complex, float]],
    step: Step,
) -> list[complex]:
    """Nodes from a to b along the segment, arcing over intervening disks.

    Both endpoints must lie outside every obstacle disk.  Where the segment
    crosses a disk, the chord is replaced by the minor arc, the one on the
    chord's side of the centre (counterclockwise on a tie); nodes follow ``step``.
    """
    d = b - a
    ll = abs(d) ** 2
    events: list[tuple[float, float, complex, float]] = []
    for c, r in obstacles:
        ac = a - c
        bq = 2 * (d.conjugate() * ac).real
        cq = abs(ac) ** 2 - r * r
        disc = bq * bq - 4 * ll * cq
        if disc <= 0:
            continue
        sq = math.sqrt(disc)
        t1 = (-bq - sq) / (2 * ll)
        t2 = (-bq + sq) / (2 * ll)
        if t2 <= 0 or t1 >= 1:
            continue
        events.append((t1, t2, c, r))
    events.sort(key=lambda e: e[0])
    nodes = [a]
    cur = a
    for t1, t2, c, r in events:
        p1 = a + t1 * d
        p2 = a + t2 * d
        th1 = cmath.phase(p1 - c)
        th2 = cmath.phase(p2 - c)
        sweep_ccw = (th2 - th1) % (2 * math.pi)
        sweep_cw = sweep_ccw - 2 * math.pi
        sweep = sweep_ccw if abs(sweep_ccw) <= abs(sweep_cw) else sweep_cw
        nodes += _nodes(lambda t: cur + (p1 - cur) * t, abs(p1 - cur), step)
        nodes += _arc(c, r, th1, sweep, step)
        cur = p2
    nodes += _nodes(lambda t: cur + (b - cur) * t, abs(b - cur), step)
    return nodes


def _arc(center: complex, radius: float, th: float, sweep: float, step: Step) -> list[complex]:
    """Nodes along the circle |z - center| = radius from angle ``th`` through
    ``sweep`` radians (counterclockwise when positive)."""
    return _nodes(lambda t: center + radius * cmath.exp(1j * (th + sweep * t)), abs(sweep) * radius, step)


def _approach(
    basepoint: complex,
    center: complex,
    radius: float,
    obstacles: Sequence[tuple[complex, float]],
    step: Step,
) -> tuple[list[complex], float]:
    """Nodes from the basepoint to the entry point, the point of the circle
    |z - center| = radius nearest the basepoint, routed around the obstacle
    disks; and the entry point's angle about the centre."""
    toward = basepoint - center
    entry = center + radius * (toward / abs(toward) if toward else 1.0)
    return _route_segment(basepoint, entry, obstacles, step), cmath.phase(entry - center)


def _loops(
    basepoint: complex,
    branch: Sequence[complex],
    radii: Sequence[float],
    refine: int,
) -> list[tuple[list[complex], list[complex]]]:
    """The (approach, turn) node lists of the lasso around each branch point,
    in the given order, and last of the boundary loop: a circle about the
    branch points' mean that encloses every lasso disk and the basepoint.

    The approach runs from the basepoint to the circle's entry point; the
    turn starts there and goes once round counterclockwise.  The loop's
    third leg, the approach reversed, is left out: continuing along it only
    undoes the approach (see :func:`full_monodromy`).
    """
    step = _step_rule(branch, radii, refine)
    disks = list(zip(branch, radii))
    m = sum(branch) / len(branch)
    spread = max(abs(c - m) for c in branch)
    rr = max(abs(c - m) + 2.5 * r for c, r in disks)
    rr = max(rr, abs(basepoint - m)) + 0.1 * (1.0 + spread)
    loops = [(c, r, disks[:k] + disks[k + 1:]) for k, (c, r) in enumerate(disks)] + [(m, rr, disks)]
    out = []
    for c, r, obs in loops:
        approach, th = _approach(basepoint, c, r, obs, step)
        out.append((approach, [approach[-1]] + _arc(c, r, th, 2 * math.pi, step)))
    return out


def lasso_radii(branch: Sequence[complex], basepoint: complex) -> tuple[float, ...]:
    """Safe circle radius per branch point: 0.4 x distance to nearest other
    branch point and to the basepoint, so disks stay pairwise disjoint and
    never contain the basepoint."""
    out = []
    for k, c in enumerate(branch):
        others = [abs(c - branch[j]) for j in range(len(branch)) if j != k]
        out.append(float(0.4 * min(others + [abs(basepoint - c)])))
    return tuple(out)


def auto_basepoint(branch: Sequence[complex]) -> complex:
    """Real basepoint to the right of every branch point."""
    maxmod = max((abs(c) for c in branch), default=0.0)
    return complex(maxmod + 1.5, 0.0)


def _match_perm(fiber0: Sequence[complex], end: Sequence[complex]) -> Perm:
    """Permutation sending each start sheet to the sheet its endpoint equals."""
    tol = min(_nearest(fiber0)) / 3
    images = []
    for w in end:
        dists = [abs(w - f) for f in fiber0]
        j = dists.index(min(dists))
        if dists[j] > tol:
            raise NumericFailure(
                f"tracked sheet ended at {w}, not within {tol:.3e} of any start sheet"
            )
        images.append(j)
    if sorted(images) != list(range(len(fiber0))):
        raise NumericFailure("tracked fiber endpoints do not permute the start fiber")
    return Perm(tuple(images))


@dataclass(frozen=True)
class MonodromyResult:
    """Lasso permutations of a cover slice around each branch point."""

    basepoint: complex
    fiber: tuple[complex, ...]
    branch: tuple[complex, ...]
    radii: tuple[float, ...]
    perms: tuple[Perm, ...]
    boundary_perm: Perm
    product_perm: Perm
    product_matches_boundary: bool

    def perm_around(self, center: complex) -> Perm:
        """Lasso permutation for the branch point nearest ``center``."""
        if not self.branch:
            raise ValueError("cover has no branch points")
        dists = [abs(c - center) for c in self.branch]
        k = dists.index(min(dists))
        if dists[k] > 1e-6 * (1.0 + abs(center)):
            raise ValueError(f"no branch point near {center}")
        return self.perms[k]

    def closure_order(self) -> int:
        """Order of the permutation group the lassos generate (1 when unbranched)."""
        return generated_order(list(self.perms)) if self.perms else 1


def _start(
    cover: CoverSlice, basepoint: complex | None, refine: int
) -> tuple[tuple[complex, ...], complex, tuple[complex, ...]]:
    """What every path from a basepoint needs first: the branch points, the
    basepoint (``auto_basepoint`` when none is given) and its fiber.  Rejects
    ``refine < 1``, a basepoint within 1e-9 of a branch point and a fiber
    that is not simple."""
    if refine < 1:
        raise ValueError("refine must be >= 1")
    branch = branch_points(cover)
    if basepoint is None:
        basepoint = auto_basepoint(branch)
    for c in branch:
        if abs(basepoint - c) < 1e-9:
            raise ValueError("basepoint coincides with a branch point")
    fiber0 = cover.fiber(basepoint)
    if min(_nearest(fiber0)) == 0:
        raise NumericFailure("fiber at basepoint is not simple")
    return branch, basepoint, fiber0


def full_monodromy(
    cover: CoverSlice,
    basepoint: complex | None = None,
    refine: int = 1,
) -> MonodromyResult:
    """Track every basepoint lasso and the outer boundary loop.

    Lassos are ordered by ascending argument of (branch point - basepoint),
    measured in [0, 2pi) so the cut lies on the basepoint's outward ray and
    quantized at a microradian so roundoff cannot flip the order; farther
    point first on (quantized) ties.  With that order their left-to-right
    product is compared against the boundary loop.  A cycle-type mismatch between the
    two is a tracking failure and raises; an orientation-level mismatch is
    recorded in ``product_matches_boundary``.  A :class:`NumericFailure` in
    tracking a loop or matching its end fiber names the loop: ``lasso k``
    (k indexes ``perms``) with its branch point, or ``boundary loop``.

    Each loop's approach is tracked once, from the basepoint fiber to the
    entry fiber on the circle, and its turn from there.  The return leg is
    not tracked: the lift of the reversed approach is the approach's lift
    run backwards (unique path lifting), so it takes entry sheet j home to
    basepoint sheet j, as ``track_path`` keeps sheet order.  Sheet i ending
    the turn at entry sheet j therefore ends the whole loop at basepoint
    sheet j, and the loop's permutation is the turn's end fiber matched
    against the entry fiber.
    """
    branch, basepoint, fiber0 = _start(cover, basepoint, refine)
    if not branch:
        ident = Perm.identity(cover.degree)
        return MonodromyResult(
            basepoint, fiber0, (), (), (), ident, ident, True
        )

    order = sorted(
        range(len(branch)),
        key=lambda k: (
            round((cmath.phase(branch[k] - basepoint) % (2 * math.pi)) * 1e6),
            -abs(branch[k] - basepoint),
            branch[k].real,
            branch[k].imag,
        ),
    )
    branch_ord = tuple(branch[k] for k in order)
    radii = lasso_radii(branch_ord, basepoint)
    ends: list[Perm] = []
    for k, (approach, turn) in enumerate(_loops(basepoint, branch_ord, radii, refine)):
        try:
            entry = track_path(cover, approach, fiber0)
            ends.append(_match_perm(entry, track_path(cover, turn, entry)))
        except NumericFailure as exc:
            loop = f"lasso {k} around z = {branch_ord[k]}" if k < len(branch_ord) else "boundary loop"
            raise NumericFailure(f"{loop}: {exc}") from exc
    *perms, boundary = ends

    product = Perm.identity(cover.degree)
    for p in perms:
        product = product * p
    if product.cycle_type() != boundary.cycle_type():
        raise NumericFailure(
            f"lasso product {product} is not conjugate to the boundary loop {boundary}; "
            f"tracking is inconsistent"
        )
    return MonodromyResult(
        basepoint,
        fiber0,
        branch_ord,
        radii,
        tuple(perms),
        boundary,
        product,
        product == boundary,
    )


def track_to(
    cover: CoverSlice,
    target: complex,
    basepoint: complex | None = None,
    refine: int = 1,
) -> tuple[tuple[complex, ...], tuple[complex, ...], complex]:
    """Continue the basepoint fiber to a target z.

    A target outside every lasso disk is reached along the segment from the
    basepoint, arcing over the disks it crosses.  A target inside the disk
    of a branch point is reached as that point's lasso reaches its circle:
    the lasso's approach to the entry point, the counterclockwise arc to the
    target's angle, then the radius in to the target.  The continued fiber
    is therefore continuous in the target except across the cut, the radius
    from the branch point to the entry point.  A target on the cut, or less
    than ``CUT_TOL`` clockwise of it, takes no arc, so roundoff in the branch
    point cannot move it across; farther clockwise the arc is almost a full
    turn, and the fiber is the one counterclockwise of the cut permuted by
    the lasso.  A target within 1e-9 of a branch point raises ``ValueError``.

    Returns (basepoint fiber, continued fiber aligned to it, basepoint used).
    """
    branch, basepoint, fiber0 = _start(cover, basepoint, refine)
    if any(abs(target - c) < 1e-9 for c in branch):
        raise ValueError("target coincides with a branch point")
    disks = list(zip(branch, lasso_radii(branch, basepoint)))
    step = _step_rule(branch, [r for _, r in disks], refine)
    k = next((k for k, (c, r) in enumerate(disks) if abs(target - c) <= r), None)
    if k is None:
        nodes = _route_segment(basepoint, target, disks, step)
    else:
        c, r = disks[k]
        nodes, th = _approach(basepoint, c, r, disks[:k] + disks[k + 1:], step)
        sweep = (cmath.phase(target - c) - th) % (2 * math.pi)
        nodes += _arc(c, r, th, 0.0 if sweep > 2 * math.pi - CUT_TOL else sweep, step)
        end = nodes[-1]
        nodes += _nodes(lambda t: end + (target - end) * t, abs(target - end), step)
    return fiber0, track_path(cover, nodes, fiber0), basepoint


def separates_fiber(cover: CoverSlice, func: BivarPoly, z: complex) -> bool:
    """Whether the function takes distinct values on the fiber over z."""
    vals = [func(z, w) for w in cover.fiber(z)]
    scale = 1.0 + max(abs(v) for v in vals)
    return bool(min(_nearest(vals)) > SEPARATION_TOL * scale)


def weierstrass_poly_of_function(
    cover: CoverSlice,
    func: BivarPoly,
    *,
    branch: Sequence[complex] | None = None,
) -> BivarPoly:
    """Monic polynomial (in a new variable) whose roots over z are the values
    of ``func`` on the fiber: the product of (zeta - func(z, w_i(z))).

    The coefficients are symmetric in the sheets, hence single-valued
    polynomials in z; they are recovered by sampling on the circle of radius
    R = 1.37 (1 + max |c|) over the branch points c, clear of every one as
    R - |c| >= 0.37 max |c| + 1.37 > 1e-3 R, and interpolating.  A z^k
    coefficient c is dropped when its size on that circle, |c| R^k, is at most
    ``WEIERSTRASS_STRIP_TOL`` times the largest coefficient (or 1).  ``branch``
    passes the cover's branch points when the caller already has them, in any
    order (the radius depends only on the set); by default they are computed
    here.
    """
    b = cover.degree
    max_c_deg = max(max(c.degree for c in cover.poly.w_coeffs), 1)
    bound = b * (max(func.z_degree, 0) + max(func.w_degree, 0) * max_c_deg)
    npts = bound + 1

    if branch is None:
        branch = branch_points(cover)
    radius = 1.37 * (1.0 + max((abs(c) for c in branch), default=0.0))
    zs = [radius * cmath.exp(2j * math.pi * (k + 0.3) / npts) for k in range(npts)]

    samples = np.zeros((npts, b + 1), dtype=complex)
    for i, z in enumerate(zs):
        vals = [func(z, w) for w in cover.fiber(z)]
        prod = CPoly((1,))
        for v in vals:
            prod = prod * CPoly((-v, 1))
        cs = list(prod.coeffs) + [0j] * (b + 1 - len(prod.coeffs))
        samples[i, :] = cs
    coeff_cols = _interpolate(zs, samples)

    top = max(np.abs(coeff_cols).max(), 1.0)
    rows = []
    for j in range(b + 1):
        col = [
            c if abs(c) * radius**k > WEIERSTRASS_STRIP_TOL * top else 0j
            for k, c in enumerate(coeff_cols[:, j])
        ]
        rows.append(col)
    rows[b] = [1.0 + 0j]
    return BivarPoly.from_lists(rows)
