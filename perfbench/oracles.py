"""Independent reference computations for the benchmark's output checks.

Nothing here calls coverext: permutations are raw image tuples, words are
lists of ``(generator, +1 | -1)`` letters, and polynomials are numpy
coefficient arrays.  Each function answers the question one op class asks,
by a different route from the code under test.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

Images = tuple[int, ...]
Letters = Sequence[tuple[str, int]]


def orbit_size(gens: Iterable[Images], start: int = 0) -> int:
    """Size of the orbit of ``start`` under the group the image tuples generate."""
    gens = list(gens)
    inverses = [_inverse(g) for g in gens]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens + inverses:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _inverse(g: Images) -> Images:
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def closure_size(gens: Sequence[Images], degree: int) -> int:
    """Order of the permutation group generated by raw image tuples (BFS)."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = tuple(h[y] for y in g)  # g acts first, then h
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return len(seen)


def cyclic_extension_degree(images: Mapping[str, Images], exponents: Mapping[str, int], m: int) -> int:
    """Extended sheet count of a cover pushed into ``<gamma | gamma^m>``.

    Breadth-first search over (sheet, residue) pairs, where generator ``a``
    moves ``(s, r)`` to ``(a(s), r + e_a mod m)``.  The residues reachable at
    sheet 0 from ``(0, 0)`` form the image of the stabilizer in Z/m, so the
    extended cover has ``m / |image|`` sheets.
    """
    steps = [(img, exponents[name] % m) for name, img in images.items()]
    steps += [(_inverse(img), (-exponents[name]) % m) for name, img in images.items()]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for s, r in frontier:
            for img, e in steps:
                node = (img[s], (r + e) % m)
                if node not in seen:
                    seen.add(node)
                    nxt.append(node)
        frontier = nxt
    residues_at_base = sum(1 for s, _ in seen if s == 0)
    return m // residues_at_base


def transposition_images(n: int, i: int) -> Images:
    """Raw image tuple of the Coxeter generator s_i = (i-1 i) of S_n."""
    img = list(range(n))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def chase(images: Mapping[str, Images], letters: Letters, x: int) -> int:
    """Follow one point through a word, letter by letter (left acts first)."""
    for name, step in letters:
        row = images[name]
        x = row[x] if step > 0 else row.index(x)
    return x


def relators_hold(images: Mapping[str, Images], relators: Sequence[Letters], degree: int) -> bool:
    return all(chase(images, r, x) == x for r in relators for x in range(degree))


def braid_relators(m: int) -> list[list[tuple[str, int]]]:
    """Braid relators of the m-strand group as letter lists."""
    out = []
    for i in range(1, m - 1):
        a, b = f"s{i}", f"s{i + 1}"
        out.append([(a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1)])
    for i in range(1, m - 1):
        for j in range(i + 2, m):
            a, b = f"s{i}", f"s{j}"
            out.append([(a, 1), (b, 1), (a, -1), (b, -1)])
    return out


def braid_homs(m: int, degree: int, pinned: Mapping[str, Images]) -> set[tuple[Images, ...]]:
    """All tuples (images of s1..s{m-1}) satisfying the braid relators, by brute force."""
    names = [f"s{i}" for i in range(1, m)]
    relators = braid_relators(m)
    sym = list(itertools.permutations(range(degree)))
    choices = [[pinned[n]] if n in pinned else sym for n in names]
    out = set()
    for combo in itertools.product(*choices):
        if relators_hold(dict(zip(names, combo)), relators, degree):
            out.add(tuple(combo))
    return out


def minimal_braid_extension(rho0: Mapping[str, Images], b0: int, m_big: int, below: int) -> bool:
    """Whether some degree in ``[b0, below)`` carries an extension of ``rho0``.

    Same definition as the code under test, searched by brute force: shared
    generators act as ``rho0`` on the first ``b0`` sheets and permute the
    rest; new generators are arbitrary; all braid relators hold pointwise
    and the action is transitive.
    """
    names = [f"s{i}" for i in range(1, m_big)]
    relators = braid_relators(m_big)
    for degree in range(b0, below):
        rest = list(itertools.permutations(range(b0, degree)))
        choices = []
        for n in names:
            if n in rho0:
                choices.append([tuple(rho0[n]) + tail for tail in rest])
            else:
                choices.append(list(itertools.permutations(range(degree))))
        for combo in itertools.product(*choices):
            imgs = dict(zip(names, combo))
            if relators_hold(imgs, relators, degree) and orbit_size(combo) == degree:
                return True
    return False


def slice_discriminant_roots(w_coeffs: Sequence[Sequence[complex]]) -> np.ndarray:
    """Distinct zeros of the w-discriminant of a monic slice, as a polynomial in z.

    ``w_coeffs[k]`` lists the z-coefficients (constant first) of the
    coefficient of ``w^k``.  The discriminant is sampled as the product of
    squared root differences of ``numpy.roots`` on the unit circle,
    interpolated, trimmed of a vanishing leading term and solved with
    ``numpy.roots``; zeros closer than 1e-6 relative are merged.
    """
    d = len(w_coeffs) - 1
    zdeg = max(len(c) for c in w_coeffs) - 1
    npts = (2 * d - 1) * max(zdeg, 1) + 1
    zs = np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = []
    for z in zs:
        ws = np.roots([np.polyval(list(reversed(c)), z) for c in reversed(w_coeffs)])
        prod = 1.0 + 0j
        for i in range(d):
            for j in range(i + 1, d):
                prod *= (ws[i] - ws[j]) ** 2
        vals.append(prod)
    coeffs = np.fft.fft(np.array(vals)) / npts  # samples on roots of unity
    top = np.abs(coeffs).max()
    hi = npts - 1
    while hi > 0 and abs(coeffs[hi]) <= 1e-9 * top:
        hi -= 1
    zeros = np.roots(coeffs[: hi + 1][::-1])
    distinct: list[complex] = []
    for z in zeros:
        if all(abs(z - u) > 1e-6 * (1.0 + abs(u)) for u in distinct):
            distinct.append(complex(z))
    return np.array(distinct)


def fiber(w_coeffs: Sequence[Sequence[complex]], z: complex) -> np.ndarray:
    return np.roots([np.polyval(list(reversed(c)), z) for c in reversed(w_coeffs)])


def bivar_eval(w_coeffs: Sequence[Sequence[complex]], z: complex, w: complex) -> complex:
    return complex(sum(np.polyval(list(reversed(c)), z) * w**k for k, c in enumerate(w_coeffs)))


def symmetric_maxima(w_coeffs: Sequence[Sequence[complex]], f_coeffs: Sequence[Sequence[complex]],
                     radius: float, points: int = 64) -> np.ndarray:
    """``M[k]``: the largest ``|e_k|`` on the circle ``|z| = radius``, where
    ``e_k(z)`` is the coefficient of ``zeta^k`` in ``prod_i (zeta - f(z, w_i(z)))``
    (``numpy.poly`` of the fibre values)."""
    best = np.zeros(len(w_coeffs))
    for t in range(points):
        z = on_circle(radius, (t + 0.5) / points)
        vals = [bivar_eval(f_coeffs, z, w) for w in fiber(w_coeffs, z)]
        best = np.maximum(best, np.abs(np.poly(vals)[::-1]))
    return best


def interpolation_tolerance(maxima: Sequence[float], rel_radius: float, npts: int, zeta: complex,
                            safety: float = 100.0) -> float:
    """Rounding bound for a polynomial in ``(z, zeta)`` whose z-coefficients
    were interpolated from ``npts`` samples on a circle.

    Interpolating column ``k`` from samples no larger than ``maxima[k]`` puts
    an error of about ``eps * maxima[k] / R^j`` on its ``z^j`` coefficient, so
    at ``|z| = rel_radius * R`` the column is off by ``eps * maxima[k] *
    sum_j rel_radius^j``.  Ordinary rounding stays within a few of these
    units; dropping a coefficient that matters on the circle does not.
    """
    eps = float(np.finfo(float).eps)
    geometric = sum(rel_radius**j for j in range(npts))
    return safety * eps * geometric * float(sum(m * abs(zeta) ** k for k, m in enumerate(maxima)))


def min_separation(values: Sequence[complex]) -> float:
    if len(values) < 2:
        return math.inf
    return min(abs(a - b) for a, b in itertools.combinations(values, 2))


def on_circle(radius: float, turn: float) -> complex:
    return radius * cmath.exp(2j * math.pi * turn)
