"""Shared numerical kernels: stencils, cumulative quadrature, extrapolation.

Every grid in the package is uniform, so the workhorses below use fixed
5-point stencils whose weights are derived once, exactly, from Lagrange
interpolation: first and second derivatives are 4th-order accurate and the
cumulative integral integrates quartics exactly (5th-order composite).
Edge nodes use shifted one-sided stencils of the same width.  The
stencils run as whole-array kernels: every interior node is one row of a
``sliding_window_view(y, 5) @ weights`` product, and only the two edge
nodes at each end take their own one-sided weights.

``adaptive_integral`` is a plain adaptive Simpson rule used where the
integrand is a callable rather than a sampled array (trajectory panels,
radial moments); panels are bisected until the Richardson error estimate
drops below the tolerance.  ``adaptive_panels`` integrates every panel of
a partition at once with the same rule: the first bisection level runs on
arrays (five integrand calls in all), and only the panels whose first
error estimate misses the tolerance are handed to ``adaptive_integral``.
The arithmetic is identical, so each panel's value is bitwise equal to
``adaptive_integral`` on that panel.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _lagrange_poly(offsets, j):
    """Coefficients (ascending) of the j-th Lagrange basis on the offsets."""
    coeffs = [Fraction(1)]
    denom = Fraction(1)
    for m, t in enumerate(offsets):
        if m == j:
            continue
        # multiply polynomial by (t_var - t)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k] -= c * t
            new[k + 1] += c
        coeffs = new
        denom *= offsets[j] - t
    return [c / denom for c in coeffs]


def _integral_weights(offsets, lo, hi):
    """Exact weights so that Σ w_j f(t_j) = ∫_lo^hi interpolant dt."""
    weights = []
    for j in range(len(offsets)):
        coeffs = _lagrange_poly(offsets, j)
        total = Fraction(0)
        for k, c in enumerate(coeffs):
            total += c * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)
        weights.append(total)
    return weights


def _derivative_weights(offsets, at, order):
    """Exact weights so that Σ w_j f(t_j) = d^order interpolant /dt^order at ``at``."""
    weights = []
    for j in range(len(offsets)):
        coeffs = _lagrange_poly(offsets, j)
        total = Fraction(0)
        for k in range(order, len(coeffs)):
            fall = Fraction(1)
            for i in range(order):
                fall *= k - i
            total += coeffs[k] * fall * (Fraction(at) ** (k - order) if k > order
                                         else 1)
        weights.append(total)
    return weights


# interval [i, i+1] integrated on the stencil anchored s points left of i
_CUM_WEIGHTS = {
    s: np.array([float(w) for w in
                 _integral_weights(tuple(range(-s, 5 - s)), 0, 1)])
    for s in range(0, 4)
}

_D1_WEIGHTS = {
    c: np.array([float(w) for w in
                 _derivative_weights(tuple(range(-c, 5 - c)), 0, 1)])
    for c in range(0, 5)
}

_D2_WEIGHTS = {
    c: np.array([float(w) for w in
                 _derivative_weights(tuple(range(-c, 5 - c)), 0, 2)])
    for c in range(0, 5)
}


def grid_spacing(x: np.ndarray) -> float:
    """Spacing of a uniform grid; raises if the grid is not uniform."""
    dx = np.diff(x)
    h = dx[0]
    if not np.allclose(dx, h, rtol=1e-9, atol=0.0):
        raise ValueError("grid is not uniform")
    return float(h)


def derivative(y: np.ndarray, x: np.ndarray, order: int = 1) -> np.ndarray:
    """4th-order-accurate derivative of sampled values on a uniform grid."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 5:
        raise ValueError("need at least five samples")
    h = grid_spacing(np.asarray(x, dtype=float))
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    table = _D1_WEIGHTS if order == 1 else _D2_WEIGHTS
    out = np.empty(n)
    # interior nodes sit at the centre (offset 2) of their window; the two
    # edge nodes at each end share the first or last window off-centre
    out[2:n - 2] = sliding_window_view(y, 5) @ table[2]
    out[0] = table[0] @ y[:5]
    out[1] = table[1] @ y[:5]
    out[n - 2] = table[3] @ y[n - 5:]
    out[n - 1] = table[4] @ y[n - 5:]
    return out / h ** order


def cumulative_integral(y: np.ndarray, x: np.ndarray, start: int = 0) -> np.ndarray:
    """Cumulative ∫ y dx from node ``start``, quartic-exact per interval.

    Entries left of ``start`` carry the (negative) integral from that node
    backwards, so out[i] = ∫_{x[start]}^{x[i]} y dx for every i.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n < 5:
        raise ValueError("need at least five samples")
    h = grid_spacing(x)
    # interval [i, i+1] on the window starting at node s = clip(i-2, 0, n-5):
    # windows 0..n-5 serve intervals 2..n-3 at offset 2, and the first and
    # last window also serve intervals 0, 1 and n-2 off-centre
    inc = np.empty(n - 1)
    inc[2:n - 2] = sliding_window_view(y, 5) @ _CUM_WEIGHTS[2]
    inc[0] = _CUM_WEIGHTS[0] @ y[:5]
    inc[1] = _CUM_WEIGHTS[1] @ y[:5]
    inc[n - 2] = _CUM_WEIGHTS[3] @ y[n - 5:]
    inc *= h
    out = np.empty(n)
    out[start] = 0.0
    if start < n - 1:
        out[start + 1:] = np.cumsum(inc[start:])
    if start > 0:
        out[:start] = -np.cumsum(inc[:start][::-1])[::-1]
    return out


def neville_at(xs, ys, x: float | np.ndarray) -> float | np.ndarray:
    """Neville evaluation of the (xs, ys) interpolant at x, or elementwise."""
    xs = [float(v) for v in xs]
    p = [float(v) for v in ys]
    m = len(p)
    for j in range(1, m):
        for i in range(m - j):
            p[i] = ((x - xs[i]) * p[i + 1] - (x - xs[i + j]) * p[i]) \
                / (xs[i + j] - xs[i])
    return p[0]


def _simpson(lo, hi, flo, fmid, fhi):
    return (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0


def _bisect(f, lo, hi, flo, fmid, fhi, whole):
    """One Simpson bisection step; works on scalars and on arrays alike.

    Returns the midpoint, the two new quarter-point samples, both half-panel
    Simpson values and the Richardson error estimate of their sum.
    """
    mid = 0.5 * (lo + hi)
    flm = f(0.5 * (lo + mid))
    frm = f(0.5 * (mid + hi))
    left = _simpson(lo, mid, flo, flm, fmid)
    right = _simpson(mid, hi, fmid, frm, fhi)
    return mid, flm, frm, left, right, (left + right - whole) / 15.0


def _recurse(f, lo, hi, flo, fmid, fhi, whole, eps, depth):
    """Adaptive Simpson on one panel whose ends and midpoint are sampled."""
    mid, flm, frm, left, right, err = _bisect(f, lo, hi, flo, fmid, fhi, whole)
    if depth <= 0 or abs(err) <= eps:
        return left + right + err
    return (_recurse(f, lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
            + _recurse(f, mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))


def adaptive_integral(f, a: float, b: float, tol: float = 1e-12,
                      max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature of a callable on [a, b]."""
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(a, b, fa, fm, fb)
    return _recurse(f, a, b, fa, fm, fb, whole, tol, max_depth)


def adaptive_panels(f, edges: np.ndarray, tol: float = 1e-12,
                    max_depth: int = 40) -> np.ndarray:
    """``adaptive_integral`` of every panel [edges[i], edges[i+1]] at once.

    ``f`` must accept arrays.  The whole-panel rule and the first bisection
    take five array calls of ``f`` in total; only the panels whose first
    error estimate misses ``tol`` go on, one at a time, through
    ``adaptive_integral`` itself (which repeats their first level on
    scalars), so every entry is bitwise equal to the scalar result (a
    zero-width panel of a finite ``f`` gives 0.0 by the same arithmetic,
    with an error estimate of 0).
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = f(lo), f(mid), f(hi)
    whole = _simpson(lo, hi, flo, fmid, fhi)
    left, right, err = _bisect(f, lo, hi, flo, fmid, fhi, whole)[3:]
    out = left + right + err
    for i in np.flatnonzero(~(np.abs(err) <= tol)):
        out[i] = adaptive_integral(f, lo[i].item(), hi[i].item(), tol, max_depth)
    return out
