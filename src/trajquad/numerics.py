"""Shared numerical kernels: stencils, cumulative quadrature, extrapolation.

Every grid in the package is uniform, so the workhorses below use fixed
5-point stencils whose weights are derived once, exactly, from Lagrange
interpolation: first and second derivatives are 4th-order accurate and the
cumulative integral integrates quartics exactly (5th-order composite).
Edge nodes use shifted one-sided stencils of the same width.  The
stencils run as whole-array kernels: every interior node is one row of a
``sliding_window_view(y, 5) @ weights`` product, and only the two edge
nodes at each end take their own one-sided weights.

``adaptive_panels`` is the one adaptive Simpson rule, used where the
integrand is a callable rather than a sampled array (the trajectory's S₀
panels and the Green's-operator tails).  It integrates every panel of a
partition at once: each bisection level is one array step over all the
panels whose Richardson error estimate still misses the tolerance, so the
integrand is called on arrays, a few times per level, never per panel.
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


def _weights(offsets, moments):
    """Exact weights of the linear functional L with moments L(t^k) = m_k.

    w_j = Σ_k c_jk m_k with c_jk the coefficients of the j-th Lagrange basis
    polynomial, so Σ_j w_j f(t_j) is L applied to the interpolant of f.
    """
    return [sum(c * m for c, m in zip(_lagrange_poly(offsets, j), moments))
            for j in range(len(offsets))]


def _table(moments, anchors):
    """Float weights of L, keyed by s, on the 5-point stencil t = -s .. 4-s."""
    return {s: np.array([float(w) for w in
                         _weights(tuple(range(-s, 5 - s)), moments)])
            for s in anchors}


# interval [i, i+1] integrated on the stencil anchored s points left of i:
# L(t^k) = ∫_0^1 t^k dt = 1/(k+1)
_CUM_WEIGHTS = _table([Fraction(1, k + 1) for k in range(5)], range(4))

# r-th derivative at the node c points right of the stencil start:
# L(t^k) = d^r t^k/dt^r at t = 0 = r!·δ_kr
_D1_WEIGHTS = _table([0, 1, 0, 0, 0], range(5))
_D2_WEIGHTS = _table([0, 0, 2, 0, 0], range(5))


def grid_spacing(x: np.ndarray) -> float:
    """Spacing h of a uniform grid; raises unless h is finite and every
    step lies within 1e-9·|h| of it."""
    dx = np.diff(x)
    h = float(dx[0])
    if not (np.isfinite(h) and np.max(np.abs(dx - h)) <= 1e-9 * abs(h)):
        raise ValueError("grid is not uniform")
    return h


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


# largest number of panels bisected in one array step: a refinement that
# never meets its tolerance doubles the failing panels per level, so
# without a cap the arrays of a deep level could reach 2^depth entries
_CHUNK = 4096


def _refine(f, lo, hi, flo, fmid, fhi, whole, eps, depth):
    """Adaptive Simpson on arrays of panels whose ends and midpoints are sampled.

    One bisection level runs on every panel at once; the panels whose
    Richardson estimate misses ``eps`` (and that have depth left) are split
    into their two halves, which recurse together with ``eps/2``, at most
    ``_CHUNK`` panels at a time.  Each value is the sum of its two halves'
    values, so the result is the one a depth-first recursion on each panel
    would return, bit for bit.
    """
    mid = 0.5 * (lo + hi)
    flm = f(0.5 * (lo + mid))
    frm = f(0.5 * (mid + hi))
    left = _simpson(lo, mid, flo, flm, fmid)
    right = _simpson(mid, hi, fmid, frm, fhi)
    err = (left + right - whole) / 15.0
    out = left + right + err
    go = np.flatnonzero(~(np.abs(err) <= eps)) if depth > 0 else []
    for start in range(0, len(go), _CHUNK):
        idx = go[start:start + _CHUNK]
        halves = [np.concatenate((a[idx], b[idx])) for a, b in
                  ((lo, mid), (mid, hi), (flo, fmid), (flm, frm), (fmid, fhi),
                   (left, right))]
        sub = _refine(f, *halves, eps / 2.0, depth - 1)
        out[idx] = sub[:len(idx)] + sub[len(idx):]
    return out


def adaptive_panels(f, edges: np.ndarray, tol: float = 1e-12,
                    max_depth: int = 40) -> np.ndarray:
    """Adaptive Simpson quadrature of every panel [edges[i], edges[i+1]].

    ``f`` takes arrays.  The whole-panel rule takes three calls of ``f``
    and each bisection level two more, over all panels still refining (up
    to ``_CHUNK`` per call), so the call count grows with the depth, not
    with the number of panels.
    A panel is bisected until its Richardson error estimate is within
    ``tol`` (halved per level) or ``max_depth`` levels are spent; a
    zero-width panel of a finite ``f`` gives 0.0 with an estimate of 0.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    flo, fmid, fhi = f(lo), f(0.5 * (lo + hi)), f(hi)
    whole = _simpson(lo, hi, flo, fmid, fhi)
    return _refine(f, lo, hi, flo, fmid, fhi, whole, tol, max_depth)
