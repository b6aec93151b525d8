"""Shared numerical kernels: stencils, cumulative quadrature, extrapolation.

Every grid in the package is uniform, so the workhorses below use fixed
5-point stencils: first and second derivatives are 4th-order accurate and
the cumulative integral integrates quartics exactly (5th-order composite).
Edge nodes use shifted one-sided stencils of the same width.  Every rule's
weights are one exact Lagrange basis on the window t = 0..4 (the quartic
fit's) times the rule's moments at its target, each rounded once.  One
window kernel, ``_windows``, runs every such rule: each interior target is
a row of one ``sliding_window_view(y, 5) @ weights`` product, and the
targets at the ends take the first or last window's one-sided weights.
The derivatives, the cumulative integral (the running sum of
``increments``) and ``refine_quarters`` (the same quartics at every
quarter step, a 4×-refined grid) are one call each.
``_horner`` evaluates every polynomial of the grid half.

``adaptive_panels`` is the one adaptive Simpson rule, used where the
integrand is a callable rather than a sampled array (the Green's-operator
tails beyond the grid).  It integrates every panel of a partition at
once: each bisection level is one array step over all the panels whose
Richardson error estimate still misses the tolerance, so the integrand is
called on arrays, a few times per level, never per panel.
A stack of integrands (one row each, a column of tolerances) runs in the
same calls, each row bitwise as it would come out alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _lagrange_poly(j):
    """Ascending coefficients of the j-th Lagrange basis on t = 0..4."""
    coeffs = [Fraction(1)]
    for m in range(5):
        if m != j:
            # multiply by (t - m)/(j - m)
            coeffs = [(a - m * b) / (j - m) for a, b in
                      zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


# row j: the exact basis B_j(t) = Σ_k B_jk t^k with B_j(i) = δ_ij
_BASIS = [_lagrange_poly(j) for j in range(5)]
_QUARTIC_FIT = np.array([[float(b) for b in row] for row in _BASIS])


def _rule(moments):
    """Weights of the functional L with moments m_k = L(t^k) on t = 0..4:
    w_j = Σ_k B_jk·m_k = L(B_j), each exact and rounded once."""
    return np.array([float(sum(b * m for b, m in zip(row, moments)))
                     for row in _BASIS])


# keyed by the anchor s, the target's offset from its window's start:
# interval [s, s+1] integrated, L(t^k) = ∫_s^{s+1} t^k dt
_CUM_WEIGHTS = {s: _rule([Fraction((s + 1) ** (k + 1) - s ** (k + 1), k + 1)
                          for k in range(5)]) for s in range(4)}
# first and second derivative at node s, L(t^k) = d^r t^k/dt^r at t = s
_D1_WEIGHTS = {s: _rule([k * s ** max(k - 1, 0) for k in range(5)])
               for s in range(5)}
_D2_WEIGHTS = {s: _rule([k * (k - 1) * s ** max(k - 2, 0) for k in range(5)])
               for s in range(5)}
# interval [s, s+1] at its quarter points, L(t^k) = (s + j/4)^k, j = 1, 2, 3
_QUARTER_WEIGHTS = {s: np.column_stack(
    [_rule([(s + Fraction(j, 4)) ** k for k in range(5)]) for j in (1, 2, 3)])
    for s in range(4)}


def grid_spacing(x: np.ndarray) -> float:
    """Spacing h of a uniform grid; raises unless h is finite and every
    step lies within 1e-9·|h| of it."""
    dx = np.diff(x)
    h = float(dx[0])
    if not (np.isfinite(h) and np.max(np.abs(dx - h)) <= 1e-9 * abs(h)):
        raise ValueError("grid is not uniform")
    return h


def _windows(y: np.ndarray, table: dict) -> np.ndarray:
    """A 5-point rule on every window of ``y``, one row per target:
    ``table[s]`` weighs a target s points right of its window's start, and
    anchors 0 and 1 read the first window, anchor 2 every window (each
    interior target at its window's centre), anchors above 2 the last."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 5:
        raise ValueError("need at least five samples")
    out = np.empty((n - 5 + len(table),) + table[2].shape[1:])
    np.matmul(sliding_window_view(y, 5), table[2], out=out[2:n - 2])
    for s in (0, 1):
        out[s] = y[:5] @ table[s]
    for s in range(3, len(table)):
        out[n - 5 + s] = y[-5:] @ table[s]
    return out


def derivative(y: np.ndarray, x: np.ndarray, order: int = 1) -> np.ndarray:
    """4th-order-accurate derivative of sampled values on a uniform grid."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    out = _windows(y, _D1_WEIGHTS if order == 1 else _D2_WEIGHTS)
    out /= grid_spacing(np.asarray(x, dtype=float)) ** order
    return out


def increments(y: np.ndarray, h: float) -> np.ndarray:
    """∫ y dx over each interval [i, i+1] of a uniform grid of spacing h,
    quartic-exact: ``cumulative_integral`` is their running sum."""
    # interval [i, i+1] on the window starting at node clip(i-2, 0, n-5)
    inc = _windows(y, _CUM_WEIGHTS)
    inc *= h
    return inc


def cumulative_integral(y: np.ndarray, x: np.ndarray, start: int = 0) -> np.ndarray:
    """Cumulative ∫ y dx from node ``start``, quartic-exact per interval.

    Entries left of ``start`` carry the (negative) integral from that node
    backwards, so out[i] = ∫_{x[start]}^{x[i]} y dx for every i.
    """
    inc = increments(y, grid_spacing(np.asarray(x, dtype=float)))
    out = np.zeros(len(inc) + 1)
    out[start + 1:] = np.cumsum(inc[start:])
    out[:start] = -np.cumsum(inc[:start][::-1])[::-1]
    return out


def refine_quarters(y: np.ndarray) -> np.ndarray:
    """Samples at every quarter step: the nodes' values, and inside each
    interval the quartic through the window ``cumulative_integral`` uses."""
    out = np.empty(4 * len(y) - 3)
    out[::4] = y
    out[1:].reshape(-1, 4)[:, :3] = _windows(y, _QUARTER_WEIGHTS)
    return out


def _horner(coeffs, z):
    """Σ_k coeffs[k]·z^k; from the float 0.0 a scalar ``z`` runs on scalars
    and an array broadcasts, with no array made per scalar call."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * z + c
    return out


def quartic_fit(y: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the quartic through (t, y[t]), t = 0..4."""
    return y @ _QUARTIC_FIT


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
_MAX_DEPTH = 40   # bisection levels per panel of adaptive_panels


def _refine(f, lo, hi, flo, fmid, fhi, whole, eps, depth):
    """Adaptive Simpson on arrays of panels whose ends and midpoints are sampled.

    One bisection level runs on every panel at once; the panels whose
    Richardson estimate misses ``eps`` (and that have depth left) are split
    into their two halves, which recurse together with ``eps/2``, at most
    ``_CHUNK`` panels at a time.  Each value is the sum of its two halves'
    values, so the result is the one a depth-first recursion on each panel
    would return, bit for bit.  A stack (values of shape (m, panels),
    ``eps`` a column) bisects a panel when any row misses and takes the
    halves' sum only in the rows that missed.
    """
    mid = 0.5 * (lo + hi)
    flm = f(0.5 * (lo + mid))
    frm = f(0.5 * (mid + hi))
    left = _simpson(lo, mid, flo, flm, fmid)
    right = _simpson(mid, hi, fmid, frm, fhi)
    err = (left + right - whole) / 15.0
    out = left + right + err
    if depth <= 0:
        return out
    miss = ~(np.abs(err) <= eps)
    go = np.flatnonzero(miss.reshape(-1, miss.shape[-1]).any(axis=0))
    for start in range(0, len(go), _CHUNK):
        idx = go[start:start + _CHUNK]
        halves = [np.concatenate((a[..., idx], b[..., idx]), axis=-1) for a, b
                  in ((lo, mid), (mid, hi), (flo, fmid), (flm, frm),
                      (fmid, fhi), (left, right))]
        sub = _refine(f, *halves, eps / 2.0, depth - 1)
        out[..., idx] = np.where(miss[..., idx], sub[..., :len(idx)]
                                 + sub[..., len(idx):], out[..., idx])
    return out


def adaptive_panels(f, edges: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Adaptive Simpson quadrature of every panel [edges[i], edges[i+1]].

    ``f`` takes arrays.  The whole-panel rule takes three calls of ``f``
    and each bisection level two more, over all panels still refining (up
    to ``_CHUNK`` per call), so the call count grows with the depth, not
    with the number of panels.
    A panel is bisected until its Richardson error estimate is within
    ``tol`` (halved per level) or ``_MAX_DEPTH`` levels are spent; a
    zero-width panel of a finite ``f`` gives 0.0 with an estimate of 0.
    An ``f`` returning m rows, shape (m, len(z)), with ``tol`` a column of
    m tolerances, gives one row per integrand, each bitwise its own call.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    flo, fmid, fhi = f(lo), f(0.5 * (lo + hi)), f(hi)
    whole = _simpson(lo, hi, flo, fmid, fhi)
    return _refine(f, lo, hi, flo, fmid, fhi, whole, tol, _MAX_DEPTH)
