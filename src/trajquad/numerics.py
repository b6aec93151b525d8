"""Shared numerical kernels: stencils, cumulative quadrature, Gauss panels.

Every grid in the package is uniform, so the workhorses below use fixed
5-point stencils: first and second derivatives are 4th-order accurate and
the cumulative integral integrates quartics exactly (5th-order composite).
Edge nodes use shifted one-sided stencils of the same width.  Every rule's
weights are one exact Lagrange basis on the window t = 0..4 (the quartic
fit's) times the rule's moments at its target, each rounded once (its
product form at ``gauss_samples``' irrational targets).  One window kernel,
``_windows``, runs every such rule: each interior target is a row of one
``sliding_window_view(y, 5) @ weights`` product, and the targets at the
ends take the first or last window's one-sided weights.  The derivatives,
the cumulative integral and ``gauss_samples`` (the same quartics at the
16 Gauss–Legendre nodes of every interval) are one call each.  ``_horner``
evaluates every polynomial of the grid half.

``gauss_panels`` runs the same 16-point rule on an integrand that is a
callable (the Green's-operator tails beyond the grid): every panel of a
partition in one array call of the integrand, with no refinement and no
tolerance.  A stack of integrands runs in the same call, each bitwise as
it would come alone.
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

# 16-point Gauss–Legendre on [-1, 1] by Golub–Welsch: the nodes are the
# eigenvalues of Legendre's Jacobi matrix, the weights 2·(first components)²
_k = np.arange(1.0, 16.0)
_GAUSS_NODES, _vectors = np.linalg.eigh(
    np.diag(_k / np.sqrt(4.0 * _k * _k - 1.0), -1))
_GAUSS_WEIGHTS = 2.0 * _vectors[0] ** 2
# interval [s, s+1] at its Gauss nodes t_m = s + (1 + ξ_m)/2: entry (j, m)
# is the basis B_j(t_m) as its product Π_{i≠j} (t_m - i)/(j - i) in floats
_GAUSS_TABLE = {s: np.array([np.prod(
    [(s + 0.5 + 0.5 * _GAUSS_NODES - i) / (j - i) for i in range(5) if i != j],
    axis=0) for j in range(5)]) for s in range(4)}


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


def cumulative_integral(y: np.ndarray, x: np.ndarray, start: int = 0) -> np.ndarray:
    """Cumulative ∫ y dx from node ``start``, quartic-exact per interval.

    Entries left of ``start`` carry the (negative) integral from that node
    backwards, so out[i] = ∫_{x[start]}^{x[i]} y dx for every i.
    """
    # interval [i, i+1] on the window starting at node clip(i-2, 0, n-5)
    inc = grid_spacing(np.asarray(x, dtype=float)) * _windows(y, _CUM_WEIGHTS)
    out = np.zeros(len(inc) + 1)
    out[start + 1:] = np.cumsum(inc[start:])
    out[:start] = -np.cumsum(inc[:start][::-1])[::-1]
    return out


def gauss_samples(y: np.ndarray) -> np.ndarray:
    """Shape (n - 1, 16): row i is the quartic through the window that
    ``cumulative_integral`` uses for interval [i, i+1], at that interval's
    Gauss nodes; ``row @ _GAUSS_WEIGHTS · h/2`` integrates it."""
    return _windows(y, _GAUSS_TABLE)


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


def gauss_panels(f, edges: np.ndarray) -> np.ndarray:
    """16-point Gauss–Legendre on every panel [edges[i], edges[i+1]], exact
    to rounding for polynomials of degree 31.

    ``f`` is called once, elementwise on the nodes z of shape (panels, 16).
    An ``f`` broadcasting to m rows, shape (m,) + z.shape, gives one row
    per integrand, each bitwise its own call.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    z = (edges[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES
    return (f(z) * _GAUSS_WEIGHTS).sum(axis=-1) * half
