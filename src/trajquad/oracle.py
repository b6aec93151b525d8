"""Independent brute-force Schrödinger eigensolver for validation.

Second-order central differences on a uniform grid with Dirichlet walls
give a symmetric tridiagonal matrix; its lowest eigenvalues are bracketed
by bisection on the Sturm sign-change count, which is deterministic,
library-free and much simpler than the series machinery it checks.
Each solve runs at two resolutions (n and 2n); the h² Richardson
extrapolation supplies both the reported eigenvalue and its error
estimate.  The eigenvector of the fine grid is recovered afterwards by
inverse iteration only to confirm that the box was wide enough.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainTooSmall


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenvalues with grid metadata and discretization estimates."""

    eigenvalues: tuple
    domain: tuple
    points: int
    convergence: tuple

    def value(self, k: int = 0) -> float:
        return self.eigenvalues[k]


def _sturm_count(diag, off2: float, lam: float) -> int:
    """Number of eigenvalues below lam of the tridiagonal matrix.

    ``diag`` is the diagonal as a list and ``off2`` the square of the
    constant off-diagonal.  The pivot starts at +inf so that the first
    row's ``off2 / q`` term is exactly 0.
    """
    count = 0
    q = math.inf
    for d in diag:
        q = d - lam - off2 / q
        if q == 0.0:
            q = 1e-300
        elif q < 0.0:
            count += 1
    return count


def _bisect_eigenvalues(diag: np.ndarray, off: float, k: int,
                        tol: float = 1e-12) -> list:
    """Bracket the k lowest eigenvalues to width tol (abs + rel)."""
    off2 = off * off
    dlist = diag.tolist()
    radius = 2.0 * abs(off)
    lo0 = float(np.min(diag)) - radius
    hi0 = float(np.max(diag)) + radius
    values = []
    for idx in range(k):
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _sturm_count(dlist, off2, mid) >= idx + 1:
                hi = mid
            else:
                lo = mid
            if hi - lo <= tol * (1.0 + abs(mid)):
                break
        values.append(0.5 * (lo + hi))
    return values


def _inverse_iteration(diag: np.ndarray, off: float, lam: float) -> np.ndarray:
    """One eigenvector by shifted inverse iteration with a Thomas solve.

    The shift sits 1e-6 off the eigenvalue: close enough to converge in a
    step, far enough that the solve's conditioning does not launder
    rounding noise into the tail amplitudes the caller inspects.
    """
    n = len(diag)
    shift = lam + 1e-6 * (1.0 + abs(lam))
    a = memoryview(diag - shift)
    # Thomas sweeps with constant off-diagonal on Python floats, read from
    # memoryviews and stored as raw doubles (no float objects kept); the
    # pivots and upper factors depend on the shift only, so they are
    # computed once and each iteration runs just the forward and back
    # substitution
    c = off / a[0]
    cp, pivots = array("d", [c]), array("d", [a[0]])
    for ai in a[1:]:
        denom = ai - off * c
        c = off / denom
        cp.append(c)
        pivots.append(denom)
    u = np.ones(n) / np.sqrt(n)
    for _ in range(5):
        rhs = memoryview(u)
        d = rhs[0] / pivots[0]
        dp = array("d", [d])
        for ri, denom in zip(rhs[1:], pivots[1:]):
            d = (ri - off * d) / denom
            dp.append(d)
        x = dp[-1]
        v = array("d", [x])
        for c, d in zip(reversed(cp[:-1]), reversed(dp[:-1])):
            x = d - c * x
            v.append(x)
        v = np.frombuffer(v)[::-1]
        u = v / np.linalg.norm(v)
    return u


def _solve_grid(v_vals: np.ndarray, h: float, k: int) -> list:
    diag = 1.0 / h ** 2 + v_vals
    off = -0.5 / h ** 2
    return _bisect_eigenvalues(diag, off, k)


def _richardson(grid_values: Callable[[int], tuple], n: int, k: int):
    """The h²-Richardson step shared by both solvers.

    Solves on n and 2n points and returns the extrapolants, their
    |E_2n - E_n|/3 estimates, and the fine grid's potential values and
    spacing, which the caller's edge check inspects.
    """
    v1, h1 = grid_values(n)
    v2, h2 = grid_values(2 * n)
    pairs = list(zip(_solve_grid(v1, h1, k), _solve_grid(v2, h2, k)))
    values = tuple((4.0 * ef - ec) / 3.0 for ec, ef in pairs)
    errors = tuple(abs(ef - ec) / 3.0 + 1e-14 * (1.0 + abs(ef))
                   for ec, ef in pairs)
    return values, errors, v2, h2


def _edge_check(v_vals: np.ndarray, h: float, lam: float,
                sides: str = "both") -> None:
    diag = 1.0 / h ** 2 + v_vals
    u = _inverse_iteration(diag, -0.5 / h ** 2, lam)
    peak = float(np.max(np.abs(u)))
    edges = []
    if sides in ("both", "left"):
        edges.append(abs(u[0]))
    if sides in ("both", "right"):
        edges.append(abs(u[-1]))
    if max(edges) > 1e-8 * peak:
        raise DomainTooSmall(
            f"edge amplitude {max(edges):.2e} of peak {peak:.2e}")


def solve_1d(potential: Callable[[float], float], domain: tuple, n: int,
             k: int = 1) -> EigenResult:
    """Lowest k eigenvalues of -½d²/dx² + V with Dirichlet walls.

    Solved at n and 2n interior points; eigenvalues are the h²-Richardson
    extrapolants with |E_2n - E_n|/3 as the per-eigenvalue estimate.
    """
    if n < 200:
        raise ValueError("oracle needs at least 200 points")
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError("empty domain")

    def grid_values(m: int):
        h = (b - a) / (m + 1)
        x = a + h * np.arange(1, m + 1)
        return np.array([potential(xi) for xi in x]), h

    values, errors, v2, h2 = _richardson(grid_values, n, k)
    for lam in values:
        _edge_check(v2, h2, lam, sides="both")
    return EigenResult(eigenvalues=values, domain=(a, b), points=n,
                       convergence=errors)


def solve_radial(g: float, u_potential: Callable[[float], float], eps: float,
                 r_max: float, n: int) -> EigenResult:
    """Ground eigenvalue of -½u'' + [-g²/r + εU(r)]u, u(0) = u(r_max) = 0.

    Uniform grid on (0, r_max); the node at r = 0 is a Dirichlet ghost, so
    no Coulomb regularization is applied.  Only the outer edge is checked
    for decay (the inner boundary condition is exact).
    """
    if n < 200:
        raise ValueError("oracle needs at least 200 points")
    if r_max * g ** 2 < 5.0:
        raise DomainTooSmall("r_max·g² too small for a bound Coulomb state")

    def grid_values(m: int):
        h = r_max / (m + 1)
        r = h * np.arange(1, m + 1)
        vals = np.array([-g ** 2 / ri + eps * u_potential(ri) for ri in r])
        return vals, h

    values, errors, v2, h2 = _richardson(grid_values, n, 1)
    _edge_check(v2, h2, values[0], sides="right")
    return EigenResult(eigenvalues=values, domain=(0.0, r_max), points=n,
                       convergence=errors)


def sturm_count(potential: Callable[[float], float], domain: tuple, n: int,
                lam: float) -> int:
    """Eigenvalue count below lam (internal consistency hook for tests)."""
    a, b = float(domain[0]), float(domain[1])
    h = (b - a) / (n + 1)
    x = a + h * np.arange(1, n + 1)
    diag = (1.0 / h ** 2 + np.array([potential(xi) for xi in x])).tolist()
    return _sturm_count(diag, (0.5 / h ** 2) ** 2, lam)
