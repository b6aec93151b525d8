"""The g⁻¹ hierarchy: S₁..S₃ and E₀..E₃ by quadrature along a trajectory.

With gS = gS₀ + S₁ + g⁻¹S₂ + g⁻²S₃ + ... and E = gE₀ + E₁ + g⁻¹E₂ + ...,
matching powers of g turns the wave equation into first-order ODEs along
the trajectory (arc coordinate a, primes are d/da):

    S₀'·S_k' = B_k - E_{k-1},
    B_k = ½[S_{k-1}'' - Σ_{i+j=k, i,j≥1} S_i'·S_j'],

and each E_{k-1} is the origin value of B_k, exactly the choice that
cancels the 0/0 of the integrand there, keeping every S_k analytic at the
minimum.

Derivatives of the slopes are never taken by finite differences: the
potential supplies its own, and every S_k' obeys S_k'·S₀' = (known right
side), so its higher arc-derivatives follow from the Leibniz rule as a
tower of exact pointwise expressions, each closed by one division by S₀'
whose origin value is filled by polynomial extrapolation from nearby
nodes.  Those near-origin divisions by S₀' are what cap the numeric
hierarchy at k ≤ 3: past it the two origin ladders of E₄ disagree by
6–11 % for ½x² + 0.1x⁴, and a finer grid does not close the gap.  Exact
origin jets of a polynomial v would go past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import HierarchyBreakdown
from .numerics import cumulative_integral, neville_at
from .trajectory import TrajectoryGrid

MAX_ORDER = 3


@dataclass
class SeriesSolution:
    """Computed hierarchy: e_terms[k] is E_k, s_terms[k-1] samples S_k."""

    order: int
    e_terms: list
    s_terms: list


def e0(grid: TrajectoryGrid) -> float:
    """Leading energy ½(∇²S₀) at the origin = ½√(v''(0)) in 1-D."""
    return 0.5 * grid.nu


class _Towers:
    """Arc-derivative towers of the slopes S_k' on the grid.

    Each division by S₀' multiplies near-origin rounding noise by ~1/a,
    so after every division the nodes inside the patch radius are refilled
    by Neville interpolation from the adjacent clean band; the functions
    are analytic there, which is the same fact that defines the E_k.
    Energies are extracted on a geometric ladder spanning roughly a tenth
    to a half of the oscillator length 1/√ν, far enough out that the
    1/a²-shaped footprint of the previous energy's error has died off.
    """

    def __init__(self, grid: TrajectoryGrid, order: int):
        self.arc = grid.arc
        self.n = len(self.arc)
        h = self.arc[1] - self.arc[0]
        self.length_scale = 1.0 / np.sqrt(grid.nu)
        self.patch = int(min(max(12, round(0.02 * self.length_scale / h)),
                             self.n // 8))
        # the patch interpolant needs six distinct band nodes; on tiny grids
        # the rounded band repeats one, and Neville would divide by zero
        self.band = np.linspace(self.patch, 3 * self.patch, 6).astype(int)
        if len(set(self.band.tolist())) < 6:
            raise HierarchyBreakdown(
                f"grid too coarse for the origin patch ({self.n} nodes)")
        self.s = {0: [grid.speed]}
        self._s0_tower(grid, order + 1)

    def _patched(self, out: np.ndarray) -> np.ndarray:
        out[:self.patch] = neville_at(self.arc[self.band], out[self.band],
                                      self.arc[:self.patch])
        return out

    def _ratio(self, numer: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        out[1:] = numer[1:] / self.s[0][0][1:]
        out[0] = 0.0
        return self._patched(out)

    def _s0_tower(self, grid: TrajectoryGrid, height: int) -> None:
        tower = self.s[0]
        for m in range(1, height + 1):
            # Leibniz on S₀'·S₀' = 2V:  Σ C(m,j) t[j] t[m-j] = 2 V^(m),
            # with V^(m)(a) = direction^m v^(m)(x)
            fn = grid.potential.derivatives[m]
            rhs = 2.0 * (grid.direction ** m * fn(grid.nodes))
            for j in range(1, m):
                rhs = rhs - comb(m, j) * tower[j] * tower[m - j]
            tower.append(self._ratio(0.5 * rhs))

    def bracket(self, k: int, m: int) -> np.ndarray:
        """m-th arc-derivative of B_k = ½[S_{k-1}''-Σ_{i+j=k} S_i'S_j']."""
        total = self.s[k - 1][m + 1].copy()
        for i in range(1, k):
            for l in range(m + 1):
                total = total - comb(m, l) * self.s[i][l] * self.s[k - i][m - l]
        return 0.5 * total

    def add_slope(self, k: int, source: np.ndarray, height: int) -> None:
        """Build the tower of S_k' from S_k'·S₀' = source = B_k - E_{k-1}."""
        tower = [self._ratio(source)]
        for m in range(1, height + 1):
            rhs = self.bracket(k, m)
            for j in range(m):
                rhs = rhs - comb(m, j) * tower[j] * self.s[0][m - j]
            tower.append(self._ratio(rhs))
        self.s[k] = tower

    def energy(self, k: int, values: np.ndarray) -> float:
        """E_{k-1} as the origin limit of ``values`` = B_k, cross-checked on
        two ladders."""
        a = self.arc
        h = a[1] - a[0]
        a_hi = min(0.5 * self.length_scale, a[-1] / 3.0)
        a_lo = max(a_hi / 8.0, 10.0 * h)
        targets = np.exp(np.linspace(np.log(a_hi), np.log(a_lo), 10))
        idx = sorted({max(6, int(np.searchsorted(a, t))) for t in targets})
        if len(idx) < 4:
            raise HierarchyBreakdown("grid too coarse for the origin ladder")
        first = neville_at(a[idx], values[idx], 0.0)
        second = neville_at(a[idx[1:]], values[idx[1:]], 0.0)
        scale = max(1.0, float(np.max(np.abs(values[idx]))))
        if abs(first - second) > 1e-4 * scale + 1e-9:
            raise HierarchyBreakdown(
                f"origin limit of order-{k} source did not converge: "
                f"{first!r} vs {second!r}")
        return first


def hierarchy(grid: TrajectoryGrid, order: int) -> SeriesSolution:
    """Compute S_k (k ≤ order ≤ 3) and E_k (k ≤ order) on a kink-free grid."""
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}")
    if grid.kinks:
        raise HierarchyBreakdown(
            "hierarchy requires a kink-free grid; higher orders are not "
            "analytic across a kink")
    if np.min(grid.speed[1:]) <= 0.0:
        raise HierarchyBreakdown("∇S₀ vanishes away from the origin")

    sol = SeriesSolution(order=order, e_terms=[e0(grid)], s_terms=[])
    if order == 0:
        return sol

    towers = _Towers(grid, order)
    arc = grid.arc
    bracket = towers.bracket(1, 0)
    for k in range(1, order + 1):
        # B_{k+1}(·, 0) is built once, for E_k and for S_{k+1}'
        towers.add_slope(k, bracket - sol.e_terms[k - 1], height=order + 1 - k)
        sol.s_terms.append(cumulative_integral(towers.s[k][0], arc, start=0))
        bracket = towers.bracket(k + 1, 0)
        sol.e_terms.append(towers.energy(k + 1, bracket))
    return sol


def assemble_energy(sol: SeriesSolution, g: float) -> float:
    """Truncated E = gE₀ + E₁ + g⁻¹E₂ + g⁻²E₃."""
    return sum(g ** (1 - k) * e for k, e in enumerate(sol.e_terms))
