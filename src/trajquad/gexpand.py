"""The g⁻¹ hierarchy: S₁..S₃ and E₀..E₃ by quadrature along a trajectory.

With gS = gS₀ + S₁ + g⁻¹S₂ + g⁻²S₃ + ... and E = gE₀ + E₁ + g⁻¹E₂ + ...,
matching powers of g turns the wave equation into first-order ODEs along
the trajectory (arc coordinate a, primes are d/da):

    S₀'·S_k' = B_k - E_{k-1},
    B_k = ½[S_{k-1}'' - Σ_{i+j=k, i,j≥1} S_i'·S_j'],

and each E_{k-1} is the origin value of B_k, exactly the choice that
cancels the 0/0 of the integrand there, keeping every S_k analytic at the
minimum.

The potential is a polynomial, so with the trajectory grid's
P(a) = 2v(origin + direction·a) and S₀' = u = √P each function of the
hierarchy has two exact forms:

- its Taylor jet at the origin.  P has a double zero there, so S₀' = a·r(a)
  with r = √(P/a²), and dividing by S₀' is a shift and one product with the
  jet of 1/r.  E_{k-1} is the constant term of B_k's jet;
- (A + C·u)/P^m with polynomials A and C, a form that d/da, products and
  division by u keep, because u' = P'u/(2P).

S_k' is read from the jet up to half the radius of the nearest complex
zero of P/a² (the grid's ``radius``), and from the closed form beyond,
where A and C·u no longer cancel; past a = 1 the closed form runs in
t = 1/a, so that P^m cannot overflow.  S_k is the cumulative integral of
S_k'.  The kernel is float: ν = √v''(origin) is irrational in general,
and the origin is a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HierarchyBreakdown
from .numerics import _horner, cumulative_integral
from .trajectory import TrajectoryGrid

MAX_ORDER = 3
_JET = 60      # Taylor terms of each origin jet


@dataclass
class SeriesSolution:
    """Computed hierarchy: e_terms[k] is E_k, s_terms[k-1] samples S_k."""

    order: int
    e_terms: list
    s_terms: list


def e0(grid: TrajectoryGrid) -> float:
    """Leading energy ½(∇²S₀) at the origin = ½√(v''(0)) in 1-D."""
    return 0.5 * grid.nu


def _sum(p, q):
    """Sum of two ascending coefficient arrays of any lengths."""
    out = np.zeros(max(len(p), len(q)))
    out[:len(p)] += p
    out[:len(q)] += q
    return out


def _d(p):
    """d/da of ascending coefficients, one shorter (a constant gives 0)."""
    return p[1:] * np.arange(1, len(p)) if len(p) > 1 else np.zeros(1)


class _Forms:
    """Functions f of the hierarchy as (jet, A, C, m): f's Taylor jet at the
    origin in b = a/scale, and f = (A + C·u)/P^m."""

    def __init__(self, grid: TrajectoryGrid):
        self.P = P = grid.P
        self.switch = 0.5 * grid.radius
        # a jet's n-th term grows like radius^-n in a, and not in b = a/scale
        self.scale = s = min(self.switch, 1.0)
        q = np.append(P[2:], np.zeros(_JET))[:_JET] * s ** np.arange(_JET)
        r, inv = np.zeros(_JET), np.zeros(_JET)
        r[0], inv[0] = np.sqrt(q[0]), 1.0 / np.sqrt(q[0])
        for n in range(1, _JET):
            r[n] = 0.5 * inv[0] * (q[n] - r[1:n] @ r[n - 1:0:-1])
            inv[n] = -inv[0] * (r[1:n + 1] @ inv[n - 1::-1])
        self.inv_r = inv
        self.s0 = (s * np.append(0.0, r[:-1]), np.zeros(1), np.ones(1), 0)

    def bracket(self, slopes):
        """B_k = ½[S_{k-1}'' - Σ_{i+j=k} S_i'·S_j'] from S₀'..S_{k-1}'."""
        jet, A, C, m = slopes[-1]
        P, dP = self.P, _d(self.P)
        # ((A + C·u)/P^m)' = (P·A' - m·P'·A + (P·C' + (½ - m)·P'·C)·u)/P^(m+1)
        jet = np.append(_d(jet), 0.0) / self.scale
        A = _sum(np.convolve(P, _d(A)), -m * np.convolve(dP, A))
        C = _sum(np.convolve(P, _d(C)), (0.5 - m) * np.convolve(dP, C))
        m += 1
        if len(slopes) > 1:   # S_i' is over P^(3i-1), S_i'·S_{k-i}' over P^(3k-2)
            A, C, m = np.convolve(A, P), np.convolve(C, P), m + 1
        for (fj, fa, fc, _), (gj, ga, gc, _) in zip(slopes[1:], slopes[:0:-1]):
            jet = jet - np.convolve(fj, gj)[:_JET]
            A = _sum(A, -_sum(np.convolve(fa, ga),
                              np.convolve(P, np.convolve(fc, gc))))
            C = _sum(C, -_sum(np.convolve(fa, gc), np.convolve(fc, ga)))
        return 0.5 * jet, 0.5 * A, 0.5 * C, m

    def slope(self, bracket):
        """S_k' = (B_k - E_{k-1})/S₀', E_{k-1} being the constant term of B_k's
        jet: (A - E·P^m + C·u)/(u·P^m) = (C·P + (A - E·P^m)·u)/P^(m+1)."""
        jet, A, C, m = bracket
        power = np.ones(1)
        for _ in range(m):
            power = np.convolve(power, self.P)
        return (np.convolve(jet[1:], self.inv_r)[:_JET] / self.scale,
                np.convolve(C, self.P), _sum(A, -jet[0] * power), m + 1)

    def sample(self, f, a):
        """f at sorted arcs a: the jet, then the closed form in a, then in
        t = 1/a.  Horner runs over each of A and C from its first nonzero
        coefficient p_lo to its last p_hi alone, so p(a) = a^lo·q(a) and
        p(a) = a^hi·(q reversed)(t) with q = p_lo..p_hi."""
        jet, A, C, m = f
        d = len(self.P) - 1
        i = np.searchsorted(a, self.switch, "right")
        j = max(i, np.searchsorted(a, 1.0, "right"))
        (A, a_lo, a_hi), (C, c_lo, c_hi) = _span(A), _span(C)
        out = [_horner(jet, a[:i] / self.scale)]
        for z, step, w, ea, ec in (
                (a[i:j], 1, a[i:j], a_lo, c_lo),
                (1.0 / a[j:], -1, a[j:], a_hi - d * m, c_hi + d / 2 - d * m)):
            pz = _horner(self.P[::step], z)
            out.append((_horner(A[::step], z) * w ** ea
                        + _horner(C[::step], z) * np.sqrt(pz) * w ** ec)
                       / pz ** m)
        return np.concatenate(out)


def _span(p):
    """p's coefficients from its first nonzero one to its last, with the
    powers lo and hi of those two (a zero p is the constant 0)."""
    nz = np.flatnonzero(p)
    if not nz.size:
        return np.zeros(1), 0, 0
    return p[nz[0]:nz[-1] + 1], nz[0], nz[-1]


def hierarchy(grid: TrajectoryGrid, order: int) -> SeriesSolution:
    """Compute S_k (k ≤ order ≤ 3) and E_k (k ≤ order) on a grid, which
    ``build_grid`` leaves kink-free."""
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}")

    sol = SeriesSolution(order=order, e_terms=[e0(grid)], s_terms=[])
    if order == 0:
        return sol
    with np.errstate(all="ignore"):
        forms = _Forms(grid)
        slopes = [forms.s0]
        bracket = forms.bracket(slopes)
        for k in range(1, order + 1):
            slopes.append(forms.slope(bracket))
            sol.s_terms.append(cumulative_integral(
                forms.sample(slopes[k], grid.arc), grid.arc, start=0))
            bracket = forms.bracket(slopes)     # for E_k and S_{k+1}'
            sol.e_terms.append(float(bracket[0][0]))
    if not (np.isfinite(sol.e_terms).all() and np.isfinite(sol.s_terms).all()):
        raise HierarchyBreakdown("the hierarchy overflows floating point")
    return sol


def assemble_energy(sol: SeriesSolution, g: float) -> float:
    """Truncated E = gE₀ + E₁ + g⁻¹E₂ + g⁻²E₃."""
    return sum(g ** (1 - k) * e for k, e in enumerate(sol.e_terms))
