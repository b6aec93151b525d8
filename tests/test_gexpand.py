"""g⁻¹ hierarchy: harmonic exactness, exact E_k, residuals, separable.

The PDE residual, the oscillator series and the separable sum below are
references that no command runs: the residual differentiates the returned
samples alone, ``oscpert``'s exact Δ(k) regrade into the E_k of
½x² + c·x^P, and a separable potential's E_k are the sums of its axes' E_k.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from trajquad.errors import HierarchyBreakdown
from trajquad.exactalg import VAR_GHAT
from trajquad.gexpand import _Forms, assemble_energy, e0, hierarchy
from trajquad.numerics import _horner, cumulative_integral, derivative
from trajquad.oscpert import solve_even, solve_odd
from trajquad.trajectory import build_grid, coefficients

from polyring import evaluate
from test_oscpert import delta


def rhs_terms(sol, grid):
    """RHS_k = B_k - E_{k-1}, k = 1..order, from the returned samples alone.

    S₀' is √P at the nodes and S_k' the derivative of the S_k samples;
    every second derivative is a ``numerics.derivative`` of those samples.
    """
    s0p = np.sqrt(_horner(grid.P, grid.arc))
    slopes = [s0p] + [derivative(s, grid.arc) for s in sol.s_terms]
    curvatures = [derivative(s0p, grid.arc)] + [
        derivative(s, grid.arc, order=2) for s in sol.s_terms]
    return [0.5 * (curvatures[k - 1] - sum(slopes[i] * slopes[k - i]
                                           for i in range(1, k)))
            - sol.e_terms[k - 1] for k in range(1, sol.order + 1)]


def pde_residual(sol, grid, k):
    """|S₀'·(dS_k/da) - RHS_k| with S_k freshly re-differentiated.

    S_k' was obtained from the defining ODE on ``grid``, so the meaningful
    residual differentiates the integrated S_k samples instead; interior
    nodes only.
    """
    fresh = derivative(sol.s_terms[k - 1], grid.arc)
    res = np.sqrt(_horner(grid.P, grid.arc)) * fresh \
        - rhs_terms(sol, grid)[k - 1]
    return np.abs(res[2:-2])


@dataclass
class SeparableSolution:
    """Per-axis hierarchies of a separable potential; energies add."""

    solutions: list
    e_terms: list

    def energy(self, g):
        return sum(g ** (1 - k) * e for k, e in enumerate(self.e_terms))


def hierarchy_separable(axes, order):
    """Run the hierarchy on each axis's grid and sum E_k across axes."""
    if not axes:
        raise ValueError("need at least one axis")
    sols = [hierarchy(axis, order) for axis in axes]
    e_totals = [sum(s.e_terms[k] for s in sols)
                for k in range(len(sols[0].e_terms))]
    return SeparableSolution(solutions=sols, e_terms=e_totals)


def grid_for(text, x_max=2.5, n=2001, origin=0.0, direction=1):
    return build_grid(coefficients(text), x_max, n, origin=origin,
                      direction=direction)


def quartic_energies(beta, omega=1.0):
    """Exact hierarchy energies for v = ω²x²/2 + βx⁴ (re-graded series)."""
    lam = beta / omega ** 3
    return (omega / 2, 0.75 * lam * omega, -(21 / 8) * lam ** 2 * omega,
            (333 / 16) * lam ** 3 * omega)


class TestLeadingOrder:
    def test_harmonic_e0(self):
        assert e0(grid_for("0.5*x^2", 3.0, 801)) == pytest.approx(0.5)

    def test_scaled_harmonic_e0(self):
        # v = 2x² has v'' = 4, so E₀ = ω/2 = 1
        assert e0(grid_for("2*x^2", 2.0, 801)) == pytest.approx(1.0)

    def test_double_well_about_its_minimum(self):
        # v = ½(x²-1)² about x = 1: v''(1) = 4, E₀ = 1
        grid = grid_for("0.5 - x^2 + 0.5*x^4", x_max=0.8, origin=1.0,
                        direction=-1)
        assert e0(grid) == pytest.approx(1.0)

    def test_order_zero_solution(self):
        sol = hierarchy(grid_for("0.5*x^2 + 0.1*x^4"), 0)
        assert sol.s_terms == [] and len(sol.e_terms) == 1


class TestHarmonic:
    def test_all_corrections_vanish(self):
        sol = hierarchy(grid_for("0.5*x^2", 3.0, 1201), 3)
        assert sol.e_terms[0] == pytest.approx(0.5)
        for e in sol.e_terms[1:]:
            assert abs(e) < 1e-8
        for s in sol.s_terms:
            assert np.max(np.abs(s)) < 1e-8

    def test_assemble_matches_ladder(self):
        sol = hierarchy(grid_for("0.5*x^2", 3.0, 1201), 2)
        assert assemble_energy(sol, 7.0) == pytest.approx(3.5, abs=1e-7)

    def test_assemble_weights(self):
        from trajquad.gexpand import SeriesSolution
        stub = SeriesSolution(order=1, e_terms=[0.5, 0.75], s_terms=[])
        assert assemble_energy(stub, 2.0) == pytest.approx(1.75)
        empty = SeriesSolution(order=0, e_terms=[], s_terms=[])
        assert assemble_energy(empty, 3.0) == 0.0


def assert_energies(got, exact):
    """Each E_k to 1e-14 relative, or to 1e-15 absolute where it is 0."""
    assert len(got) == len(exact)
    for k, (e, want) in enumerate(zip(got, exact)):
        bound = 1e-14 * abs(want) if want else 1e-15
        assert abs(e - want) <= bound, (k, e, want)


def oscillator_energies(P, c):
    """E₀..E₃ of ½x² + c·x^P from ``oscpert``'s Δ(k) at g = 1.

    At coupling g the perturbation is c·g^(1-k(P-2)/2)·Δ(k) at ε-order k,
    so E_j = Σ_{k(P-2) = 2j} Δ(k)·c^k.
    """
    top = 6 // (P - 2)
    series = solve_even(P // 2, top) if P % 2 == 0 else solve_odd(P // 2, top)
    energies = [0.5, 0.0, 0.0, 0.0]
    for k in range(1, top + 1):
        if k * (P - 2) % 2 == 0:
            shift = evaluate(delta(series, k), {VAR_GHAT: 1.0})
            energies[k * (P - 2) // 2] += shift * c ** k
    return energies


class TestQuartic:
    def test_energies_match_exact_coefficients(self):
        sol = hierarchy(grid_for("0.5*x^2 + 0.1*x^4"), 3)
        assert_energies(sol.e_terms, quartic_energies(0.1))

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    def test_first_correction_closed_form(self, lam):
        # S₀' = x·r with r = √(1 + 2λx²), and S₁ = ½ln r + ½ln((1+r)/2)
        grid = grid_for(f"0.5*x^2 + {lam}*x^4")
        r = np.sqrt(1.0 + 2.0 * lam * grid.nodes ** 2)
        exact = 0.5 * np.log(r) + 0.5 * np.log((1.0 + r) / 2.0)
        sol = hierarchy(grid, 1)
        assert np.max(np.abs(sol.s_terms[0] - exact)) < 1e-12

    def test_pde_residuals(self):
        grid = grid_for("0.5*x^2 + 0.1*x^4")
        sol = hierarchy(grid, 3)
        for k in (1, 2, 3):
            assert np.max(pde_residual(sol, grid, k)) < 1e-7

    def test_grid_density_independence(self):
        coarse = hierarchy(grid_for("0.5*x^2 + 0.1*x^4", n=1001), 2)
        fine = hierarchy(grid_for("0.5*x^2 + 0.1*x^4", n=2001), 2)
        for ec, ef in zip(coarse.e_terms, fine.e_terms):
            assert abs(ec - ef) < 1e-8

    def test_normalization_at_origin(self):
        sol = hierarchy(grid_for("0.5*x^2 + 0.1*x^4"), 3)
        for s in sol.s_terms:
            assert s[0] == 0.0

    def test_oracle_energy_comparison(self):
        # E(g) - gE₀ - E₁ - E₂/g shrinks like E₃/g²; the next series term
        # contaminates at O(1/g), so extrapolate the scaled residuals
        # linearly in 1/g before comparing with the computed E₃
        from trajquad.oracle import solve_1d
        sol = hierarchy(grid_for("0.5*x^2 + 0.1*x^4"), 3)
        scaled = {}
        for g in (8.0, 16.0):
            pot = lambda x, g=g: g * g * (0.5 * x * x + 0.1 * x ** 4)
            width = 8.0 / np.sqrt(g)
            oracle = solve_1d(pot, (-width, width), 1200, 1).eigenvalues[0]
            series = g * sol.e_terms[0] + sol.e_terms[1] + sol.e_terms[2] / g
            scaled[g] = (oracle - series) * g * g
        extrap = 2.0 * scaled[16.0] - scaled[8.0]
        assert extrap == pytest.approx(sol.e_terms[3], rel=0.05)


class TestExactEnergies:
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("P", range(3, 9))
    def test_oscillator_series(self, P, direction):
        # on x-max 1 the potential is positive on both sides for every P
        grid = grid_for(f"0.5*x^2 + 0.1*x^{P}", x_max=1.0, direction=direction)
        assert_energies(hierarchy(grid, 3).e_terms, oscillator_energies(P, 0.1))

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("n", [801, 1001, 2001, 4001, 8001])
    def test_double_well_at_every_grid_size(self, n, direction):
        # v = ½(x²-1)² about x = 1; the origin ladders this replaced passed
        # at one grid size per direction and gave E₃ to 4 digits there
        grid = grid_for("0.5 - x^2 + 0.5*x^4", x_max=0.9, n=n, origin=1.0,
                        direction=direction)
        assert_energies(hierarchy(grid, 3).e_terms,
                        [1.0, -1 / 4, -9 / 64, -89 / 512])

    @pytest.mark.parametrize("beta", ["10", "1000000000000"])
    def test_stiff_quartic(self, beta):
        # P/a² has its zeros at radius 1/√(2β); the jets run in a/scale,
        # so their terms do not grow like that radius^-n and overflow
        sol = hierarchy(grid_for(f"0.5*x^2 + {beta}*x^4"), 3)
        assert_energies(sol.e_terms, quartic_energies(float(beta)))
        assert all(np.isfinite(s).all() for s in sol.s_terms)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_shifted_harmonic_well(self, direction):
        # v = (x - 0.1)²: every correction vanishes exactly
        grid = grid_for("x^2 - 0.2*x + 0.01", origin=0.1, direction=direction)
        sol = hierarchy(grid, 3)
        assert_energies(sol.e_terms, [2 ** -0.5, 0.0, 0.0, 0.0])
        assert max(np.max(np.abs(s)) for s in sol.s_terms) < 1e-15


def full_sample(forms, f, a):
    """The closed forms of f by Horner over every stored coefficient of A
    and C, zeros included: p(a) = a^(len(p)-1)·(p reversed)(1/a)."""
    jet, A, C, m = f
    d = len(forms.P) - 1
    i = np.searchsorted(a, forms.switch, "right")
    j = max(i, np.searchsorted(a, 1.0, "right"))
    out = [_horner(jet, a[:i] / forms.scale)]
    for z, step, w in ((a[i:j], 1, 1.0), (1.0 / a[j:], -1, a[j:])):
        pz = _horner(forms.P[::step], z)
        out.append((_horner(A[::step], z) * w ** (len(A) - 1 - d * m)
                    + _horner(C[::step], z) * np.sqrt(pz)
                    * w ** (len(C) - 1 + d / 2 - d * m)) / pz ** m)
    return np.concatenate(out)


@pytest.mark.parametrize("text, x_max, origin, direction", [
    ("0.5*x^2 + 0.05*x^4", 2.5, 0.0, 1),
    ("0.5*x^2 + 0.2*x^4", 2.5, 0.0, 1),
    ("0.5*x^2 + 0.1*x^3", 1.0, 0.0, -1),
    ("0.5*x^2 + 0.1*x^7", 1.0, 0.0, 1),
    ("0.5 - x^2 + 0.5*x^4", 0.9, 1.0, -1),
    ("0.5*x^2 + 1000000000000*x^4", 2.5, 0.0, 1),
])
def test_sampling_skips_zero_coefficients(text, x_max, origin, direction):
    # A and C of the quartic well vanish in their lowest powers, and may
    # cancel in their top ones; evaluating the nonzero span alone moves
    # S_k by rounding only.  P ends at v's top degree, with no zero above
    grid = grid_for(text, x_max=x_max, n=8001, origin=origin,
                    direction=direction)
    forms = _Forms(grid)
    slopes = [forms.s0]
    for _ in range(3):
        slopes.append(forms.slope(forms.bracket(slopes)))
        got = cumulative_integral(forms.sample(slopes[-1], grid.arc), grid.arc)
        want = cumulative_integral(full_sample(forms, slopes[-1], grid.arc),
                                   grid.arc)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    _, A, C, _ = slopes[-1]
    assert len(grid.P) == len(coefficients(text)) and grid.P[-1] != 0.0
    if text.endswith("x^4") and origin == 0.0:
        assert A[0] == C[0] == 0.0


class TestBreakdown:
    def test_kinked_grid_rejected(self):
        # the grid itself refuses the kink at x = -1, so no hierarchy of any
        # order runs across it
        with pytest.raises(HierarchyBreakdown, match="x = -1 "):
            grid_for("0.5 - x^2 + 0.5*x^4", 2.5, 1001, origin=1.0,
                     direction=-1)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hierarchy(grid_for("0.5*x^2", 2.0, 101), 4)


class TestSeparable:
    def test_harmonic_axes_sum(self):
        axes = [grid_for("0.5*x^2", 3.0, 801), grid_for("0.5*x^2", 3.0, 801)]
        combined = hierarchy_separable(axes, 2)
        assert combined.e_terms[0] == pytest.approx(1.0)  # N/2 with N = 2
        assert combined.energy(5.0) == pytest.approx(5.0, abs=1e-7)

    def test_mixed_frequencies(self):
        axes = [grid_for("0.5*x^2", 3.0, 801), grid_for("2*x^2", 2.0, 801)]
        combined = hierarchy_separable(axes, 1)
        assert combined.e_terms[0] == pytest.approx(1.5)  # ν/2 summed

    def test_axiswise_equals_summed_energies(self):
        # separable total E_k is the sum of per-axis E_k by construction;
        # check against independently run axes
        axes = [grid_for("0.5*x^2 + 0.1*x^4"), grid_for("0.5*x^2 + 0.05*x^4")]
        combined = hierarchy_separable(axes, 2)
        singles = [hierarchy(a, 2) for a in axes]
        for k in range(3):
            total = sum(s.e_terms[k] for s in singles)
            assert combined.e_terms[k] == pytest.approx(total, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_separable([], 1)
