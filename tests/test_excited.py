"""Excited states: exact χ₀/χ₁, Hermite reproduction, numeric 𝓔₁.

The numeric 𝓔₁ below is a reference that no command runs: for a general
1-D potential 𝓔₁ = -b₀, where b₀ is the constant term of
(1/χ₀)(½∇² - ∇S₁·∇)χ₀ expanded near the origin in the trajectory scale.
χ₀ itself is exp(𝓔₀∫da/S₀'), built on the grid with its x^n singular
factor split off analytically.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from trajquad.cli import main
from trajquad.errors import MethodError
from trajquad.exactalg import VAR_GHAT
from trajquad.excited import (
    ExcitedSpec,
    chi0_e0,
    chi1_harmonic,
)
from trajquad.gexpand import hierarchy
from trajquad.greens import hermite_coefficients
from trajquad.numerics import _horner, derivative
from trajquad.trajectory import build_grid, coefficients

from polyring import Poly, lift


def neville_at(xs, ys, x: float) -> float:
    """Neville evaluation of the (xs, ys) interpolant at x."""
    xs = [float(v) for v in xs]
    p = [float(v) for v in ys]
    m = len(p)
    for j in range(1, m):
        for i in range(m - j):
            p[i] = ((x - xs[i]) * p[i + 1] - (x - xs[i + j]) * p[i]) \
                / (xs[i + j] - xs[i])
    return p[0]


class ExtractionFailure(MethodError):
    """Window fit for an origin coefficient did not converge."""


def excited_e1_numeric(grid, s1, n, tol=1e-6):
    """𝓔₁ = -b₀ for the 1-D state behaving like x^n at the origin.

    χ₀ = x^n exp(𝓔₀ J) with J' = 1/S₀' - 1/(νa), so the source term is

        x²·(1/χ₀)(½∇² - ∇S₁·∇)χ₀ =
            ½[(n + 𝓔₀J'x)² - n + 𝓔₀J''x²] - S₁'x(n + 𝓔₀J'x)

    whose x²-coefficient is b₀.  It is read off a degree-4 polynomial fit
    over [x_min, 4·x_min], halving x_min until two fits agree to ``tol``.
    """
    if n < 1:
        raise ValueError("need an excited state (n >= 1)")
    arc = grid.arc
    speed = np.sqrt(_horner(grid.P, arc))
    nu = grid.nu
    e0 = n * nu

    jp = np.empty_like(arc)
    jp[1:] = 1.0 / speed[1:] - 1.0 / (nu * arc[1:])
    jp[0] = neville_at(arc[1:6], jp[1:6], 0.0)
    jpp = derivative(jp, arc)
    s1p = derivative(np.asarray(s1, dtype=float), arc)

    w_x2 = 0.5 * ((n + e0 * jp * arc) ** 2 - n + e0 * jpp * arc ** 2) \
        - s1p * arc * (n + e0 * jp * arc)

    h = arc[1] - arc[0]
    x_min = arc[-1] / 8.0
    prev = None
    while x_min >= 3.0 * h:
        mask = (arc >= x_min) & (arc <= 4.0 * x_min)
        if np.count_nonzero(mask) < 7:
            break
        coeffs = npoly.polyfit(arc[mask], w_x2[mask], 4)
        b0 = float(coeffs[2])
        if prev is not None and abs(b0 - prev) <= tol * max(1.0, abs(b0)):
            return -b0
        prev = b0
        x_min /= 2.0
    raise ExtractionFailure(
        "window fits for the origin coefficient did not converge")


class TestSpec:
    def test_rejects_ground_state(self):
        with pytest.raises(ValueError):
            ExcitedSpec((1, 2), (0, 0))

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError,
                           match="^occupation numbers must be non-negative$"):
            ExcitedSpec(("1", "1"), (1, -1))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ExcitedSpec((1,), (1, 0))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ExcitedSpec((0,), (1,))

    def test_zero_denominator_frequency_is_a_bad_value(self, capsys):
        # Fraction("1/0") raises ZeroDivisionError, which the CLI once
        # reported as a floating-point range error
        assert main(["--command", "excited", "--freqs", "1,1/0",
                     "--occupations", "1,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: bad frequency in ('1', '1/0'): "
                       "zero denominator\n")


class TestChi0:
    def test_single_mode(self):
        chi0, e0 = chi0_e0(ExcitedSpec((1,), (1,)))
        assert chi0 == Poly.var("q1", ("q1",))
        assert e0 == 1

    def test_weighted_sum(self):
        _, e0 = chi0_e0(ExcitedSpec((1, 2), (2, 1)))
        assert e0 == 4

    def test_rational_frequencies(self):
        _, e0 = chi0_e0(ExcitedSpec((Fraction(1, 2), 3), (2, 1)))
        assert e0 == 4


class TestChi1:
    def test_n2_constant(self):
        assert chi1_harmonic(ExcitedSpec((1,), (2,))) == \
            Poly.const(Fraction(-1, 2), ("q1",))

    def test_low_occupation_vanishes(self):
        assert not chi1_harmonic(ExcitedSpec((1, 1), (1, 1))).terms

    def test_n3_linear(self):
        got = chi1_harmonic(ExcitedSpec((1,), (3,)))
        assert got == Poly.monomial(Fraction(-3, 2), {"q1": 1})

    def test_hermite_top_two_terms(self):
        # χ₀ + ĝχ₁ must reproduce x^n - (n(n-1)/4)ĝ x^{n-2}
        for n in (1, 2, 3, 4):
            spec = ExcitedSpec((1,), (n,))
            chi0, _ = chi0_e0(spec)
            names = ("q1", VAR_GHAT)
            total = chi0.embedded(names) + \
                Poly.var(VAR_GHAT, names) * chi1_harmonic(spec).embedded(names)
            coeffs = hermite_coefficients(n)
            expect = Poly.monomial(1, {"q1": n}, names)
            if n >= 2:
                expect = expect + Poly.monomial(
                    Fraction(coeffs[n - 2], coeffs[n]),
                    {"q1": n - 2, VAR_GHAT: 1}, names)
            assert total == expect

    def test_multi_mode_poles_cancel(self):
        chi1 = chi1_harmonic(ExcitedSpec((1, 2), (2, 3)))
        assert all(e >= 0 for exps in chi1.terms for e in exps)


class TestTransportResidual:
    def test_harmonic_transport_identity(self):
        # ∇S₀·∇χ₀ = 𝓔₀χ₀ exactly, with S₀ = Σ ν_i q_i²/2
        spec = ExcitedSpec((1, 2, 3), (2, 0, 1))
        chi0, e0 = chi0_e0(spec)
        chi0 = lift(chi0)
        names = spec.variables()
        transport = Poly.zero(names)
        for name, nu in zip(names, spec.freqs):
            q = Poly.var(name, names)
            transport = transport + nu * q * chi0.differentiate(name)
        assert transport == e0 * chi0


class TestDegeneracy:
    def test_detection_only(self, capsys):
        # levels sharing 𝓔₀ share a multiplet id, numbered by rising 𝓔₀
        assert main(["--command", "excited", "--freqs", "1,2",
                     "--occupations", "2,0;0,1;1,1;4,0;0,2"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        got = [(r.split(",")[2], r.split(",")[-1]) for r in rows]
        assert got == [("2", "0"), ("2", "0"), ("3", "1"), ("4", "2"), ("4", "2")]


class TestNumericE1:
    def test_harmonic_vanishes(self):
        grid = build_grid(coefficients("0.5*x^2"), 3.0, 1601)
        sol = hierarchy(grid, 1)
        for n in (1, 2, 3):
            assert abs(excited_e1_numeric(grid, sol.s_terms[0], n)) < 1e-6

    def test_window_consistency(self):
        # two grid densities must agree on the extracted coefficient
        values = []
        for nodes in (1201, 2401):
            grid = build_grid(coefficients("0.5*x^2 + 0.05*x^4"),
                              2.5, nodes)
            sol = hierarchy(grid, 1)
            values.append(excited_e1_numeric(grid, sol.s_terms[0], 1))
        assert values[0] == pytest.approx(values[1], abs=1e-5)

    def test_quartic_known_gap_coefficient(self):
        # gap(1↔0) = g·ν + 3β + O(1/g) for v = x²/2 + βx⁴
        beta = 0.05
        grid = build_grid(coefficients(f"0.5*x^2 + {beta}*x^4"),
                          2.5, 2001)
        sol = hierarchy(grid, 1)
        got = excited_e1_numeric(grid, sol.s_terms[0], 1)
        assert got == pytest.approx(3 * beta, abs=1e-6)

    def test_oracle_gap_comparison(self):
        # residual of gap - (g𝓔₀ + 𝓔₁) decays like 1/g across g = 4, 8
        from trajquad.oracle import solve_1d
        beta = 0.05
        grid = build_grid(coefficients(f"0.5*x^2 + {beta}*x^4"),
                          2.5, 2001)
        sol = hierarchy(grid, 1)
        e1 = excited_e1_numeric(grid, sol.s_terms[0], 1)
        resid = {}
        for g in (4.0, 8.0):
            pot = lambda x, g=g: g * g * (0.5 * x * x + beta * x ** 4)
            width = 8.0 / np.sqrt(g)
            res = solve_1d(pot, (-width, width), 1000, 2)
            resid[g] = (res.eigenvalues[1] - res.eigenvalues[0]) - (g + e1)
        assert abs(resid[8.0]) < abs(resid[4.0])
        assert resid[8.0] / resid[4.0] == pytest.approx(0.5, abs=0.15)

    def test_extraction_failure_on_hopeless_grid(self):
        grid = build_grid(coefficients("0.5*x^2"), 2.0, 33)
        rough = np.sin(37.0 * grid.arc) * 1e-2
        with pytest.raises(ExtractionFailure):
            excited_e1_numeric(grid, rough, 1, tol=1e-12)
