"""Acceptance suite: one check per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.  Exact-arithmetic criteria
use zero tolerance; numeric ones carry the tolerances stated inline.
"""

import contextlib
import math
import random
from fractions import Fraction

import numpy as np

from trajquad.exactalg import VAR_EPS, VAR_GHAT, VAR_R, VAR_U, VAR_X
from trajquad import coulomb as coulomb_mod
from trajquad import excited as excited_mod
from trajquad import gexpand as gexpand_mod
from trajquad import greens as greens_mod
from trajquad import oracle as oracle_mod
from trajquad import oscpert as oscpert_mod
from trajquad import trajectory as trajectory_mod
from trajquad.numerics import _horner, cumulative_integral, derivative

from polyring import Poly, evaluate, lift, lower, parse
from test_coulomb_table import PolyView
from test_oscpert import delta, level

RUE = (VAR_R, VAR_U, VAR_EPS)


def ghat(coeff, power):
    return Poly.monomial(Fraction(coeff), {VAR_GHAT: power}, (VAR_GHAT,))


def P(text):
    return parse(text, RUE)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


def test_criterion_1_quartic_oscillator_series():
    with criterion(1, "x^4 series: Δ(1) = 3/(4g²), Δ(2) = -21/(8g⁵) exactly"):
        series = oscpert_mod.solve_even(p=2, order=2)
        assert delta(series, 1) == ghat(Fraction(3, 4), 2)
        assert delta(series, 2) == ghat(Fraction(-21, 8), 5)


def test_criterion_2_linear_oscillator_series():
    with criterion(2, "x series: shift only at ε², e^{-τ} = e^{-εx/g} to order 6"):
        series = oscpert_mod.solve_odd(p=0, order=6)
        assert delta(series, 2) == ghat(Fraction(-1, 2), 2)
        assert not delta(series, 4).terms and not delta(series, 6).terms
        assert level(series, 1) == {1: ghat(-1, 1)}
        assert level(series, 3) == {3: ghat(Fraction(-1, 6), 3)}
        # the closed resummation forces b₂ = +ε²/2g² (εΔ = -b₂); the
        # reconstruction check below is the authoritative statement
        assert level(series, 2) == {2: ghat(Fraction(1, 2), 2)}
        fact = 1
        for k in range(1, 7):
            fact *= k
            assert level(series, k) == {k: ghat(Fraction((-1) ** k, fact), k)}


def test_criterion_3_coulomb_quadratic_perturbation():
    with criterion(3, "Coulomb U=r²: printed S₂..S₄, E₄, E₈ and assembly, exact"):
        sol = PolyView(coulomb_mod.solve_isotropic(lower(P("r^2")), 8))
        assert sol.s_terms[2] == P("1/3 * eps * r^3")
        assert sol.s_terms[3] == P("eps * r^2")
        assert sol.s_terms[4] == P("-1/10 * eps^2 * r^5")
        assert sol.e_terms[4] == P("3 * eps")
        assert sol.e_terms[8] == P("-129/4 * eps^2")
        assert coulomb_mod.assemble_energy_symbolic(
            [e.render() for e in sol.e_terms]) == \
            "g^4 * -1/2 + g^-4 * 3 * ε + g^-12 * -129/4 * ε^2"


def test_criterion_4_stark_series():
    with criterion(4, "Stark: every printed S₂..S₁₁ term, E₆, E₁₂ and assembly, exact"):
        sol = PolyView(coulomb_mod.solve_stark(12))
        assert sol.s_terms[2] == P("1/2 * eps * r^2 * u")
        assert sol.s_terms[3] == P("eps * r * u")
        assert sol.s_terms[4] == P("-1/24 * eps^2 * r^3") * P("1 + 3 * u^2")
        assert sol.s_terms[5] == P("-7/16 * eps^2 * r^2") * P("1 + u^2")
        assert sol.s_terms[6] == P("1/16 * eps^3 * r^4 * u") * P("1 + u^2")
        assert sol.s_terms[7] == P("13/48 * eps^3 * r^3 * u") * P("3 + u^2")
        assert lift(sol.s_terms[8]).coeff_of(VAR_EPS, 3) == P("53/16 * r^2 * u")
        assert lift(sol.s_terms[8]).coeff_of(VAR_EPS, 4) == \
            P("-1/128 * r^5") * P("1 + 10 * u^2 + 5 * u^4")
        assert lift(sol.s_terms[9]).coeff_of(VAR_EPS, 3) == P("53/8 * r * u")
        assert lift(sol.s_terms[9]).coeff_of(VAR_EPS, 4) == \
            P("-99/512 * r^4") * P("1 + 6 * u^2 + u^4")
        assert lift(sol.s_terms[10]).coeff_of(VAR_EPS, 4) == \
            P("-761/384 * r^3") * P("1 + 3 * u^2")
        assert lift(sol.s_terms[11]).coeff_of(VAR_EPS, 4) == \
            P("-3131/256 * r^2") * P("1 + u^2")
        assert sol.e_terms[6] == P("-9/4 * eps^2")
        assert sol.e_terms[12] == P("-3555/64 * eps^4")
        assert coulomb_mod.assemble_energy_symbolic(
            [e.render() for e in sol.e_terms]) == \
            "g^4 * -1/2 + g^-8 * -9/4 * ε^2 + g^-20 * -3555/64 * ε^4"


def test_criterion_5_greens_identities():
    with criterion(5, "Green's identities on [-8,8]x4001, g=1: 1e-7/1e-6/1e-5"):
        g = 1.0
        prof = greens_mod.harmonic_profile(4001, 8.0)
        x = prof.nodes
        for l in (1, 2, 3, 4):
            f = prof.with_values(greens_mod.hermite_value(l, math.sqrt(g) * x))
            got = greens_mod.apply_Dbar(f, g).values
            expect = (f.values - float(greens_mod.hermite_value(l, 0.0))) / (l * g)
            assert np.max(np.abs(got - expect)) < 1e-7
        moment = greens_mod.gaussian_even_moment(g)
        even = prof.with_values(x ** 2 - moment)
        odd = prof.with_values(x ** 3)
        for f in (even, odd):
            dbar = greens_mod.apply_Dbar(f, g)
            sp = derivative(f.s, f.nodes)
            assert np.max(greens_mod.resolvent_residual(f, dbar, g, sp)) < 1e-6
        h2 = prof.with_values(greens_mod.hermite_value(2, math.sqrt(g) * x))
        for f in (h2, odd):
            dbar = greens_mod.apply_Dbar(f, g)
            assert np.max(greens_mod.greens_function_residual(f, dbar, g)) < 1e-5


def test_criterion_6_hierarchy_sanity():
    with criterion(6, "hierarchy: harmonic corrections < 1e-8, residuals < 1e-7"):
        harmonic = trajectory_mod.build_grid(
            trajectory_mod.coefficients("0.5*x^2"), 3.0, 1201)
        sol = gexpand_mod.hierarchy(harmonic, 2)
        assert abs(sol.e_terms[1]) < 1e-8 and abs(sol.e_terms[2]) < 1e-8
        assert np.max(np.abs(sol.s_terms[0])) < 1e-8
        assert np.max(np.abs(sol.s_terms[1])) < 1e-8
        quartic = trajectory_mod.build_grid(
            trajectory_mod.coefficients("0.5*x^2 + 0.1*x^4"),
            2.5, 2001)
        sol = gexpand_mod.hierarchy(quartic, 3)
        from test_gexpand import pde_residual
        for k in (1, 2, 3):
            assert np.max(pde_residual(sol, quartic, k)) < 1e-7


def test_criterion_7_oracle_cross_checks():
    with criterion(7, "oracle: oscillator within 2|ε³Δ(3)|, radial Coulomb to 5e-7"):
        g, eps = 2.0, 0.02
        series = oscpert_mod.solve_even(p=2, order=3)
        oracle = oracle_mod.solve_1d(
            lambda x: 0.5 * g * g * x * x + eps * x ** 4, (-6, 6), 1500, 1)
        ginv = {VAR_GHAT: 1.0 / g}
        bound = 2.0 * abs(eps ** 3 * evaluate(delta(series, 3), ginv))
        energy = 0.5 * g + sum(evaluate(delta(series, k), ginv) * eps ** k
                               for k in (1, 2))
        assert abs(oracle.eigenvalues[0] - energy) <= bound

        sol = coulomb_mod.solve_isotropic(lower(P("r^2")), 12)
        assembled = sol.table(1.0, 1e-3, float)[3]
        radial = oracle_mod.solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 2500)
        assert abs(assembled - radial.eigenvalues[0]) < 5e-7


def test_criterion_8_excited_states():
    with criterion(8, "excited: Hermite top-two exact (n ≤ 4), harmonic 𝓔₁ = 0 ± 1e-6"):
        for n in (1, 2, 3, 4):
            spec = excited_mod.ExcitedSpec((1,), (n,))
            chi0, _ = excited_mod.chi0_e0(spec)
            names = ("q1", VAR_GHAT)
            total = chi0.embedded(names) + Poly.var(VAR_GHAT, names) * \
                excited_mod.chi1_harmonic(spec).embedded(names)
            coeffs = greens_mod.hermite_coefficients(n)
            expect = Poly.monomial(1, {"q1": n}, names)
            if n >= 2:
                expect = expect + Poly.monomial(
                    Fraction(coeffs[n - 2], coeffs[n]),
                    {"q1": n - 2, VAR_GHAT: 1}, names)
            assert total == expect
        grid = trajectory_mod.build_grid(
            trajectory_mod.coefficients("0.5*x^2"), 3.0, 1601)
        sol = gexpand_mod.hierarchy(grid, 1)
        from test_excited import excited_e1_numeric
        assert abs(excited_e1_numeric(grid, sol.s_terms[0], 1)) < 1e-6


def test_criterion_9_property_suites():
    with criterion(9, "properties: 500 exact algebra cases, Lemma chains n ≤ 6, "
                      "quadrature order"):
        from test_coulomb import grad_dot, integrate_r, laplacian
        from test_oscpert import (gamma_even, gamma_odd, operator_chain_even,
                                  operator_chain_odd)
        rng = random.Random(99)

        def rand_poly(variables):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(0, 3) for _ in variables)
                terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            return Poly(terms, variables)

        for _ in range(500):
            a, b, c = (rand_poly((VAR_X, VAR_GHAT)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            p = rand_poly(RUE)
            assert integrate_r(p).differentiate(VAR_R) == p
            f, h = rand_poly(RUE), rand_poly(RUE)
            lhs = laplacian(f * h)
            rhs = f * laplacian(h) + 2 * grad_dot(f, h) + h * laplacian(f)
            assert lhs == rhs

        for n in range(1, 7):
            total, subtraction = operator_chain_even(n)
            expect = Poly.zero((VAR_X, VAR_GHAT))
            for m in range(1, n + 1):
                expect = expect + \
                    gamma_even(m, n).embedded((VAR_X, VAR_GHAT)) * \
                    Poly.monomial(1, {VAR_X: 2 * m}, (VAR_X, VAR_GHAT))
            assert total == expect
            assert subtraction == gamma_even(1, n)
            total_odd = operator_chain_odd(n)
            expect = Poly.zero((VAR_X, VAR_GHAT))
            for m in range(0, n + 1):
                expect = expect + \
                    gamma_odd(m, n).embedded((VAR_X, VAR_GHAT)) * \
                    Poly.monomial(1, {VAR_X: 2 * m + 1}, (VAR_X, VAR_GHAT))
            assert total_odd == expect

        # S₀ of ½x² + x⁴ is ((1 + 2x²)^{3/2} - 1)/6; the cumulative integral
        # of the grid's slope converges at least 4x per doubling of nodes
        coeffs = trajectory_mod.coefficients("0.5*x^2 + x^4")
        errors = []
        for n in (17, 33):
            grid = trajectory_mod.build_grid(coeffs, 3.0, n)
            s0 = cumulative_integral(np.sqrt(_horner(grid.P, grid.arc)),
                                     grid.arc)
            exact = ((1.0 + 2.0 * grid.nodes ** 2) ** 1.5 - 1.0) / 6.0
            errors.append(np.max(np.abs(s0 - exact)))
        assert errors[0] / errors[1] >= 4.0
