"""Coulomb/Stark recursion: exact coefficients, residuals, integral check.

The radial-polar Laplacian and gradient, the wave-equation residuals and
the integral shift formula below are independent references: the solver
runs on its own integer kernel and never calls them.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajquad.coulomb import (
    _check_invariants,
    _field_width,
    _integer_chain,
    assemble_energy_symbolic,
    solve_perturbed,
    solve_stark,
)
from trajquad.errors import LogSingularity, MethodError
from trajquad.exactalg import VAR_EPS, VAR_R, VAR_U, _packed
from trajquad.numerics import gauss_panels

from polyring import Poly, lift, lower, parse
from test_coulomb_table import PolyView

RUE = (VAR_R, VAR_U, VAR_EPS)


def P(text):
    return parse(text, RUE)


def laplacian(poly):
    """Exact radial-polar Laplacian (r, u = cos a):

    (1/r²) ∂_r(r² ∂_r ·) + (1/r²) ∂_u((1-u²) ∂_u ·).
    """
    poly = lift(poly)
    if VAR_R not in poly.variables:
        poly = poly.embedded(tuple(poly.variables) + (VAR_R,))
    radial = (poly.differentiate(VAR_R).shifted(VAR_R, 2)
              .differentiate(VAR_R).shifted(VAR_R, -2))
    if VAR_U in poly.variables:
        du = poly.differentiate(VAR_U)
        u = Poly.var(VAR_U, poly.variables)
        one_minus_u2 = 1 - u * u
        angular = (one_minus_u2 * du).differentiate(VAR_U).shifted(VAR_R, -2)
    else:
        angular = Poly.zero(poly.variables)
    return radial + angular


def grad_dot(a, b):
    """Exact radial-polar ∇a·∇b = ∂_r a ∂_r b + (1-u²) r^-2 ∂_u a ∂_u b."""
    aa, bb = Poly._aligned(lift(a), lift(b))
    if VAR_R not in aa.variables:
        aa = aa.embedded(tuple(aa.variables) + (VAR_R,))
        bb = bb.embedded(aa.variables)
    out = aa.differentiate(VAR_R) * bb.differentiate(VAR_R)
    if VAR_U in aa.variables:
        u = Poly.var(VAR_U, aa.variables)
        one_minus_u2 = 1 - u * u
        out = out + (one_minus_u2 * aa.differentiate(VAR_U)
                     * bb.differentiate(VAR_U)).shifted(VAR_R, -2)
    return out


def defining_residuals(sol, u):
    """Exact residual of every retained grade of the full wave equation.

    Substituting the graded expansions into -½(∇S)² + ½∇²S - g²/r + εU = E
    and collecting the coefficient of g^(4-2n) gives, for each n ≤ order,

        -½ Σ_{m+k=n} ∇S_m·∇S_k + ½∇²S_{n-1} - δ_{n,1}/r + δ_{n,2} εU - E_n

    which must vanish identically, U being the perturbation ``sol`` was
    solved for.  Grades beyond the truncation involve dropped S_n and are
    not asserted.
    """
    sol = PolyView(sol)
    eps = Poly.var(VAR_EPS, RUE)
    residuals = []
    for n in range(sol.order + 1):
        total = Poly.zero(RUE)
        for m in range(n + 1):
            total = total - grad_dot(sol.s_terms[m], sol.s_terms[n - m]) * Fraction(1, 2)
        if n >= 1:
            total = total + laplacian(sol.s_terms[n - 1]) * Fraction(1, 2)
        if n == 1:
            total = total - Poly.monomial(1, {VAR_R: -1}, RUE)
        if n == 2:
            total = total + eps * u
        residuals.append(total - sol.e_terms[n])
    return residuals


@dataclass(frozen=True)
class ShiftCheck:
    """Integral-form energy estimate and its first two ε-coefficients."""

    energy: float
    first_order: float
    second_order: float


def integral_shift_check(sol, u, g, eps):
    """Cross-check the isotropic series against the integral shift formula.

    With ψ ≈ e^{-g²r}(1 - εA(r)), A the complete ε-linear part of S, the
    ground-state shift is the ratio of radial quadratures

        ΔE(ε) = ∫ e^{-2g²r}(1-εA) εU r² dr / ∫ e^{-2g²r}(1-εA) r² dr

    whose ε and ε² Taylor coefficients must reproduce the recursion's
    energies (first-order wave function → second-order energy).
    """
    if u.differentiate(VAR_U):
        raise ValueError("integral check is for isotropic perturbations")
    if sol.order < 3:
        raise ValueError("need the full ε-linear wave function (order >= 3)")

    linear = [(g ** (-(2 * n - 2)), part) for n in range(1, sol.order + 1)
              if (part := lift(sol.s_terms[n]).coeff_of(VAR_EPS, 1))]

    def a_profile(r):
        total = 0.0
        for weight, part in linear:
            total += weight * part.evaluate({VAR_R: r, VAR_U: 0.0})
        return total

    def u_of(r):
        return u.evaluate({VAR_R: r, VAR_U: 0.0, VAR_EPS: 1.0})

    r_cut = 40.0 / g ** 2
    weight = lambda r: np.exp(-2.0 * g ** 2 * r) * r ** 2

    def integral(f):
        # 16-point Gauss on 64 panels of [0, r_cut]: each spans 1.25 units
        # of the exponent 2g²r, so the rule meets the integrals to rounding
        # however they grow with r_cut
        return float(np.sum(gauss_panels(f, np.linspace(0.0, r_cut, 65))))

    d0 = integral(weight)
    d1 = integral(lambda r: weight(r) * a_profile(r))
    n0 = integral(lambda r: weight(r) * u_of(r))
    n1 = integral(lambda r: weight(r) * u_of(r) * a_profile(r))
    first = n0 / d0
    second = n0 * d1 / d0 ** 2 - n1 / d0
    energy = -0.5 * g ** 4 + (eps * n0 - eps ** 2 * n1) / (d0 - eps * d1)
    return ShiftCheck(energy=energy, first_order=first, second_order=second)


def integrate_r(poly):
    """Radial antiderivative with zero integration constant.

    Raises LogSingularity when an r^-1 term is present; the message
    names that term's angular coefficient, since its appearance means
    the energy-coefficient rule failed upstream.
    """
    i = poly.variables.index(VAR_R)
    bad = poly.coeff_of(VAR_R, -1)
    if bad:
        raise LogSingularity(
            f"r^-1 source with angular coefficient {bad.render()}")
    out = {}
    for exps, coeff in poly.terms.items():
        k = exps[i]
        out[exps[:i] + (k + 1,) + exps[i + 1:]] = coeff / (k + 1)
    return Poly(out, poly.variables)


def reference_chain(u_poly, order):
    """The recursion on polynomial arithmetic: (s_terms, e_terms).

    An independent reference for the solver's integer kernel, with two of
    its shortcuts: the gradients cached per order and each unordered pair
    {m, n-m} of K_n's sum multiplied once.  It keeps (1-u²)∂_u S_m in its
    cache and multiplies it by ∂_u S_{n-m} pair by pair, where the kernel
    sums the ∂_u products first and applies (1-u²) to the sum.
    """
    u_poly = lift(u_poly).embedded(RUE)
    s_terms = [Poly.var(VAR_R, RUE)]
    e_terms = [Poly.const(Fraction(-1, 2), RUE)]
    eps = Poly.var(VAR_EPS, RUE)
    u = Poly.var(VAR_U, RUE)
    one_minus_u2 = 1 - u * u
    grads = [None]
    for n in range(1, order + 1):
        total = laplacian(s_terms[n - 1])
        for m in range(1, n // 2 + 1):
            (dr_a, _, w_a), (dr_b, du_b, _) = grads[m], grads[n - m]
            dot = dr_a * dr_b + (w_a * du_b).shifted(VAR_R, -2)
            total = total - (dot if 2 * m == n else 2 * dot)
        k_n = total * Fraction(1, 2)
        if n == 1:
            k_n = k_n - Poly.monomial(1, {VAR_R: -1}, RUE)
        if n == 2:
            k_n = k_n + eps * u_poly
        e_n = k_n.coeff_of(VAR_R, 0).angular_average()
        s_n = integrate_r(k_n - e_n)
        s_terms.append(s_n)
        e_terms.append(e_n)
        if n < order:
            du = s_n.differentiate(VAR_U)
            grads.append((s_n.differentiate(VAR_R), du, one_minus_u2 * du))
    return s_terms, e_terms


def assert_matches_reference(sol, reference):
    """Every S_n and E_n of ``sol`` equals the reference's, as value and text."""
    s_ref, e_ref = reference
    sol = PolyView(sol)
    for got, want in zip((sol.s_terms, sol.e_terms), (s_ref, e_ref)):
        assert len(got) == sol.order + 1 <= len(want)
        for n, poly in enumerate(got):
            assert poly == want[n], n
            assert poly.render() == want[n].render(), n


# U = Σ c·r^a·u^b with a >= 1 and b <= a + 1, coefficients with denominators
ANISOTROPIC = st.dictionaries(
    st.integers(1, 3).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, a + 1), st.just(0))),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    min_size=1, max_size=3)


def energy(sol, g, eps):
    """The numeric energy the CLI prints, ``CoulombSolution.table``'s."""
    return sol.table(g, eps, float)[3]


@pytest.fixture(scope="module")
def quadratic():
    return PolyView(solve_perturbed(lower(P("r^2")), 8))


@pytest.fixture(scope="module")
def stark():
    return PolyView(solve_stark(12))


@pytest.fixture(scope="module")
def stark30():
    return PolyView(solve_stark(30))


@pytest.fixture(scope="module")
def stark90():
    return solve_stark(90)


class TestIsotropic:
    def test_leading_order(self, quadratic):
        assert quadratic.s_terms[0] == P("r")
        assert quadratic.e_terms[0] == P("-1/2")

    def test_printed_chain(self, quadratic):
        assert not quadratic.s_terms[1].terms
        assert quadratic.s_terms[2] == P("1/3 * eps * r^3")
        assert quadratic.s_terms[3] == P("eps * r^2")
        assert quadratic.s_terms[4] == P("-1/10 * eps^2 * r^5")
        assert quadratic.s_terms[5] == P("-7/8 * eps^2 * r^4")
        assert quadratic.s_terms[6] == P("-43/12 * eps^2 * r^3 + 1/14 * eps^3 * r^7")
        assert quadratic.s_terms[7] == P("-43/4 * eps^2 * r^2 + 13/12 * eps^3 * r^6")

    def test_printed_energies(self, quadratic):
        assert quadratic.e_terms[4] == P("3 * eps")
        assert quadratic.e_terms[8] == P("-129/4 * eps^2")
        for k in (1, 2, 3, 5, 6, 7):
            assert not quadratic.e_terms[k].terms

    def test_linear_perturbation(self):
        sol = PolyView(solve_perturbed(lower(P("r")), 4))
        assert sol.e_terms[3] == P("3/2 * eps")

    def test_cubic_perturbation(self):
        # first-order shift of U=r^l sits at E_{l+2} = <r^l> coefficient;
        # hydrogen ground state gives <r^3> = 15/(2g^6)
        sol = solve_perturbed(lower(P("r^3")), 6)
        view = PolyView(sol)
        for k in (1, 2, 3, 4):
            assert not view.e_terms[k].terms
        assert view.e_terms[5] == P("15/2 * eps")
        resid = defining_residuals(sol, P("r^3"))
        assert all(not r for r in resid)

    def test_rejects_origin_offset(self):
        with pytest.raises(ValueError):
            solve_perturbed(lower(P("1 + r^2")), 4)

    def test_rejects_epsilon_in_perturbation(self):
        # the recursion multiplies U by ε itself; ε·r² must not run as ε²·r²
        with pytest.raises(ValueError, match="must not depend on ε"):
            solve_perturbed(lower(P("eps * r^2")), 6)
        with pytest.raises(ValueError, match="must not depend on ε"):
            solve_perturbed(lower(P("eps * r * u")), 6)

    def test_no_odd_angular_terms(self, quadratic):
        for s in quadratic.s_terms:
            assert not any(b for _, b, _ in s.terms)


class TestStark:
    def test_low_orders_match_isotropic_start(self, stark):
        assert stark.s_terms[0] == P("r")
        assert not stark.s_terms[1].terms
        for k in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11):
            assert not stark.e_terms[k].terms

    def test_printed_wave_terms(self, stark):
        assert stark.s_terms[2] == P("1/2 * eps * r^2 * u")
        assert stark.s_terms[3] == P("eps * r * u")
        assert stark.s_terms[4] == P("-1/24 * eps^2 * r^3") + \
            P("-1/8 * eps^2 * r^3 * u^2")
        assert stark.s_terms[5] == P("-7/16 * eps^2 * r^2 - 7/16 * eps^2 * r^2 * u^2")
        assert stark.s_terms[6] == P("1/16 * eps^3 * r^4 * u + 1/16 * eps^3 * r^4 * u^3")
        assert stark.s_terms[7] == P("13/16 * eps^3 * r^3 * u + 13/48 * eps^3 * r^3 * u^3")

    def test_higher_wave_terms_epsilon_graded(self, stark):
        # printed values cover the leading ε-order of S₈..S₁₁
        assert lift(stark.s_terms[8]).coeff_of(VAR_EPS, 3) == P("53/16 * r^2 * u")
        assert lift(stark.s_terms[8]).coeff_of(VAR_EPS, 4) == \
            P("-1/128 * r^5") * P("1 + 10 * u^2 + 5 * u^4")
        assert lift(stark.s_terms[9]).coeff_of(VAR_EPS, 3) == P("53/8 * r * u")
        assert lift(stark.s_terms[9]).coeff_of(VAR_EPS, 4) == \
            P("-99/512 * r^4") * P("1 + 6 * u^2 + u^4")
        assert lift(stark.s_terms[10]).coeff_of(VAR_EPS, 4) == \
            P("-761/384 * r^3") * P("1 + 3 * u^2")
        assert lift(stark.s_terms[11]).coeff_of(VAR_EPS, 4) == \
            P("-3131/256 * r^2") * P("1 + u^2")

    def test_energies(self, stark):
        assert stark.e_terms[6] == P("-9/4 * eps^2")
        assert stark.e_terms[12] == P("-3555/64 * eps^4")

    def test_assembled_symbolic(self, stark):
        assert assemble_energy_symbolic(
            [e.render() for e in stark.e_terms]) == \
            "g^4 * -1/2 + g^-8 * -9/4 * ε^2 + g^-20 * -3555/64 * ε^4"

    def test_defining_residuals_vanish(self):
        resid = defining_residuals(solve_stark(12), P("r * u"))
        assert all(not r for r in resid)

    def test_sixth_order_literature_coefficient(self):
        # the classic hydrogen ground-state field series continues
        # -1/2 - (9/4)F² - (3555/64)F⁴ - (2512779/512)F⁶; the recursion
        # must reproduce the sixth-order coefficient it was never shown
        sol = PolyView(solve_stark(18))
        assert sol.e_terms[18] == P("-2512779/512 * eps^6")
        for k in (13, 14, 15, 16, 17):
            assert not sol.e_terms[k].terms

    def test_eighth_order_literature_coefficient(self, stark30):
        # the hydrogen hyperpolarizability series continues with
        # -(13012777803/16384)F⁸ (Silverstone 1978; Alliluev & Malkin 1974)
        assert stark30.e_terms[24] == P("-13012777803/16384 * eps^8")
        for k in range(19, 24):
            assert not stark30.e_terms[k].terms

    def test_tenth_order_regression(self, stark30):
        # pinned from this recursion, not from the literature
        assert stark30.e_terms[30] == P("-25497693122265/131072 * eps^10")
        for k in range(25, 30):
            assert not stark30.e_terms[k].terms

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            solve_stark(1)

    def test_order_90_text_pinned(self, stark90):
        # every S_n and E_n of the deepest chain the tests run, where the u-
        # and ε-powers reach 45, as the tuple-keyed kernel rendered them
        # before the kernel's keys were packed
        e_texts, s_texts, _, _ = stark90.table(1.0, 0.0, float)
        text = "\n".join(s_texts + e_texts)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9631c8487914d4fb239efa6a56dfc64f745e4a9539dc108595a2e12e14434f02"

    def test_dispersion_relation_large_order(self, stark90):
        # the ground-state width Γ(F) = (4/F)e^{-2/(3F)} fixes, through the
        # dispersion relation, E_{2N} ≈ -(4/π)(3/2)^{2N+1}(2N)! (Benassi,
        # Grecchi, Harrell & Simon, PRL 42 (1979) 704; Silverstone, Adams,
        # Čížek & Otto, PRL 43 (1979) 1498).  With r_N the ratio to that
        # form, the one-step Richardson value A_N = N·r_N - (N-1)·r_{N-1}
        # removes the 1/N correction and climbs towards 1.
        def ratio(big_n):
            num, den = stark90.e_terms[6 * big_n]   # keyed by ε-power
            e_2n = Fraction(num[2 * big_n], den)
            leading = Fraction(3, 2) ** (2 * big_n + 1) * math.factorial(2 * big_n)
            return -math.pi / 4 * float(e_2n / leading)

        r = {big_n: ratio(big_n) for big_n in range(7, 16)}
        a = [big_n * r[big_n] - (big_n - 1) * r[big_n - 1] for big_n in range(8, 16)]
        assert all(x < y for x, y in zip(a, a[1:])), a
        assert 0.985 < a[-1] < 1, a

    def test_dispersion_relation_order_150(self):
        # the same Richardson values on the separated chain's E_{2N} to
        # N = 25, 6N = 150: they keep climbing and close to within 0.5%
        sol = solve_stark(150)

        def ratio(big_n):
            num, den = sol.e_terms[6 * big_n]
            e_2n = Fraction(num[2 * big_n], den)
            leading = Fraction(3, 2) ** (2 * big_n + 1) * math.factorial(2 * big_n)
            return -math.pi / 4 * float(e_2n / leading)

        r = {big_n: ratio(big_n) for big_n in range(7, 26)}
        a = [big_n * r[big_n] - (big_n - 1) * r[big_n - 1] for big_n in range(8, 26)]
        assert all(x < y for x, y in zip(a, a[1:])), a
        assert 0.995 < a[-1] < 1, a


class TestZeeman:
    def test_literature_coefficients(self):
        # hydrogen in a magnetic field B: ε(x² + y²) with ε = B²/8 is
        # U = r² - r²u², and the ground-state series
        # -1/2 + B²/4 - 53B⁴/192 + 5581B⁶/4608 (Čížek & Vrscay, Int. J.
        # Quantum Chem. 21 (1982) 27) reads 2ε, -53/3·ε², 5581/9·ε³
        sol = PolyView(solve_perturbed(lower(P("r^2 - r^2 * u^2")), 12))
        want = {4: P("2 * eps"), 8: P("-53/3 * eps^2"),
                12: P("5581/9 * eps^3")}
        for n in range(1, 13):
            assert sol.e_terms[n] == want.get(n, P("0")), n

    def test_large_order_ratio(self):
        # with e_k the ε^k coefficient, e_{k+1}/e_k ≈ -(32/π²)k² at large k
        # (Avron, Ann. Phys. 131 (1981) 73); q_k = e_{k+1}/(e_k k²) and the
        # one-step Richardson value A_k = k·q_k - (k-1)·q_{k-1} fall
        # towards -32/π², still 2.9% short at k = 14
        sol = PolyView(solve_perturbed(lower(P("r^2 - r^2 * u^2")), 60))
        e = {k: lift(sol.e_terms[4 * k]).terms[(0, 0, k)] for k in range(4, 16)}
        q = {k: float(e[k + 1] / e[k] / k ** 2) for k in range(4, 15)}
        a = [k * q[k] - (k - 1) * q[k - 1] for k in range(5, 15)]
        assert all(x > y for x, y in zip(a, a[1:])), a
        assert a[-1] == pytest.approx(-32 / math.pi ** 2, rel=0.03), a


class TestIntegerKernel:
    """The solver's integer kernel against the polynomial reference recursion."""

    def test_stark_orders(self):
        reference = reference_chain(P("r * u"), 30)
        for order in range(2, 31):
            assert_matches_reference(solve_stark(order), reference)

    @pytest.mark.parametrize("text", ["r^2", "r^3", "r^4", "r^2 + r^3"])
    def test_isotropic_orders(self, text):
        reference = reference_chain(P(text), 16)
        for order in range(6, 17):
            assert_matches_reference(solve_perturbed(lower(P(text)), order), reference)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(ANISOTROPIC)
    def test_random_anisotropic(self, terms):
        u_poly = Poly(terms, RUE)
        assert_matches_reference(solve_perturbed(lower(u_poly), 6),
                                 reference_chain(u_poly, 6))

    # the widest u-degrees of the axial domain, where each ε brings up to
    # five powers of u into the packed u-field
    @pytest.mark.parametrize("text", ["r^5 * u^5", "r^4 * u^4 + r"])
    def test_wide_angular_degree(self, text):
        reference = reference_chain(P(text), 8)
        assert_matches_reference(solve_perturbed(lower(P(text)), 8), reference)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(ANISOTROPIC)
    def test_packed_fields_fit(self, terms):
        # every term r^a·u^b·ε^e of the chain, as the reference forms it,
        # keeps the bound _field_width is sized from, e ≤ ⌊order/2⌋ and
        # b ≤ max(1, b_U)·e, so its u- and ε-fields fit below 2^W
        order = 8
        u_poly = Poly(terms, RUE)
        width = _field_width(lower(u_poly).terms, order)
        per_eps = max(1, *(b for _, b, _ in terms))
        s_ref, e_ref = reference_chain(u_poly, order)
        for poly in s_ref + e_ref:
            for _, b, e in poly.terms:
                assert e <= order // 2 and b <= per_eps * e
                assert b < 1 << width and e < 1 << width

    # r²u⁴ + r sends a u²- and u⁴-dependent r⁰ part into E_4's angular
    # average, so its r^-1 coefficient also checks that step
    @pytest.mark.parametrize("text, coefficient", [
        ("r * u^3", "-9/2 * u * ε + 15/2 * u^3 * ε"),
        ("r^2 * u^4 + r", "-18/5 * ε + 36 * u^2 * ε - 42 * u^4 * ε"),
    ])
    def test_log_singularity_message(self, text, coefficient):
        for solve in (solve_perturbed, reference_chain):
            with pytest.raises(LogSingularity) as info:
                solve(lower(P(text)), 6)
            assert str(info.value) == \
                f"r^-1 source with angular coefficient {coefficient}"


def stark_pairs(order):
    """The Stark chain's S_n and E_n pairs and the width of their keys."""
    sol = _integer_chain({(1, 1, 0): 1}, 1, order)
    return sol.s_terms, sol.e_terms, sol.width


def with_terms(pairs, n, extra, width):
    """A copy of ``pairs`` whose n-th numerators have ``extra``, keyed by
    (a, b, e) triples, added at the packed keys of ``width``."""
    num, den = pairs[n]
    added = dict(num)
    for key, c in _packed(extra, width).items():
        added[key] = added.get(key, 0) + c
    return pairs[:n] + [(added, den)] + pairs[n + 1:]


class TestInvariantChecks:
    """The chain's own checks on corrupted (numerators, denominator) pairs.

    ``test_invariant_checks_survive_python_O`` runs this class under
    ``python -O``, which strips assert statements, so the class checks
    with ``pytest.raises`` and ``pytest.fail`` alone.
    """

    @staticmethod
    def raises(s_terms, e_terms, width, message):
        with pytest.raises(MethodError) as info:
            _check_invariants(s_terms, e_terms, width)
        if str(info.value) != message:
            pytest.fail(f"{str(info.value)!r} != {message!r}")

    def test_sound_chain_passes(self):
        s_terms, e_terms, width = stark_pairs(8)
        _check_invariants(s_terms, e_terms, width)
        # an r¹ part of zero angular mean in every ε power is allowed:
        # 3 - 9u² averages to zero and u is odd
        zero_mean = {(1, 0, 1): 3, (1, 2, 1): -9, (1, 1, 2): 4}
        _check_invariants(with_terms(s_terms, 4, zero_mean, width), e_terms,
                          width)

    def test_s_with_an_r0_term(self):
        s_terms, e_terms, width = stark_pairs(8)
        self.raises(with_terms(s_terms, 3, {(0, 1, 2): 1}, width), e_terms,
                    width, "S_3 does not vanish at the origin")

    def test_s_with_an_averaged_r1_slope(self):
        # the ε¹ part averages to zero, the ε³ part r·u²·ε³ to r·ε³/3
        s_terms, e_terms, width = stark_pairs(8)
        slope = {(1, 0, 1): 3, (1, 2, 1): -9, (1, 2, 3): 1}
        self.raises(with_terms(s_terms, 5, slope, width), e_terms, width,
                    "S_5 keeps a radially-constant slope at r=0")

    @pytest.mark.parametrize("key", [(1, 0, 0), (0, 2, 1), (-1, 0, 2)])
    def test_e_with_an_r_or_u_power(self, key):
        s_terms, e_terms, width = stark_pairs(8)
        self.raises(s_terms, with_terms(e_terms, 6, {key: 1}, width), width,
                    "E_6 is not a pure ε-polynomial")


def test_invariant_checks_survive_python_O():
    # the chain's invariants raise MethodError rather than assert, so that
    # python -O, which strips assert statements, keeps them
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::TestInvariantChecks"],
        capture_output=True, text=True, cwd=root, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("6 passed"), done.stdout


class TestAssembly:
    def test_unperturbed_energy(self):
        sol = solve_perturbed(lower(P("r^2")), 8)
        assert energy(sol, g=1.0, eps=0.0) == pytest.approx(-0.5)

    def test_nonpositive_g_rejected(self):
        sol = solve_perturbed(lower(P("r^2")), 4)
        with pytest.raises(ValueError, match="^g must be positive$"):
            energy(sol, g=0.0, eps=0.0)

    def test_symbolic_assembly(self, quadratic):
        assert assemble_energy_symbolic(
            [e.render() for e in quadratic.e_terms]) == \
            "g^4 * -1/2 + g^-4 * 3 * ε + g^-12 * -129/4 * ε^2"

    def test_numeric_assembly_matches_terms(self):
        got = energy(solve_perturbed(lower(P("r^2")), 8), g=1.2, eps=2e-3)
        expect = -0.5 * 1.2 ** 4 + 3 * 2e-3 / 1.2 ** 4 \
            - 129 / 4 * (2e-3) ** 2 / 1.2 ** 12
        assert got == pytest.approx(expect, rel=1e-14)

    def test_exponent_evaluator(self, quadratic):
        # the order-3 chain is the order-8 chain cut after S₃
        short = PolyView(solve_perturbed(lower(P("r^2")), 3))
        assert [lift(s) for s in short.s_terms] == quadratic.s_terms[:4]


class TestIntegralShift:
    def test_first_order_coefficient(self, quadratic):
        chk = integral_shift_check(quadratic, P("r^2"), g=1.0, eps=1e-3)
        assert chk.first_order == pytest.approx(3.0, abs=1e-8)

    def test_second_order_coefficient(self, quadratic):
        for g in (1.0, 1.3):
            chk = integral_shift_check(quadratic, P("r^2"), g=g, eps=1e-3)
            assert chk.second_order == pytest.approx(-129 / 4 / g ** 12, rel=1e-6)

    def test_energy_at_zero_coupling(self, quadratic):
        chk = integral_shift_check(quadratic, P("r^2"), g=1.0, eps=0.0)
        assert chk.energy == pytest.approx(-0.5, abs=1e-12)

    def test_rejects_anisotropic(self, stark):
        with pytest.raises(ValueError):
            integral_shift_check(stark, P("r * u"), g=1.0, eps=1e-3)

    @pytest.mark.parametrize("powers", [{3: 1}, {2: 1, 4: 1}])
    def test_growing_integrals_at_small_g(self, powers):
        # at g = 0.8 the integrals grow like r_cut^(deg U + 2), r_cut = 62.5;
        # an absolute tolerance took seconds (r³) or did not return (r² + r⁴)
        g = 0.8
        u = P(" + ".join(f"r^{k}" for k in powers))
        sol = PolyView(solve_perturbed(lower(u), 12))
        start = time.perf_counter()
        chk = integral_shift_check(sol, u, g=g, eps=1e-3)
        assert time.perf_counter() - start < 1.0
        assert all(type(v) is float
                   for v in (chk.energy, chk.first_order, chk.second_order))
        # ⟨U⟩ under e^{-2g²r} r²: Σ c_k (k+2)!/(2·(2g²)^k)
        first = sum(c * math.factorial(k + 2) / (2 * (2 * g * g) ** k)
                    for k, c in powers.items())
        second = sum(float(lift(e).coeff_of(VAR_EPS, 2).constant()) * g ** (4 - 2 * n)
                     for n, e in enumerate(sol.e_terms))
        assert chk.first_order == pytest.approx(first, rel=1e-10)
        assert chk.second_order == pytest.approx(second, rel=1e-10)


class TestOracleAgreement:
    def test_isotropic_eigenvalue(self):
        # U=r², g=1.2, ε=0.002: N=8 assembly against the radial oracle;
        # the ε³ series tail sits near 3e-7 here, inside the 1e-6 budget
        from trajquad.oracle import solve_radial
        sol = solve_perturbed(lower(P("r^2")), 8)
        g, eps = 1.2, 0.002
        assembled = energy(sol, g=g, eps=eps)
        oracle = solve_radial(g, lambda r: r * r, eps, 22.0, 2200)
        assert abs(assembled - oracle.eigenvalues[0]) < 1e-6

    def test_linear_isotropic_eigenvalue(self):
        # U=r: first-order shift (3/2)ε/g² against the radial oracle
        from trajquad.oracle import solve_radial
        sol = solve_perturbed(lower(P("r")), 12)
        g, eps = 1.1, 1e-3
        assembled = energy(sol, g=g, eps=eps)
        oracle = solve_radial(g, lambda r: r, eps, 22.0, 2200)
        assert abs(assembled - oracle.eigenvalues[0]) < 1e-6


class TestRandomizedResiduals:
    def test_random_isotropic_perturbations(self):
        rng = random.Random(77)
        for _ in range(5):
            deg = rng.randint(1, 3)
            terms = {(k, 0, 0): Fraction(rng.randint(-3, 3))
                     for k in range(1, deg + 1)}
            u_poly = Poly(terms, RUE)
            if not u_poly:
                continue
            sol = solve_perturbed(lower(u_poly), 6)
            assert all(not r for r in defining_residuals(sol, u_poly))

    def test_mixed_anisotropic(self):
        u_poly = P("r + 1/2 * r * u")
        sol = solve_perturbed(lower(u_poly), 6)
        assert all(not r for r in defining_residuals(sol, u_poly))

    # the residuals come from grad_dot, which the recursion's own cached
    # ∇S products do not use
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(ANISOTROPIC)
    def test_random_anisotropic_fuzzed(self, terms):
        u_poly = Poly(terms, RUE)
        sol = solve_perturbed(lower(u_poly), 6)
        assert all(not r for r in defining_residuals(sol, u_poly))

    @pytest.mark.parametrize("a", range(1, 6))
    def test_axial_polynomial_domain(self, a):
        # a polynomial in z and ρ² gives r^a·u^b with b ≤ a, b ≡ a (mod 2):
        # each runs to order 8, and the first b past the domain breaks down
        for b in range(a % 2, a + 1, 2):
            u_poly = P(f"r^{a} * u^{b}")
            sol = solve_perturbed(lower(u_poly), 8)
            assert all(not r for r in defining_residuals(sol, u_poly))
        with pytest.raises(LogSingularity):
            solve_perturbed(lower(P(f"r^{a} * u^{a + 2}")), 8)

    @pytest.mark.parametrize("text", ["r * u^3", "r^2 * u^4 + r"])
    def test_high_angular_degree_breaks_down(self, text):
        # r^a·u^b with b > a + 1 feeds an r^-1 source into a later order,
        # which the radial rule cannot absorb: a clean breakdown
        with pytest.raises(LogSingularity):
            solve_perturbed(lower(P(text)), 6)
