"""Exact algebra: arithmetic, calculus operators, grammar round-trip."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajquad.errors import LogSingularity, VariableMismatch
from trajquad.exactalg import (
    CARTESIAN_1D,
    RADIAL_POLAR,
    VAR_EPS,
    VAR_GHAT,
    VAR_R,
    VAR_U,
    VAR_X,
    MultiPoly,
    grad_dot,
    parse_poly,
)

RU = (VAR_R, VAR_U)
RUE = (VAR_R, VAR_U, VAR_EPS)
XRUEG = (VAR_X, VAR_R, VAR_U, VAR_EPS, VAR_GHAT)

# sparse polynomials in (x, r, u, ε, ĝ); only r takes negative exponents
_EXPONENTS = st.tuples(st.integers(0, 6), st.integers(-6, 6),
                       *[st.integers(0, 6)] * 3)
_COEFFS = st.fractions(max_denominator=10 ** 6).filter(bool)
sparse_polys = st.dictionaries(_EXPONENTS, _COEFFS, max_size=6).map(
    lambda terms: MultiPoly(terms, XRUEG))


def P(text, variables=None):
    return parse_poly(text, variables)


class TestArithmetic:
    def test_difference_of_squares(self):
        r = MultiPoly.var(VAR_R, RU)
        u = MultiPoly.var(VAR_U, RU)
        assert (r + u) * (r - u) == r * r - u * u

    def test_additive_identity(self):
        a = P("1/3 * eps * r^3", RUE)
        zero = MultiPoly.zero(RUE)
        assert a + zero == a

    def test_stark_s2_square(self):
        # (½ ε r² u)² is the square that feeds (∇S₂)² in the Stark chain
        s2 = P("1/2 * eps * r^2 * u", RUE)
        assert s2 * s2 == P("1/4 * eps^2 * r^4 * u^2", RUE)

    def test_mismatched_variables_raise(self):
        with pytest.raises(VariableMismatch):
            P("x") + P("r")

    def test_subset_variables_align(self):
        assert P("x") + P("x^2 + ĝ") == P("x + x^2 + ĝ")


class TestCalculus:
    def test_differentiate_r(self):
        assert P("1/3 * eps * r^3", RUE).differentiate(VAR_R) == P("eps * r^2", RUE)

    def test_differentiate_constant(self):
        assert P("5/7", RUE).differentiate(VAR_U) == MultiPoly.zero(RUE)

    def test_laurent_rule(self):
        assert P("r^-1").differentiate(VAR_R) == P("-r^-2")

    def test_laplacian_of_r(self):
        assert P("r", RU).laplacian(RADIAL_POLAR) == P("2 * r^-1", RU)

    def test_laplacian_stark_s2(self):
        s2 = P("1/2 * eps * r^2 * u", RUE)
        assert s2.laplacian(RADIAL_POLAR) == P("2 * eps * u", RUE)

    def test_eps_z_is_harmonic(self):
        assert not P("eps * r * u", RUE).laplacian(RADIAL_POLAR)

    def test_grad_dot_with_radius(self):
        f = P("r^4 + u^2 * r^2", RU)
        assert grad_dot(P("r", RU), f, RADIAL_POLAR) == f.differentiate(VAR_R)

    def test_grad_dot_stark_square(self):
        s2 = P("1/2 * eps * r^2 * u", RUE)
        expected = P("eps^2 * r^2 * u^2 + 1/4 * eps^2 * r^2 - 1/4 * eps^2 * r^2 * u^2", RUE)
        assert grad_dot(s2, s2, RADIAL_POLAR) == expected

    def test_grad_dot_cartesian(self):
        assert grad_dot(P("1/2 * x^2"), P("x^4"), CARTESIAN_1D) == P("4 * x^4")

    def test_angular_average(self):
        assert P("u", RU).angular_average() == MultiPoly.zero(RU)
        assert P("1 + 3 * u^2", RU).angular_average() == P("2", RU)
        assert P("eps^2 * r^2 * u^2", RUE).angular_average() == P("1/3 * eps^2 * r^2", RUE)

    def test_integrate_r(self):
        assert P("eps * r^2", RUE).integrate_r() == P("1/3 * eps * r^3", RUE)
        assert MultiPoly.zero(RUE).integrate_r() == MultiPoly.zero(RUE)

    def test_integrate_r_log_singularity(self):
        with pytest.raises(LogSingularity, match="u"):
            P("u * r^-1", RU).integrate_r()


def random_poly(rng, variables, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return MultiPoly(terms, variables)


class TestProperties:
    """Randomized exact identities (500 cases each, fixed seed)."""

    CASES = 500

    def test_ring_axioms(self):
        rng = random.Random(20260808)
        for _ in range(self.CASES):
            a = random_poly(rng, (VAR_X, VAR_GHAT))
            b = random_poly(rng, (VAR_X, VAR_GHAT))
            c = random_poly(rng, (VAR_X, VAR_GHAT))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_differentiate_inverts_integrate_r(self):
        rng = random.Random(1157)
        for _ in range(self.CASES):
            p = random_poly(rng, RUE)
            assert p.integrate_r().differentiate(VAR_R) == p

    def test_product_rule_for_laplacian(self):
        rng = random.Random(4099)
        for _ in range(self.CASES):
            f = random_poly(rng, (VAR_X,))
            g = random_poly(rng, (VAR_X,))
            lhs = (f * g).laplacian(CARTESIAN_1D)
            rhs = (f * g.laplacian(CARTESIAN_1D)
                   + 2 * grad_dot(f, g, CARTESIAN_1D)
                   + g * f.laplacian(CARTESIAN_1D))
            assert lhs == rhs

    def test_angular_average_linear_and_idempotent(self):
        rng = random.Random(7919)
        for _ in range(self.CASES):
            p = random_poly(rng, RU)
            q = random_poly(rng, RU)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert (c * p + q).angular_average() == c * p.angular_average() + q.angular_average()
            avg = p.angular_average()
            assert avg.angular_average() == avg


class TestGrammar:
    def test_render_canonical(self):
        p = MultiPoly.monomial(Fraction(-21, 8), {VAR_EPS: 2, VAR_GHAT: 5})
        assert p.render() == "-21/8 * ε^2 * ĝ^5"

    def test_render_sum_signs(self):
        p = P("3/4 * ĝ^2") - P("21/8 * ĝ^5")
        assert p.render() == "3/4 * ĝ^2 - 21/8 * ĝ^5"

    def test_render_zero_and_units(self):
        assert MultiPoly.zero((VAR_X,)).render() == "0"
        assert P("x - x^2").render() == "x - x^2"

    def test_parse_decimal_is_exact(self):
        assert P("0.5 * x^2") == MultiPoly.monomial(Fraction(1, 2), {VAR_X: 2})

    def test_parse_aliases_and_laurent(self):
        assert P("eps * ghat") == P("ε * ĝ")
        assert P("r^(-2)") == P("r^-2")

    def test_roundtrip_random(self):
        rng = random.Random(60818)
        for _ in range(200):
            p = random_poly(rng, RUE, max_terms=5)
            if not p:
                continue
            assert parse_poly(p.render(), RUE) == p

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(sparse_polys)
    def test_roundtrip_fuzzed(self, p):
        assert parse_poly(p.render()) == p

    def test_laurent_only_for_r(self):
        with pytest.raises(VariableMismatch):
            MultiPoly.monomial(1, {VAR_EPS: -1})

    def test_evaluate(self):
        p = P("1/2 * x^2 + x^4")
        assert p.evaluate({VAR_X: 2.0}) == pytest.approx(18.0)
