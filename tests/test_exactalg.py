"""Exact algebra: the MultiPoly boundary, its grammar round-trip, and the
reference ring and calculus operators the other tests check kernels with."""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajquad.cli import main
from trajquad.errors import LogSingularity, VariableMismatch
from trajquad.exactalg import (
    _ALIASES,
    _FACTOR_RE,
    _LAURENT_OK,
    _NUMBER_RE,
    VAR_EPS,
    VAR_GHAT,
    VAR_R,
    VAR_U,
    VAR_X,
    MultiPoly,
    _split_factors,
    _split_terms,
    _var_key,
    parse_poly,
)

from polyring import Poly, evaluate, lift, parse, parse_poly_fractions
from test_cli import readme_examples
from test_coulomb import grad_dot, integrate_r, laplacian

RU = (VAR_R, VAR_U)
RUE = (VAR_R, VAR_U, VAR_EPS)
XRUEG = (VAR_X, VAR_R, VAR_U, VAR_EPS, VAR_GHAT)

# sparse polynomials in (x, r, u, ε, ĝ); only r takes negative exponents
_EXPONENTS = st.tuples(st.integers(0, 6), st.integers(-6, 6),
                       *[st.integers(0, 6)] * 3)
_COEFFS = st.fractions(max_denominator=10 ** 6).filter(bool)
sparse_polys = st.dictionaries(_EXPONENTS, _COEFFS, max_size=6).map(
    lambda terms: Poly(terms, XRUEG))


def P(text, variables=None):
    return parse(text, variables)


class TestArithmetic:
    def test_difference_of_squares(self):
        r = Poly.var(VAR_R, RU)
        u = Poly.var(VAR_U, RU)
        assert (r + u) * (r - u) == r * r - u * u

    def test_additive_identity(self):
        a = P("1/3 * eps * r^3", RUE)
        zero = Poly.zero(RUE)
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
        assert P("5/7", RUE).differentiate(VAR_U) == Poly.zero(RUE)

    def test_laurent_rule(self):
        assert P("r^-1").differentiate(VAR_R) == P("-r^-2")

    def test_laplacian_of_r(self):
        assert laplacian(P("r", RU)) == P("2 * r^-1", RU)

    def test_laplacian_stark_s2(self):
        s2 = P("1/2 * eps * r^2 * u", RUE)
        assert laplacian(s2) == P("2 * eps * u", RUE)

    def test_eps_z_is_harmonic(self):
        assert not laplacian(P("eps * r * u", RUE))

    def test_grad_dot_with_radius(self):
        f = P("r^4 + u^2 * r^2", RU)
        assert grad_dot(P("r", RU), f) == f.differentiate(VAR_R)

    def test_grad_dot_stark_square(self):
        s2 = P("1/2 * eps * r^2 * u", RUE)
        expected = P("eps^2 * r^2 * u^2 + 1/4 * eps^2 * r^2 - 1/4 * eps^2 * r^2 * u^2", RUE)
        assert grad_dot(s2, s2) == expected

    def test_angular_average(self):
        assert P("u", RU).angular_average() == Poly.zero(RU)
        assert P("1 + 3 * u^2", RU).angular_average() == P("2", RU)
        assert P("eps^2 * r^2 * u^2", RUE).angular_average() == P("1/3 * eps^2 * r^2", RUE)

    def test_integrate_r(self):
        assert integrate_r(P("eps * r^2", RUE)) == P("1/3 * eps * r^3", RUE)
        assert integrate_r(Poly.zero(RUE)) == Poly.zero(RUE)

    def test_integrate_r_log_singularity(self):
        with pytest.raises(LogSingularity, match="u"):
            integrate_r(P("u * r^-1", RU))


def assert_canonical(p):
    """Variables in collation order, Fraction coefficients, no zero stored."""
    assert p.variables == tuple(sorted(p.variables, key=_var_key))
    for exps, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert len(exps) == len(p.variables)


class TestTrustedResults:
    """Operator results are built without revalidation; pin what they keep."""

    def test_shift_to_negative_eps_power_raises(self):
        p = P("eps * r + 2 * eps * u", RUE)
        with pytest.raises(VariableMismatch):
            p.shifted(VAR_EPS, -2)
        with pytest.raises(VariableMismatch):
            P("eps * r", RUE).shifted(VAR_EPS, -1).shifted(VAR_EPS, -1)
        assert p.shifted(VAR_EPS, -1) == P("r + 2 * u", RUE)
        assert P("r", RUE).shifted(VAR_R, -3) == P("r^-2", RUE)

    def test_cancellation_stores_no_zero(self):
        p = P("1/3 * eps * r^2 - u + 5", RUE)
        one = Poly.const(1, RUE)
        u = Poly.var(VAR_U, RUE)
        for zero in (p - p, p + (-p), (one + u) * (one - u) - (one - u * u),
                     p * 0, 0 * p, p * Fraction(0), -p - (-p),
                     P("3 * eps", RUE).coeff_of(VAR_EPS, 1) - 3):
            assert zero.terms == {}
            assert not zero and zero == Poly.zero(RUE)

    def test_embedding_sorts_variables(self):
        p = P("x^2 + ĝ").embedded((VAR_GHAT, VAR_EPS, VAR_X))
        assert p.variables == (VAR_X, VAR_EPS, VAR_GHAT)
        assert p == P("x^2 + ĝ")
        with pytest.raises(VariableMismatch):
            P("x").embedded((VAR_X, VAR_R, VAR_X))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(sparse_polys, sparse_polys,
           st.fractions(max_denominator=50, min_value=-5, max_value=5))
    def test_every_operator_result_is_canonical(self, a, b, c):
        results = [a + b, a - b, -a, a * b, a * c, c * a, a - a,
                   a.coeff_of(VAR_R, 1), a.differentiate(VAR_R),
                   a.differentiate(VAR_U), a.shifted(VAR_R, -2),
                   a.shifted(VAR_EPS, 3), a.angular_average(),
                   laplacian(a), grad_dot(a, b),
                   Poly({e[1:3]: v for e, v in a.terms.items()}, RU)
                   .embedded((VAR_GHAT, VAR_U, VAR_X, VAR_R))]
        if not a.coeff_of(VAR_R, -1):
            results.append(integrate_r(a))
        for p in results:
            assert_canonical(p)
        assert a - b == a + (-b)
        assert a * c == a * Poly.const(c, XRUEG)


def random_poly(rng, variables, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Poly(terms, variables)


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
            assert integrate_r(p).differentiate(VAR_R) == p

    def test_product_rule_for_laplacian(self):
        rng = random.Random(4099)
        for _ in range(self.CASES):
            f = random_poly(rng, RUE)
            g = random_poly(rng, RUE)
            lhs = laplacian(f * g)
            rhs = (f * laplacian(g) + 2 * grad_dot(f, g)
                   + g * laplacian(f))
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
        p = Poly.monomial(Fraction(-21, 8), {VAR_EPS: 2, VAR_GHAT: 5})
        assert p.render() == "-21/8 * ε^2 * ĝ^5"

    def test_render_sum_signs(self):
        p = P("3/4 * ĝ^2") - P("21/8 * ĝ^5")
        assert p.render() == "3/4 * ĝ^2 - 21/8 * ĝ^5"

    def test_render_zero_and_units(self):
        assert Poly.zero((VAR_X,)).render() == "0"
        assert P("x - x^2").render() == "x - x^2"

    def test_parse_decimal_is_exact(self):
        assert P("0.5 * x^2") == Poly.monomial(Fraction(1, 2), {VAR_X: 2})

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
            Poly({(-1,): 1}, (VAR_EPS,))
        # the parser rejects the text itself; a term's net power decides
        for text in ("eps^-1", "r * u^-1", "x + x^-2", "ghat^(-1)"):
            with pytest.raises(ValueError, match="negative power"):
                P(text)
        assert P("x^-1 * x^3") == P("x^2")

    def test_evaluate(self):
        p = P("1/2 * x^2 + x^4")
        assert p.evaluate({VAR_X: 2.0}) == pytest.approx(18.0)

    def test_evaluate_ignores_term_insertion_order(self):
        # ⅒ + ⅕ + 3⁄10 rounds differently by summation order; equal
        # polynomials must evaluate to the same bits
        xyz = ("x", "y", "z")
        terms = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}
        forward = MultiPoly(terms, 10, xyz)
        backward = MultiPoly(dict(reversed(terms.items())), 10, xyz)
        assert forward.terms == backward.terms
        ones = dict.fromkeys(xyz, 1.0)
        assert evaluate(forward, ones) == evaluate(backward, ones)

    def test_evaluate_broadcasts_arrays(self):
        # the oracle samples a potential on its whole grid in one call.
        # NumPy's SIMD power and libm's pow round differently on a few
        # percent of inputs, by one ulp, so the positive terms below agree
        # to 4 ulp, not bitwise
        p = parse_poly("r^-2 + 2 + r^2 + r * u^2 + 3/7 * r^3 * ε + 5/3 * r^5",
                       RUE)
        r = np.linspace(0.05, 4.0, 1001)
        got = evaluate(p, {VAR_R: r, VAR_U: 0.3, VAR_EPS: 1.5})
        want = [evaluate(p, {VAR_R: float(ri), VAR_U: 0.3, VAR_EPS: 1.5})
                for ri in r]
        assert all(type(w) is float for w in want)
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps,
                                   atol=0)


def parse_by_sums(text, variables=None):
    """parse_poly as it was first built: the same grammar, then one
    Poly.monomial per term summed onto Poly.zero over every name seen, and
    the sum embedded over ``variables``."""
    text = re.sub(r"\s+", "", text)
    if not text:
        raise ValueError("empty polynomial text")
    seen = set(variables) if variables is not None else set()
    parsed = []
    for term in _split_terms(text):
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = sign
        powers = {}
        for factor in _split_factors(term):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if _NUMBER_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name = _ALIASES.get(m.group(1), m.group(1))
            power = int(m.group(2).strip("()")) if m.group(2) else 1
            powers[name] = powers.get(name, 0) + power
            seen.add(name)
        for name, power in powers.items():
            if power < 0 and name not in _LAURENT_OK:
                raise ValueError(f"negative power of non-Laurent variable "
                                 f"{name!r} in term {term!r}")
        parsed.append((coeff, powers))
    names = tuple(sorted(seen, key=_var_key))
    result = Poly.zero(names)
    for coeff, powers in parsed:
        result = result + Poly.monomial(coeff, powers, names)
    if variables is not None:
        extra = set(result.variables) - set(variables)
        if extra:
            raise ValueError(f"unexpected symbols {sorted(extra)!r}")
        result = result.embedded(tuple(variables))
    return result


def _outcome(parser, text, variables):
    try:
        poly = parser(text, variables)
    except Exception as exc:
        return type(exc), str(exc)
    return poly.variables, lift(poly).terms


def _potentials():
    """Every potential string the README's examples and the bench's
    workloads pass."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    argvs = readme_examples()
    for workload in workloads.WORKLOADS:
        argvs += [job.argv for unit in next(workloads.decks(workload, 1))
                  for job in unit]
    argvs += list(workloads.warmup_argvs("grid-validate"))
    argvs += [job.argv for job in workloads.exact_jobs()]
    return sorted({argv[i + 1] for argv in argvs
                   for i, a in enumerate(argv) if a == "--potential"})


# the variable lists parse_poly is called with: none, each command
# family's, and the Coulomb and full alphabets
_PARSE_VARIABLES = (None, (VAR_X,), (VAR_R,), RUE, XRUEG)
_TOKENS = st.lists(st.sampled_from(
    ["x", "r", "u", "eps", "ghat", "y", "2", "1/3", "0.5", "0", "^", "^2",
     "^-1", "**3", "^(-2)", "*", "+", "-", " ", "(", ")"]),
    max_size=12).map("".join)


class TestParseMatchesSummedMonomials:
    """parse_poly fills one term dict; it must equal the sum of monomials."""

    def test_readme_and_bench_potentials(self):
        texts = _potentials()
        assert "0.5*x^2 + 0.1*x^4" in texts and "r^2 + r^3" in texts
        for text in texts + ["0.5*x^2 + 0*y", "r^2 + 0*u", "0.5*ghat*x^2",
                             "x - x + 0", "r^-2 - r^-2 + 2*r^-2", "5", ""]:
            for variables in _PARSE_VARIABLES:
                assert _outcome(parse_poly, text, variables) == \
                    _outcome(parse_by_sums, text, variables), (text, variables)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(sparse_polys)
    def test_rendered_sums(self, a):
        # the round-trip text, and the same terms repeated and cancelled
        one = a.render()
        for text in (one, f"{one} + {one} - {one} - {one}"):
            for variables in _PARSE_VARIABLES:
                assert _outcome(parse_poly, text, variables) == \
                    _outcome(parse_by_sums, text, variables)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_TOKENS)
    def test_token_soup(self, text):
        # malformed text and negative powers raise the same error
        for variables in _PARSE_VARIABLES:
            assert _outcome(parse_poly, text, variables) == \
                _outcome(parse_by_sums, text, variables)


# number spellings: digits with leading zeros, a/b with a nonzero b,
# decimals with trailing zeros, a bare fraction part and a bare point
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_NUMBERS = st.one_of(
    st.sampled_from(["0.50", ".25", "3.", "007", "0", "00/01"]),
    _DIGITS,
    st.builds("{}/{}".format, _DIGITS, _DIGITS.filter(lambda d: int(d))),
    st.builds("{}.{}".format, _DIGITS, st.text("0123456789", max_size=4)),
    st.builds(".{}".format, _DIGITS))
_TERMS = st.builds(
    lambda sign, numbers, power: sign + "*".join(numbers + power),
    st.sampled_from(["", "-", "+", "--", "+-", "-+-"]),
    st.lists(_NUMBERS, max_size=2),
    st.sampled_from([[], ["x"], ["r^2"], ["r^-1"], ["eps"], ["ghat^2"],
                     ["x", "r"], ["u**3"], ["r^(-2)", "ε"]]),
).filter(lambda term: term.lstrip("+-"))


def _parsed(parser, text, variables):
    try:
        poly = parser(text, variables)
    except ValueError as exc:
        return str(exc)
    return poly.terms, poly.den, poly.variables, poly.render()


class TestParseMatchesFractions:
    """parse_poly reads numbers as integer pairs; the parser that read
    them as Fractions is the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(_TERMS, min_size=1, max_size=5),
           st.sampled_from(["+", " + ", " - ", "-"]))
    def test_integer_pairs_match_fractions(self, terms, joiner):
        # the terms, each repeated, and each cancelled by its negation
        text = joiner.join(terms)
        plus = "+".join(terms)
        for each in (text, f"{plus}+{plus}",
                     plus + "+" + "+".join("-" + t for t in terms)):
            for variables in (None, XRUEG):
                assert _parsed(parse_poly, each, variables) == \
                    _parsed(parse_poly_fractions, each, variables), each


def _exact_argvs():
    """The README examples, every exact bench job, and an excited level over
    eleven q names, whose collation (q1, q10, q11, q2, ...) is not their
    numbering."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    return readme_examples() + [list(job.argv) for job in workloads.exact_jobs()] + [
        ["--command", "excited", "--freqs", ",".join(["1"] * 11),
         "--occupations", "0,0,0,0,0,0,0,0,0,2,1;2,0,0,0,0,0,0,0,0,0,3"]]


class TestBoundaryFormat:
    """MultiPoly trusts its caller; pin what every caller hands it."""

    def test_every_command_builds_canonical_polys(self, monkeypatch, capsys):
        built = []
        init = MultiPoly.__init__

        def checked(self, terms, den, variables):
            init(self, terms, den, variables)
            built.append((self.terms, den, variables))

        monkeypatch.setattr(MultiPoly, "__init__", checked)
        for argv in _exact_argvs():
            assert main(argv) == 0, argv
        capsys.readouterr()
        # the Coulomb chain's S_n and E_n are no MultiPolys: what is built
        # is parse_poly's over (r,) and (x,), U's embedding over (r, u, ε)
        # and excited's χ over its q names, and each of them is reached
        assert len(built) > 400
        assert {v for _, _, v in built} == {
            (VAR_R,), (VAR_X,), RUE, ("q1", "q2"),
            tuple(sorted((f"q{i}" for i in range(1, 12)), key=_var_key))}
        for terms, den, variables in built:
            assert type(den) is int and den > 0
            assert type(variables) is tuple
            assert len(set(variables)) == len(variables)
            assert list(variables) == sorted(variables, key=_var_key)
            for exps, c in terms.items():
                assert type(c) is int and c != 0
                assert type(exps) is tuple and len(exps) == len(variables)
                assert all(type(e) is int for e in exps)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(-3, 3)),
                           st.integers(-10 ** 400, 10 ** 400), max_size=5),
           st.integers(1, 10 ** 400), st.floats(-2.0, 2.0), st.floats(0.25, 4.0))
    def test_evaluate_sums_fractions_in_render_order(self, terms, den, x, r):
        # each term's c/den is float(Fraction(c, den)), the same correctly
        # rounded quotient, so the sum matches bit for bit and overflows
        # on the same inputs
        poly = MultiPoly(terms, den, (VAR_X, VAR_R))

        def fraction_sum():
            total = 0.0
            for (i, j), c in sorted(poly.terms.items(),
                                    key=lambda item: (sum(item[0]), item[0])):
                term = float(Fraction(c, den))
                if i:
                    term *= x ** i
                if j:
                    term *= r ** j
                total += term
            return total

        def outcome(fn):
            try:
                return fn().hex()
            except OverflowError:
                return OverflowError

        assert outcome(lambda: evaluate(poly, {VAR_X: x, VAR_R: r})) == \
            outcome(fraction_sum)
