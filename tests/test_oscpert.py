"""Oscillator ε-series: table values, recursions, operator-chain checks.

The integer kernel is checked level by level against a Fraction reference
of the same recursion (``fraction_solve``), kept here and never called by
the package.
"""

import math
from fractions import Fraction

import pytest

from trajquad import cli, oscpert
from trajquad.errors import MethodError
from trajquad.exactalg import VAR_EPS, VAR_GHAT, VAR_X, MultiPoly
from trajquad.oscpert import solve_even, solve_odd

from polyring import Poly, evaluate, lift

_G = (VAR_GHAT,)
_XG = (VAR_X, VAR_GHAT)


def ghat(coeff, power):
    return Poly.monomial(Fraction(coeff), {VAR_GHAT: power}, _G)


# --------------------------------------------------------------------------
# Table entries from the production resolvent sweep, and an independent
# verification chain that applies C and T = -½ d²/dx² explicitly.


def _table_entry(m: int, n: int, parity: int) -> Poly:
    """Image at x^(2m+parity) of x^(2n+parity) under ``oscpert._chain``."""
    if m < 0 or n < 0:
        raise ValueError("table indices must be non-negative")
    image, den = oscpert._chain({2 * n + parity: 1}, 1)
    coeff = image.get(2 * m + parity)
    return ghat(Fraction(coeff, den), n - m + 1) if coeff else Poly.zero(_G)


def gamma_even(m: int, n: int) -> Poly:
    """Even-power table entry Γ_mn as a ĝ-monomial."""
    return _table_entry(m, n, 0)


def gamma_odd(m: int, n: int) -> Poly:
    """Odd-power table entry γ_mn as a ĝ-monomial."""
    return _table_entry(m, n, 1)


def _apply_c(poly: Poly) -> tuple[Poly, Poly]:
    """Single-integral operator on a polynomial in (x, ĝ).

    Cx^k = ĝ x^k / k for k ≥ 1.  A bare constant cannot pass through C
    (the integral diverges at the origin), so the x-free part is split
    off and returned as the second element, a polynomial in ĝ.
    """
    poly = poly.embedded(_XG)
    out: dict[tuple[int, int], Fraction] = {}
    blocked = Poly.zero(_G)
    for (kx, kg), coeff in poly.terms.items():
        if kx == 0:
            blocked = blocked + ghat(coeff, kg)
        else:
            out[(kx, kg + 1)] = out.get((kx, kg + 1), Fraction(0)) + coeff / kx
    return Poly(out, _XG), blocked


def _kinetic(poly: Poly) -> Poly:
    """T = -½ d²/dx² on a polynomial in (x, ĝ)."""
    second = poly.differentiate(VAR_X).differentiate(VAR_X)
    return Poly.const(Fraction(-1, 2), _XG) * second


def operator_chain_even(n: int):
    """Iterate (-CT)^m C on x^(2n); return (chain sum, subtraction constant).

    Each application lowers the power by two, so n + 1 steps bound the
    loop; after the x² stage the operand handed to C is a bare constant,
    which must be subtracted from the original source for the resolvent to
    act at all.  That constant is returned as a polynomial in ĝ alongside
    the summed polynomial part.
    """
    cur, blocked = _apply_c(Poly.monomial(1, {VAR_X: 2 * n}, _XG))
    if blocked:
        raise MethodError("even chain blocked at its first step")
    total = cur
    for _ in range(n + 1):
        candidate = -_kinetic(cur)
        cur, blocked = _apply_c(candidate)
        if blocked:
            if cur:
                raise MethodError("constant appeared before the chain terminated")
            return total, blocked
        if not cur:
            return total, Poly.zero(_G)
        total = total + cur
    raise RuntimeError("operator chain failed to terminate")


def operator_chain_odd(n: int) -> Poly:
    """Iterate (-CT)^m C on x^(2n+1): no leftovers, at most n + 1 steps."""
    cur, blocked = _apply_c(Poly.monomial(1, {VAR_X: 2 * n + 1}, _XG))
    if blocked:
        raise MethodError("odd chain blocked at its first step")
    total = cur
    for _ in range(n + 1):
        cur, blocked = _apply_c(-_kinetic(cur))
        if blocked:
            raise MethodError("odd chain produced a constant")
        if not cur:
            return total
        total = total + cur
    raise RuntimeError("operator chain failed to terminate")


# --------------------------------------------------------------------------
# Reference recursion on Fractions: the same suffix sweeps and Δ-convolution
# with every coefficient a normalised rational, no shared denominator.


def fraction_chain_even(source: dict) -> dict:
    """Γ on a source keyed by n ↔ x^(2n); nonzero image entries, same keys."""
    level, acc = {}, Fraction(0)
    for m in range(max(source, default=0), 0, -1):
        acc = acc * Fraction(2 * m + 1, 2) + source.get(m, 0)
        if acc:
            level[m] = acc / (2 * m)
    return level


def fraction_chain_odd(source: dict) -> dict:
    """γ on a source keyed by n ↔ x^(2n+1); nonzero image entries, same keys."""
    level, acc = {}, Fraction(0)
    for m in range(max(source, default=-1), -1, -1):
        acc = acc * (m + 1) + source.get(m, 0)
        if acc:
            level[m] = acc / (2 * m + 1)
    return level


def fraction_solve(P: int, order: int) -> list:
    """Rational levels of e^{-τ} for ε·x^P, ε-orders 0..order, keyed by x-power."""
    levels = [{0: Fraction(1)}]
    for k in range(1, order + 1):
        source = {n + P: -c for n, c in levels[k - 1].items()}
        for i in range(1, k):
            minus_delta = levels[k - i].get(2)
            if minus_delta:
                for n, c in levels[i].items():
                    source[n] = source.get(n, 0) - c * minus_delta
        even = fraction_chain_even({x // 2: c for x, c in source.items() if x % 2 == 0})
        odd = fraction_chain_odd({x // 2: c for x, c in source.items() if x % 2})
        levels.append({2 * m: c for m, c in even.items()}
                      | {2 * m + 1: c for m, c in odd.items()})
    return levels


def power(series, k, n):
    """The ĝ-power s = (k(P+2) - n)/2 of the ε^k coefficient of x^n."""
    return (k * (series.P + 2) - n) // 2


def coeff(series, k, n):
    """The ε^k coefficient of x^n in e^{-τ} as a ĝ-monomial."""
    return ghat(Fraction(series.levels[k].get(n, 0), series.denominators[k]),
                power(series, k, n))


# Δ(k) and εΔ as MultiPolys, the reference the rows and the shift text of
# PerturbSeries.table are checked against through render and evaluate


def delta(series, k) -> MultiPoly:
    """Δ(k) = -(the ε^k coefficient of x²), with εΔ = Σ_k ε^k Δ(k)."""
    return MultiPoly({(power(series, k, 2),): -series.levels[k].get(2, 0)},
                     series.denominators[k], _G)


def shift_polynomial(series) -> MultiPoly:
    """εΔ as an exact polynomial in (ε, ĝ), over one denominator."""
    orders = [k for k in range(1, len(series.levels)) if 2 in series.levels[k]]
    den = math.lcm(*(series.denominators[k] for k in orders))
    return MultiPoly({(k, power(series, k, 2)):
                      -series.levels[k][2] * (den // series.denominators[k])
                      for k in orders}, den, (VAR_EPS, VAR_GHAT))


def level(series, k):
    """The ε^k coefficients of e^{-τ}, keyed by x-power."""
    return {n: coeff(series, k, n) for n in series.levels[k]}


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestTables:
    def test_even_diagonal_and_zeros(self):
        assert gamma_even(0, 0) == Poly.zero((VAR_GHAT,))
        assert gamma_even(0, 5) == Poly.zero((VAR_GHAT,))
        assert gamma_even(4, 2) == Poly.zero((VAR_GHAT,))
        for n in range(1, 8):
            assert gamma_even(n, n) == ghat(Fraction(1, 2 * n), 1)

    def test_even_first_row(self):
        for n in range(1, 8):
            expected = ghat(Fraction(double_factorial(2 * n - 1), 2 ** n), n)
            assert gamma_even(1, n) == expected

    def test_even_spot_values(self):
        assert gamma_even(1, 2) == ghat(Fraction(3, 4), 2)
        assert gamma_even(2, 2) == ghat(Fraction(1, 4), 1)

    def test_odd_values(self):
        assert gamma_odd(3, 3) == ghat(Fraction(1, 7), 1)
        assert gamma_odd(0, 1) == ghat(1, 2)
        for n in range(0, 7):
            fact = 1
            for j in range(2, n + 1):
                fact *= j
            assert gamma_odd(0, n) == ghat(fact, n + 1)

    def test_tables_match_closed_forms(self):
        # Γ_mn = ∏_{j=m+1}^{n}(2j-1) / (m·2^(n-m+1)) ĝ^(n-m+1), zero for m = 0
        # or m > n; γ_mn = (n!/m!) / (2m+1) ĝ^(n-m+1), zero for m > n
        zero = Poly.zero((VAR_GHAT,))
        for n in range(31):
            for m in range(31):
                if m > n:
                    assert gamma_even(m, n) == zero
                    assert gamma_odd(m, n) == zero
                    continue
                odd = Fraction(math.factorial(n), math.factorial(m) * (2 * m + 1))
                assert gamma_odd(m, n) == ghat(odd, n - m + 1)
                if m == 0:
                    assert gamma_even(m, n) == zero
                    continue
                prod = math.prod(2 * j - 1 for j in range(m + 1, n + 1))
                even = Fraction(prod, m * 2 ** (n - m + 1))
                assert gamma_even(m, n) == ghat(even, n - m + 1)

    def test_negative_indices_raise(self):
        for entry in (gamma_even, gamma_odd):
            with pytest.raises(ValueError):
                entry(-1, 2)
            with pytest.raises(ValueError):
                entry(0, -1)

    @pytest.mark.parametrize("solve, message", [
        (lambda: solve_even(2, -1), "order must be non-negative"),
        (lambda: solve_odd(-1, 2), "odd perturbation needs p >= 0"),
    ])
    def test_series_refusals(self, solve, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve()


class TestEvenSeries:
    def test_quartic_first_two_orders(self):
        series = solve_even(p=2, order=2)
        assert delta(series, 1) == ghat(Fraction(3, 4), 2)
        assert delta(series, 2) == ghat(Fraction(-21, 8), 5)

    def test_quartic_known_higher_orders(self):
        # classic quartic anharmonic ground-state coefficients at g = 1
        series = solve_even(p=2, order=4)
        assert evaluate(delta(series, 3), {VAR_GHAT: 1.0}) == pytest.approx(333 / 16)
        assert evaluate(delta(series, 4), {VAR_GHAT: 1.0}) == pytest.approx(-30885 / 128)
        assert delta(series, 3) == ghat(Fraction(333, 16), 8)
        assert delta(series, 4) == ghat(Fraction(-30885, 128), 11)

    def test_quadratic_matches_exact_frequency_shift(self):
        # V + εx² is harmonic: E = √(g²+2ε)/2, so Δ(k) follows binomially
        series = solve_even(p=1, order=5)
        expected = [ghat(Fraction(1, 2), 1), ghat(Fraction(-1, 4), 3),
                    ghat(Fraction(1, 4), 5), ghat(Fraction(-5, 16), 7),
                    ghat(Fraction(7, 16), 9)]
        assert [delta(series, k) for k in range(1, 6)] == expected

    def test_order_zero_is_empty(self):
        assert solve_even(p=2, order=0).levels[1:] == []

    def test_first_order_coefficients(self):
        series = solve_even(p=2, order=1)
        assert level(series, 1) == {2: -gamma_even(1, 2), 4: -gamma_even(2, 2)}

    def test_support_bound(self):
        series = solve_even(p=3, order=3)
        for k in range(1, len(series.levels)):
            assert all(n <= 6 * k for n in series.levels[k])

    def test_quartic_bender_wu_large_order(self):
        # Δ(k) at g = 1 against (-1)^(k+1) √6 π^(-3/2) 3^k Γ(k+½),
        # whose ratio tends to 1 - 95/(72k) (Bender & Wu, Phys. Rev. 184
        # (1969) 1231)
        series = solve_even(p=2, order=80)

        def ratio(k):
            # r_k in log space: Δ(80) and its leading form are near 1e155
            (coeff,) = lift(delta(series, k)).terms.values()
            assert (coeff > 0) == (k % 2 == 1)
            log_delta = math.log(abs(coeff.numerator)) - math.log(coeff.denominator)
            log_leading = 0.5 * math.log(6) - 1.5 * math.log(math.pi) \
                + k * math.log(3) + math.lgamma(k + 0.5)
            return math.exp(log_delta - log_leading)

        def gap(k):
            return abs(ratio(k) - (1 - 95 / (72 * k)))

        assert gap(24) < 0.005
        assert gap(24) < gap(16)
        # c_k = (1 - r_k)·k = 95/72 + O(1/k); one Richardson step removes the 1/k
        c40, c80 = ((1 - ratio(k)) * k for k in (40, 80))
        assert 2 * c80 - c40 == pytest.approx(95 / 72, rel=0.003)


class TestOddSeries:
    def test_linear_perturbation_exact(self):
        series = solve_odd(p=0, order=6)
        assert delta(series, 2) == ghat(Fraction(-1, 2), 2)
        for k in (1, 3, 5):
            assert not delta(series, k).terms
        for k in (4, 6):
            assert not delta(series, k).terms

    def test_linear_wavefunction_coefficients(self):
        # e^{-τ} = e^{-εx/g}: b_n carries ε^n (-ĝ)^n / n!
        series = solve_odd(p=0, order=6)
        assert level(series, 1) == {1: ghat(-1, 1)}
        assert level(series, 2) == {2: ghat(Fraction(1, 2), 2)}
        assert level(series, 3) == {3: ghat(Fraction(-1, 6), 3)}
        fact = 1
        for n in range(1, 7):
            fact *= n
            assert level(series, n) == {n: ghat(Fraction((-1) ** n, fact), n)}

    def test_shift_matches_completed_square(self):
        # exact shift is -ε²/2g², entirely at second order
        series = solve_odd(p=0, order=6)
        ginv = {VAR_GHAT: 1.0 / 2.0}
        shift = sum(evaluate(delta(series, k), ginv) * 0.3 ** k
                    for k in range(1, len(series.levels)))
        assert shift == pytest.approx(-0.3 ** 2 / 8)

    def test_cubic_parity_structure(self):
        series = solve_odd(p=1, order=6)
        for k in (1, 3, 5):
            assert not delta(series, k).terms
        for k in range(1, len(series.levels)):
            assert all(n % 2 == k % 2 for n in series.levels[k])
            assert all(n <= 3 * k for n in series.levels[k])

    def test_cubic_first_shift(self):
        # known cubic result: ΔE = -(11/8) ε²/g⁴ at leading order
        series = solve_odd(p=1, order=2)
        assert delta(series, 2) == ghat(Fraction(-11, 8), 4)


class TestIntegerKernel:
    @pytest.mark.parametrize("P, order", [(P, 20) for P in range(1, 9)] + [(4, 41)])
    def test_levels_equal_fraction_reference(self, P, order):
        series = oscpert._solve(P, order)
        got = [{n: Fraction(c, den) for n, c in level.items()}
               for level, den in zip(series.levels, series.denominators)]
        assert got == fraction_solve(P, order)

    @pytest.mark.parametrize("P", range(1, 9))
    def test_every_level_is_reduced(self, P):
        series = oscpert._solve(P, 20)
        assert len(series.denominators) == len(series.levels) == 21
        for level, den in zip(series.levels, series.denominators):
            assert den > 0
            assert math.gcd(den, *level.values()) == 1
            assert level and all(level.values())


def _patched_chain(monkeypatch, extra):
    """Make ``_chain`` add the numerator 1 at the x-power ``extra(source)``."""
    real = oscpert._chain

    def chain(source, den):
        image, image_den = real(source, den)
        return {**image, extra(source): 1}, image_den

    monkeypatch.setattr(oscpert, "_chain", chain)


class TestInvariants:
    @pytest.mark.parametrize("solver, p", [(solve_even, 2), (solve_odd, 1)])
    def test_support_bound_violation_raises(self, monkeypatch, solver, p):
        # an image key above the source's largest pushes the first order
        # past its support; +2 keeps the key's parity
        _patched_chain(monkeypatch, lambda source: max(source) + 2)
        with pytest.raises(MethodError, match="support bound"):
            solver(p, 1)

    def test_odd_parity_violation_raises(self, monkeypatch):
        # an even x-power at the first (odd) order, inside the support bound
        _patched_chain(monkeypatch, lambda source: 0)
        with pytest.raises(MethodError, match="parity structure"):
            solve_odd(1, 1)

    def test_even_parity_violation_raises(self, monkeypatch):
        # an odd x-power in an even series, inside the support bound: the
        # parity rule n ≡ kP (mod 2) is the same check for both parities
        _patched_chain(monkeypatch, lambda source: 3)
        with pytest.raises(MethodError, match="parity structure"):
            solve_even(2, 1)


class TestOperatorChains:
    def test_even_chain_reproduces_table(self):
        for n in range(1, 7):
            total, subtraction = operator_chain_even(n)
            expected = Poly.zero((VAR_X, VAR_GHAT))
            for m in range(1, n + 1):
                expected = expected + gamma_even(m, n).embedded((VAR_X, VAR_GHAT)) * \
                    Poly.monomial(1, {VAR_X: 2 * m}, (VAR_X, VAR_GHAT))
            assert total == expected
            assert subtraction == gamma_even(1, n)

    def test_odd_chain_reproduces_table(self):
        for n in range(0, 7):
            total = operator_chain_odd(n)
            expected = Poly.zero((VAR_X, VAR_GHAT))
            for m in range(0, n + 1):
                expected = expected + gamma_odd(m, n).embedded((VAR_X, VAR_GHAT)) * \
                    Poly.monomial(1, {VAR_X: 2 * m + 1}, (VAR_X, VAR_GHAT))
            assert total == expected


# --------------------------------------------------------------------------
# PerturbSeries.table against the MultiPoly path it replaced: the perturb
# runner that built Δ(k) and εΔ as MultiPolys, then evaluated and rendered


def reference_run_perturb(p):
    solver = solve_even if p["parity"] == "even" else solve_odd
    series = solver(p["p"], p["order"])
    rows = []
    for k in range(1, len(series.levels)):
        d = delta(series, k)
        at_g = cli._finite(evaluate(d, {VAR_GHAT: 1.0 / p["g"]}))
        rows.append({"k": k, "delta_exact": d.render(), "delta_at_g": at_g})
    payload = {"parity": p["parity"], "p": p["p"], "deltas": rows,
               "shift_polynomial": shift_polynomial(series).render()}
    lines = ["k,delta_exact,delta_at_g"]
    lines += [f"{r['k']},\"{r['delta_exact']}\",{r['delta_at_g']!r}"
              for r in rows]
    return payload, lines, None


class TestTable:
    @pytest.mark.parametrize("P", range(1, 9))
    def test_shift_terms_come_in_graded_order(self, P):
        # k + s(k) = (k(P+4) - 2)/2 rises strictly with k (floored where kP
        # is odd and Δ(k) vanishes), so the orders are render's term order
        series = oscpert._solve(P, 24)
        grades = [k + s for k, _, _, s in series.deltas()]
        assert all(a < b for a, b in zip(grades, grades[1:]))
        nonzero = [(k, s) for k, c, _, s in series.deltas() if c]
        assert [e for _, e, _ in shift_polynomial(series)._sorted_terms()] \
            == nonzero

    @pytest.mark.parametrize("P", range(9))
    def test_cli_matches_the_multipoly_reference(self, P, monkeypatch, capsys):
        # stdout (csv and json), exit code and stderr, byte for byte, for
        # orders 0-24 and g from 1e-12 (where ĝ^s overflows) to 1e3; P = 0,
        # even p = 0, is a config error on both paths
        runner, schema = cli._COMMANDS["perturb"]
        parity = "odd" if P % 2 else "even"
        seen = set()
        for order in range(25):
            for g in ("1e-12", "1e-3", "0.5", "1", "3", "1e3"):
                for fmt in ("csv", "json"):
                    argv = ["--command", "perturb", "--parity", parity,
                            "--p", str(P // 2), "--order", str(order),
                            "--g", g, "--format", fmt]
                    got = cli.main(argv), *capsys.readouterr()
                    monkeypatch.setitem(cli._COMMANDS, "perturb",
                                        (reference_run_perturb, schema))
                    want = cli.main(argv), *capsys.readouterr()
                    monkeypatch.setitem(cli._COMMANDS, "perturb",
                                        (runner, schema))
                    assert got == want, argv
                    seen.add(got[0])
                    if got[0] == 0 and fmt == "csv":
                        seen.add("zero row" if ',"0",' in got[1] else None)
        if P == 0:
            assert seen == {1}
        else:
            # ĝ^s overflows at g = 1e-12 by order 24, bar P = 1, whose one
            # shift is Δ(2) = -ĝ²/2
            assert 0 in seen and (1 in seen) == (P > 1)
            assert ("zero row" in seen) == (P % 2 == 1)

    def test_order_zero_has_no_rows_and_a_zero_shift(self):
        rows, shift = solve_even(2, 0).table(1.0, float)
        assert (rows, shift) == ([], "0")
