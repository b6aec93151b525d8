"""Exact ε-series for the harmonic oscillator with a monomial perturbation.

The unperturbed Hamiltonian is H = -½ d²/dx² + g²x²/2 with ground state
e^{-gx²/2}; the perturbation is ε·x^(2p) (even) or ε·x^(2p+1) (odd).  The
perturbed ground state is written e^{-gx²/2-τ} and e^{-τ} is expanded in
monomials whose coefficients, together with the energy shift, satisfy a
triangular recursion built from two exact rational tables:

    Γ_mn  : action of the resolvent chain on even powers; zero for m > n
            and for m = 0, otherwise ∏_{j=m+1}^{n}(2j-1) / (m·(2g)^(n-m+1)).
    γ_mn  : the odd-power analogue, (n!/m!) / ((2m+1)·g^(n-m+1)) for m ≤ n.

Both tables have product form and neither is stored: the chain acts on a
whole source Σ s_n x^(2n) (x^(2n+1) for γ) as one O(n) suffix sweep on
the ĝ-free rationals,

    Γ :  T_m = s_m + (2m+1)/2·T_{m+1},  image T_m/(2m)    for m ≥ 1,
    γ :  U_m = s_m + (m+1)·U_{m+1},     image U_m/(2m+1)  for m ≥ 0.

Everything is exact.  Every table entry, every e^{-τ} coefficient and every
energy shift is a single ĝ-monomial c·ĝ^s (ĝ = 1/g, c rational) whose power
s is fixed by scaling, so the recursion runs on the rationals c alone and
the power is attached once, when the series is assembled:

    Γ_mn, γ_mn          s = n - m + 1
    even  a_n(k), Δ(k)  s = k(p+1) - n,        Δ(k) with n = 1
    odd   b_x(k), Δ(k)  s = (k(2p+3) - x) / 2,  Δ(k) with x = 2

The series is solved order by order in ε with no truncation other than the
requested order.  The energy shift obeys εΔ = -a₁ (even) and εΔ = -b₂
(odd); odd perturbations shift the energy only at even ε-orders.

``operator_chain_even``/``operator_chain_odd`` re-derive the table action
by explicitly iterating the single-integral operator and -½ d²/dx² on
monomials, which is how the tables are verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MethodError
from .exactalg import VAR_EPS, VAR_GHAT, VAR_X, MultiPoly

_G = (VAR_GHAT,)
_XG = (VAR_X, VAR_GHAT)
_EG = (VAR_EPS, VAR_GHAT)


def _ghat_power(coeff: Fraction, power: int) -> MultiPoly:
    return MultiPoly.monomial(coeff, {VAR_GHAT: power}, _G)


def _chain_even(source: dict) -> dict:
    """Γ on a source keyed by n ↔ x^(2n); nonzero image entries, same keys."""
    level, acc = {}, Fraction(0)
    for m in range(max(source, default=0), 0, -1):
        acc = acc * Fraction(2 * m + 1, 2) + source.get(m, 0)
        if acc:
            level[m] = acc / (2 * m)
    return level


def _chain_odd(source: dict) -> dict:
    """γ on a source keyed by n ↔ x^(2n+1); nonzero image entries, same keys."""
    level, acc = {}, Fraction(0)
    for m in range(max(source, default=-1), -1, -1):
        acc = acc * (m + 1) + source.get(m, 0)
        if acc:
            level[m] = acc / (2 * m + 1)
    return level


def _table_entry(chain, m: int, n: int) -> MultiPoly:
    if m < 0 or n < 0:
        raise ValueError("table indices must be non-negative")
    coeff = chain({n: Fraction(1)}).get(m)
    return _ghat_power(coeff, n - m + 1) if coeff else MultiPoly.zero(_G)


def gamma_even(m: int, n: int) -> MultiPoly:
    """Even-power table entry Γ_mn as a ĝ-monomial."""
    return _table_entry(_chain_even, m, n)


def gamma_odd(m: int, n: int) -> MultiPoly:
    """Odd-power table entry γ_mn as a ĝ-monomial."""
    return _table_entry(_chain_odd, m, n)


@dataclass
class PerturbSeries:
    """Exact ε-series: energy shifts Δ(k) and e^{-τ} monomial coefficients.

    ``delta[k-1]`` is Δ(k) as a ĝ-monomial, with the full shift
    εΔ = Σ_k ε^k Δ(k).  ``coeffs[k-1]`` maps a monomial power to its
    ε^k coefficient: for even parity the key n stands for x^(2n), for
    odd parity the key is the x-power itself.
    """

    parity: str
    p: int
    order: int
    delta: list
    coeffs: list

    def delta_value(self, k: int, g: float) -> float:
        return self.delta[k - 1].evaluate({VAR_GHAT: 1.0 / g})

    def shift_value(self, eps: float, g: float, order: int | None = None) -> float:
        """Numeric εΔ truncated at the given ε-order."""
        order = self.order if order is None else order
        return sum(self.delta_value(k, g) * eps ** k for k in range(1, order + 1))

    def total_energy(self, eps: float, g: float, order: int | None = None) -> float:
        """Ground energy g/2 plus the truncated shift."""
        return 0.5 * g + self.shift_value(eps, g, order)

    def shift_polynomial(self) -> MultiPoly:
        """εΔ as an exact polynomial in (ε, ĝ)."""
        total = MultiPoly.zero(_EG)
        for k, d in enumerate(self.delta, start=1):
            total = total + d.embedded(_EG) * MultiPoly.monomial(1, {VAR_EPS: k}, _EG)
        return total

    def exp_minus_tau_coeff(self, power: int) -> MultiPoly:
        """Coefficient of x^power in e^{-τ}, exact in (ε, ĝ)."""
        total = MultiPoly.zero(_EG)
        if self.parity == "even" and power % 2 == 1:
            return total
        key = power // 2 if self.parity == "even" else power
        for k, table in enumerate(self.coeffs, start=1):
            entry = table.get(key)
            if entry is not None:
                total = total + entry.embedded(_EG) * \
                    MultiPoly.monomial(1, {VAR_EPS: k}, _EG)
        return total


def _recurse(order: int, shift: int, chain, delta_key: int, check) -> list:
    """Rational coefficients of e^{-τ} for ε-orders 0..order.

    Order k applies the resolvent chain to the source
    -x^(perturbation)·e^{-τ}(k-1) + Σ_i Δ(k-i)·e^{-τ}(i); ``shift`` is
    the perturbation's power in key units and ``chain(source)`` returns the
    chain's image of the whole source, same keys, zero entries dropped.
    Each order is passed to ``check(k, level)`` before it is used, and
    Δ(k) = -level[delta_key].
    """
    levels = [{0: Fraction(1)}]
    delta = [Fraction(0)]
    for k in range(1, order + 1):
        source = {key + shift: -c for key, c in levels[k - 1].items()}
        for i in range(1, k):
            d = delta[k - i]
            if d:
                for key, c in levels[i].items():
                    source[key] = source.get(key, 0) + c * d
        level = chain(source)
        check(k, level)
        levels.append(level)
        delta.append(-level.get(delta_key, 0))
    return levels


def _assemble(parity: str, p: int, levels: list, delta_key: int,
              power) -> PerturbSeries:
    """Attach ĝ^power(k, key) to every rational coefficient of levels[1:]."""
    coeffs, delta = [], []
    for k, level in enumerate(levels[1:], start=1):
        coeffs.append({key: _ghat_power(c, power(k, key)) for key, c in level.items()})
        delta.append(_ghat_power(-level.get(delta_key, 0), power(k, delta_key)))
    return PerturbSeries(parity=parity, p=p, order=len(coeffs), delta=delta,
                         coeffs=coeffs)


def solve_even(p: int, order: int) -> PerturbSeries:
    """Series for ε·x^(2p): exact Δ(k) and a_n(k) for k ≤ order.

    At each ε-order the unknowns follow by direct substitution from lower
    orders because Γ_mn vanishes for m > n, and Δ(k) = -a₁(k).
    """
    if p < 1:
        raise ValueError("even perturbation needs p >= 1")
    if order < 0:
        raise ValueError("order must be non-negative")

    def check(k, level):
        if any(n > k * p for n in level):
            raise MethodError(f"even support bound violated at order {k}")

    # keys n stand for x^(2n), so the chain is Γ itself
    levels = _recurse(order, p, _chain_even, 1, check)
    return _assemble("even", p, levels, 1, lambda k, n: k * (p + 1) - n)


def _chain_x(source: dict) -> dict:
    """Chain on a source keyed by x-power: Γ on its even part, γ on its odd."""
    even = _chain_even({x // 2: c for x, c in source.items() if x % 2 == 0})
    odd = _chain_odd({x // 2: c for x, c in source.items() if x % 2})
    return {2 * m: c for m, c in even.items()} | {2 * m + 1: c for m, c in odd.items()}


def solve_odd(p: int, order: int) -> PerturbSeries:
    """Series for ε·x^(2p+1): exact Δ(k) and b_n(k) for k ≤ order.

    Odd ε-orders populate odd monomials only and even orders even ones,
    so every Δ(odd k) vanishes identically; Δ(k) = -b₂(k).
    """
    if p < 0:
        raise ValueError("odd perturbation needs p >= 0")
    if order < 0:
        raise ValueError("order must be non-negative")

    def check(k, level):
        if any(x > k * (2 * p + 1) for x in level):
            raise MethodError(f"odd support bound violated at order {k}")
        if any(x % 2 != k % 2 for x in level):
            raise MethodError(f"parity structure violated at order {k}")

    levels = _recurse(order, 2 * p + 1, _chain_x, 2, check)
    # floor division only matters at odd k, where Δ(k) = 0
    return _assemble("odd", p, levels, 2, lambda k, x: (k * (2 * p + 3) - x) // 2)


# --------------------------------------------------------------------------
# Independent verification chain: apply C and T = -½ d²/dx² explicitly.


def _apply_c(poly: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Single-integral operator on a polynomial in (x, ĝ).

    Cx^k = ĝ x^k / k for k ≥ 1.  A bare constant cannot pass through C
    (the integral diverges at the origin), so the x-free part is split
    off and returned as the second element, a polynomial in ĝ.
    """
    poly = poly.embedded(_XG)
    out: dict[tuple[int, int], Fraction] = {}
    blocked = MultiPoly.zero(_G)
    for (kx, kg), coeff in poly.terms.items():
        if kx == 0:
            blocked = blocked + _ghat_power(coeff, kg)
        else:
            out[(kx, kg + 1)] = out.get((kx, kg + 1), Fraction(0)) + coeff / kx
    return MultiPoly(out, _XG), blocked


def _kinetic(poly: MultiPoly) -> MultiPoly:
    """T = -½ d²/dx² on a polynomial in (x, ĝ)."""
    second = poly.differentiate(VAR_X).differentiate(VAR_X)
    return MultiPoly.const(Fraction(-1, 2), _XG) * second


def operator_chain_even(n: int):
    """Iterate (-CT)^m C on x^(2n); return (chain sum, subtraction constant).

    Each application lowers the power by two, so n + 1 steps bound the
    loop; after the x² stage the operand handed to C is a bare constant,
    which must be subtracted from the original source for the resolvent to
    act at all.  That constant is returned as a polynomial in ĝ alongside
    the summed polynomial part.
    """
    cur, blocked = _apply_c(MultiPoly.monomial(1, {VAR_X: 2 * n}, _XG))
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
            return total, MultiPoly.zero(_G)
        total = total + cur
    raise RuntimeError("operator chain failed to terminate")


def operator_chain_odd(n: int) -> MultiPoly:
    """Iterate (-CT)^m C on x^(2n+1): no leftovers, at most n + 1 steps."""
    cur, blocked = _apply_c(MultiPoly.monomial(1, {VAR_X: 2 * n + 1}, _XG))
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
