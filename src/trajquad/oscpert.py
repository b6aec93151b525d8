"""Exact ε-series for the harmonic oscillator with a monomial perturbation.

The unperturbed Hamiltonian is H = -½ d²/dx² + g²x²/2 with ground state
e^{-gx²/2}; the perturbation is ε·x^P with P = 2p (even) or P = 2p+1 (odd).
The perturbed ground state is written e^{-gx²/2-τ} and e^{-τ} is expanded in
monomials x^n whose coefficients, together with the energy shift, satisfy a
triangular recursion built from two exact rational tables:

    Γ_mn  : action of the resolvent chain on even powers; zero for m > n
            and for m = 0, otherwise ∏_{j=m+1}^{n}(2j-1) / (m·(2g)^(n-m+1)).
    γ_mn  : the odd-power analogue, (n!/m!) / ((2m+1)·g^(n-m+1)) for m ≤ n.

Both tables have product form and neither is stored: the chain acts on a
whole source Σ s_n x^(2n) (x^(2n+1) for γ) as one O(n) suffix sweep,

    Γ :  T_m = s_m + (2m+1)/2·T_{m+1},  image T_m/(2m)    for m ≥ 1,
    γ :  U_m = s_m + (m+1)·U_{m+1},     image U_m/(2m+1)  for m ≥ 0.

Everything is exact.  Every table entry, every e^{-τ} coefficient and every
energy shift is a single ĝ-monomial c·ĝ^s (ĝ = 1/g, c rational) whose power
s is fixed by scaling, so the recursion runs on the rationals c alone and a
ĝ-monomial is built only when a caller asks for one.  Both parities key the
e^{-τ} coefficients by their x-power n, and one rule gives every power:

    Γ_mn, γ_mn             s = n - m + 1
    ε^k x^n, Δ(k)          s = (k(P+2) - n) / 2,  Δ(k) with n = 2

The rationals c of one ε-order are kept as integer numerators over one
positive denominator, reduced by the gcd of all of them after every order,
so no rational is normalised inside the recursion.  A source is brought
to the lcm of its parts' denominators.  On a source over D whose top even
key is M, the Γ sweep carries the integer A_m = 2^(M-m)·S_m + (2m+1)·A_{m+1}
with T_m = A_m/(D·2^(M-m)), and puts every image over D·2^M·lcm(1..M); the
γ sweep is an integer recurrence already, its images over D·lcm of the
(2m+1).  A ``Fraction`` is built only for a coefficient a caller reads.

The series is solved order by order in ε with no truncation other than the
requested order.  At ε-order k the coefficients live on n ≤ kP with
n ≡ kP (mod 2), and the energy shift is Δ(k) = -(the x² coefficient), so
odd perturbations shift the energy only at even ε-orders.

``tests/test_oscpert.py`` verifies the tables independently: its
``operator_chain_even``/``operator_chain_odd`` re-derive the table action
by explicitly iterating the single-integral operator and -½ d²/dx² on
monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MethodError
from .exactalg import VAR_EPS, VAR_GHAT, MultiPoly, _reduced

_G = (VAR_GHAT,)
_EG = (VAR_EPS, VAR_GHAT)


def _ghat_power(coeff: Fraction, power: int) -> MultiPoly:
    return MultiPoly._make({(power,): coeff}, _G)


def _chain_even(source: dict, den: int) -> tuple:
    """Γ on numerators keyed by n ↔ x^(2n) over ``den``; nonzero image, same keys.

    Returns (numerators, denominator), not gcd-reduced.
    """
    top = max(source, default=0)
    span = math.lcm(*range(1, top + 1))
    image, acc = {}, 0
    for m in range(top, 0, -1):
        acc = (2 * m + 1) * acc + (source.get(m, 0) << (top - m))
        if acc:
            image[m] = acc * (span // m) << (m - 1)
    return image, den * span << top


def _chain_odd(source: dict, den: int) -> tuple:
    """γ on numerators keyed by n ↔ x^(2n+1) over ``den``; nonzero image, same keys.

    Returns (numerators, denominator), not gcd-reduced.
    """
    top = max(source, default=-1)
    span = math.lcm(*range(1, 2 * top + 2, 2))
    image, acc = {}, 0
    for m in range(top, -1, -1):
        acc = (m + 1) * acc + source.get(m, 0)
        if acc:
            image[m] = acc * (span // (2 * m + 1))
    return image, den * span


def _chain_x(source: dict, den: int) -> tuple:
    """Chain on numerators keyed by x-power over ``den``: Γ on the even part,
    γ on the odd; the gcd-reduced image as (numerators, denominator)."""
    even, den_even = _chain_even({x // 2: c for x, c in source.items() if x % 2 == 0},
                                 den)
    odd, den_odd = _chain_odd({x // 2: c for x, c in source.items() if x % 2}, den)
    den = math.lcm(den_even, den_odd)
    scale_even, scale_odd = den // den_even, den // den_odd
    return _reduced({2 * m: c * scale_even for m, c in even.items()}
                    | {2 * m + 1: c * scale_odd for m, c in odd.items()}, den)


@dataclass
class PerturbSeries:
    """Exact ε-series for ε·x^P: energy shifts Δ(k) and e^{-τ} coefficients.

    ``levels[k]`` maps an x-power n to the nonzero integer numerator of the
    rational c of the ε^k coefficient c·ĝ^s of x^n in e^{-τ},
    s = (k(P+2) - n)/2; ``denominators[k]`` is the one positive denominator
    of order k, coprime to its numerators.  ``levels[0]`` is {0: 1} over 1.
    The accessors take the paper's k and build c and ĝ^s on demand.
    """

    P: int
    levels: list
    denominators: list

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    def _power(self, k: int, n: int) -> int:
        return (k * (self.P + 2) - n) // 2

    def _monomial(self, k: int, n: int, sign: int) -> MultiPoly:
        c = self.levels[k].get(n)
        if not c:
            return MultiPoly.zero(_G)
        return _ghat_power(Fraction(sign * c, self.denominators[k]), self._power(k, n))

    def coeff(self, k: int, n: int) -> MultiPoly:
        """ε^k coefficient of x^n in e^{-τ} as a ĝ-monomial."""
        return self._monomial(k, n, 1)

    def delta(self, k: int) -> MultiPoly:
        """Δ(k) = -(the ε^k coefficient of x²), with εΔ = Σ_k ε^k Δ(k)."""
        return self._monomial(k, 2, -1)

    def _eps_series(self, n: int, sign: int) -> MultiPoly:
        """Σ_{k≥1} sign·(ε^k coefficient of x^n)·ε^k, exact in (ε, ĝ)."""
        pairs = zip(self.levels[1:], self.denominators[1:])
        terms = {(k, self._power(k, n)): Fraction(sign * level[n], den)
                 for k, (level, den) in enumerate(pairs, start=1) if n in level}
        return MultiPoly._make(terms, _EG)

    def shift_polynomial(self) -> MultiPoly:
        """εΔ as an exact polynomial in (ε, ĝ)."""
        return self._eps_series(2, -1)

    def exp_minus_tau_coeff(self, power: int) -> MultiPoly:
        """Coefficient of x^power in e^{-τ}, exact in (ε, ĝ)."""
        return self._eps_series(power, 1)


def _solve(P: int, order: int) -> PerturbSeries:
    """Series for ε·x^P: the levels of e^{-τ} for ε-orders 0..order.

    Order k applies the resolvent chain to the source
    -x^P·e^{-τ}(k-1) + Σ_i Δ(k-i)·e^{-τ}(i), brought to the lcm of the
    denominators of its parts.  Because Γ_mn and γ_mn vanish for m > n,
    each order follows by direct substitution from lower ones; before it
    is used it must respect the support n ≤ kP, n ≡ kP (mod 2).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    levels, dens = [{0: 1}], [1]
    for k in range(1, order + 1):
        # Δ(k-i)·e^{-τ}(i) over dens[i]·dens[k-i]; the x² numerator is -Δ
        parts = [(levels[i], dens[i] * dens[k - i], levels[k - i][2])
                 for i in range(1, k) if 2 in levels[k - i]]
        den = math.lcm(dens[k - 1], *(d for _, d, _ in parts))
        scale = den // dens[k - 1]
        source = {n + P: -c * scale for n, c in levels[k - 1].items()}
        get = source.get
        for part, part_den, minus_delta in parts:
            factor = minus_delta * (den // part_den)
            for n, c in part.items():
                source[n] = get(n, 0) - c * factor
        level, den = _chain_x(source, den)
        if any(n > k * P for n in level):
            raise MethodError(f"support bound violated at order {k}")
        if any((n - k * P) % 2 for n in level):
            raise MethodError(f"parity structure violated at order {k}")
        levels.append(level)
        dens.append(den)
    return PerturbSeries(P, levels, dens)


def solve_even(p: int, order: int) -> PerturbSeries:
    """Series for ε·x^(2p): exact Δ(k) and e^{-τ} coefficients for k ≤ order."""
    if p < 1:
        raise ValueError("even perturbation needs p >= 1")
    return _solve(2 * p, order)


def solve_odd(p: int, order: int) -> PerturbSeries:
    """Series for ε·x^(2p+1): every Δ(odd k) vanishes identically."""
    if p < 0:
        raise ValueError("odd perturbation needs p >= 0")
    return _solve(2 * p + 1, order)

