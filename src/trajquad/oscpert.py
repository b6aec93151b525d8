"""Exact ε-series for the harmonic oscillator with a monomial perturbation.

The unperturbed Hamiltonian is H = -½ d²/dx² + g²x²/2 with ground state
e^{-gx²/2}; the perturbation is ε·x^P with P = 2p (even) or P = 2p+1 (odd).
The perturbed ground state is written e^{-gx²/2-τ} and e^{-τ} is expanded in
monomials x^n whose coefficients, together with the energy shift, satisfy a
triangular recursion built from one exact rule on x-powers: the resolvent
chain, the inverse of g·x d/dx - ½ d²/dx² on x^j for j ≥ 1 (x^0 has no
image).  At g = 1 it acts on a whole source Σ S_j x^j with top key J as one
O(J) suffix sweep down the keys j = J, J-2, … ≥ 1,

    T_j = S_j + (j+1)/2·T_{j+2},   image T_j/j,

so the image at x^j of x^n is ∏(i-1)/2 over i = j+2, j+4, …, n, divided
by j.  No table is stored.  The two tables of the recursion are its index
maps: Γ_mn is the image at x^(2m) of x^(2n), γ_mn that at x^(2m+1) of
x^(2n+1), as (2m+1)/2 and m+1 are both (j+1)/2:

    Γ_mn  : zero for m > n and for m = 0,
            otherwise ∏_{i=m+1}^{n}(2i-1) / (m·(2g)^(n-m+1)).
    γ_mn  : zero for m > n, otherwise (n!/m!) / ((2m+1)·g^(n-m+1)).

The sweep reads only keys of its top key's parity, so a source must have a
single parity.  Every source does: the source of order k is
-x^P·e^{-τ}(k-1) + Σ_i Δ(k-i)·e^{-τ}(i), Δ(k-i) is nonzero only when
(k-i)P is even, and so by induction every key is ≡ kP (mod 2).  The
support and parity checks on every order secure that induction; a source
of mixed parity would otherwise lose terms silently.

Everything is exact.  Every table entry, every e^{-τ} coefficient and every
energy shift is a single ĝ-monomial c·ĝ^s (ĝ = 1/g, c rational) whose power
s is fixed by scaling, so the recursion runs on the rationals c alone and
no ĝ-monomial is ever built as a polynomial.  The e^{-τ}
coefficients are keyed by their x-power n, and one rule gives every power:

    image at x^j of x^n    s = (n - j)/2 + 1,  so s = n - m + 1 for Γ_mn, γ_mn
    ε^k x^n, Δ(k)          s = (k(P+2) - n) / 2,  Δ(k) with n = 2

The rationals c of one ε-order are kept as integer numerators over one
positive denominator, reduced by the gcd of all of them after every order,
so no rational is normalised inside the recursion.  A source is brought
to the lcm of its parts' denominators.  On a source over D whose top key
is J, the sweep carries the integer A_j = 2^t·S_j + (j+1)·A_{j+2},
t = (J-j)/2, with T_j = A_j/(D·2^t), and puts every image over
D·2^t_max·lcm of the j.  These pairs are ``exactalg``'s integer format;
``PerturbSeries.table`` writes Δ(k) and the shift polynomial from them in
one pass, with the term formatter ``MultiPoly.render`` is built on.

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

from .errors import MethodError
from .exactalg import (VAR_EPS, VAR_GHAT, _factors, _joined, _reduced, _term,
                       _term_value)


def _chain(source: dict, den: int) -> tuple:
    """The resolvent chain on numerators keyed by x-power over ``den``.

    Sweeps the keys j = J, J-2, …, ≥ 1 from the top key J and returns the
    gcd-reduced image as (numerators, denominator).  Keys of the parity
    other than J's are never read, so ``source`` must have a single parity:
    ``_solve``'s support and parity checks secure it order by order.
    """
    top = max(source, default=0)
    keys = range(top, 0, -2)
    shift = max(top - 1, 0) // 2
    span = math.lcm(*keys)
    image, acc = {}, 0
    for t, j in enumerate(keys):
        acc = (j + 1) * acc + (source.get(j, 0) << t)
        if acc:
            image[j] = acc * (span // j) << (shift - t)
    return _reduced(image, den * span << shift)


class PerturbSeries:
    """Exact ε-series for ε·x^P: energy shifts Δ(k) and e^{-τ} coefficients.

    ``levels[k]`` maps an x-power n to the nonzero integer numerator of the
    rational c of the ε^k coefficient c·ĝ^s of x^n in e^{-τ},
    s = (k(P+2) - n)/2; ``denominators[k]`` is the one positive denominator
    of order k, coprime to its numerators.  ``levels[0]`` is {0: 1} over 1.
    """

    def __init__(self, P: int, levels: list, denominators: list):
        self.P, self.levels, self.denominators = P, levels, denominators

    def deltas(self):
        """(k, c, d, s) for k = 1..order: Δ(k) = (c/d)·ĝ^s, c = -(the x²
        numerator), d the order's denominator, s = (k(P+2) - 2)/2."""
        for k in range(1, len(self.levels)):
            yield (k, -self.levels[k].get(2, 0), self.denominators[k],
                   (k * (self.P + 2) - 2) // 2)

    def table(self, ghat: float, check) -> tuple:
        """Rows (k, text, check(value at ĝ)) of Δ(k) and the text of εΔ.

        Text and value are ``MultiPoly``'s render and evaluate of c·ĝ^s;
        ``check`` sees each value before the next is made, so the lowest
        order out of range raises.  εΔ = Σ_k ε^k Δ(k) has its terms in
        render's graded order: k + s = (k(P+4) - 2)/2 rises with k.
        """
        rows, shift = [], []
        for k, c, d, s in self.deltas():
            terms, value = [], 0.0
            if c:
                terms.append((c < 0, _term(c, d, _factors(((VAR_GHAT, s),)))))
                value += _term_value(c, d, ((ghat, s),))
                text = _factors(((VAR_EPS, k), (VAR_GHAT, s)))
                shift.append((c < 0, _term(c, d, text)))
            rows.append((k, _joined(terms), check(value)))
        return rows, _joined(shift)


def _solve(P: int, order: int) -> PerturbSeries:
    """Series for ε·x^P: the levels of e^{-τ} for ε-orders 0..order.

    Order k applies the resolvent chain to the source
    -x^P·e^{-τ}(k-1) + Σ_i Δ(k-i)·e^{-τ}(i), brought to the lcm of the
    denominators of its parts.  Because the chain maps x^n onto powers
    x^j with j ≤ n, each order follows by direct substitution from lower
    ones; before it is used it must respect the support n ≤ kP,
    n ≡ kP (mod 2).
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
        level, den = _chain(source, den)
        for n in level:
            if n > k * P:
                raise MethodError(f"support bound violated at order {k}")
            if (n - k * P) % 2:
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

