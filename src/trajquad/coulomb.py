"""Closed-form recursion for the perturbed Coulomb ground state.

For H = -½∇² - g²/r + εU the exponent S of ψ = e^{-S} and the energy are
expanded in the Coulomb grading

    S = g² S₀ + S₁ + g⁻² S₂ + ... + g^{-(2n-2)} S_n + ...
    E = g⁴ E₀ + g² E₁ + E₂ + ... + g^{-(2n-4)} E_n + ...

with S₀ = r and E₀ = -1/2 on the regular branch.  Each subsequent order
satisfies a first-order radial ODE whose right side K_n is assembled from
lower orders:

    ∂S_n/∂r = K_n - E_n,
    K_n = -½ Σ_{m=1}^{n-1} ∇S_m·∇S_{n-m} + ½ ∇²S_{n-1}
          - δ_{n,1}/r + δ_{n,2} εU.

E_n is fixed by the regularity of the hierarchy: we take the angular
average of the r⁰ coefficient of K_n.  Any constant component left in
∂S_n/∂r would integrate to an r-term whose Laplacian feeds a forbidden
1/r source into the next order (r·cos a alone is harmonic and safe),
so this local rule reproduces the log- and 1/r-based conditions that
fix the energies in the worked examples.  Should it ever fail, the
radial integration raises LogSingularity rather than truncating.

All S_n, E_n are exact polynomials in (r, u = cos a, ε); each order mixes
several ε powers, so the tests compare single-ε results through the
ε-coefficient of their reference algebra (``tests/polyring.py``).

The recursion runs on a private integer kernel.  Each polynomial is a
dict of numerators of r^a·u^b·ε^e over one positive denominator, reduced
by the gcd of all numerators after every order, so no rational is
normalised inside a product.  A term's key is the packed int
(a << 2W) + (b << W) + e (``exactalg._packed``), so the key of a product
is one integer add; the field width W is sized from U and the order so
that no u- or ε-field of any product carries into the next (see
``_field_width``), and a negative a sits in the top field, where floor
shifts recover it.  The radial-polar Laplacian and the gradient scale
numerators by integers; a sum brings its parts to the lcm of their
denominators, and the radial antiderivative to the lcm of its (a+1).
The gradient pair (∂_r S_m, ∂_u S_m) is formed when S_m is made and
reused by every later order.  The sum in K_n is symmetric under
m ↔ n-m, so each unordered pair is multiplied once, off-diagonal pairs
counted twice, and the ½ is applied to the finished sum.  Its angular
part r⁻²(1-u²)∂_u S_m·∂_u S_{n-m} is linear in the product, so the
scaled ∂_u products of all pairs are summed first and r⁻²(1-u²) is
applied once per order.  The angular average that fixes E_n also checks
every finished S_n, whose r¹ part must average to zero.  The pairs are
``exactalg``'s integer format: U enters as its ``MultiPoly``'s
numerators and denominator, keyed by (a, b, e) triples and packed on
entry.  S_n and E_n stay packed: the invariants are checked on the
packed keys, and ``CoulombSolution.table`` writes every text and the
energy straight from them through ``exactalg``'s one term formatter, so
no result becomes a ``MultiPoly`` (``tests/test_coulomb_table.py``
keeps that view as the reference the tables are checked against).
This kernel is the package's only radial-polar ∇² and ∇·∇;
``tests/test_coulomb.py`` holds an independent polynomial form of both and
checks every retained grade of the wave equation with it.

The Stark chain, U = z, runs on a kernel of its own (``solve_stark``).
In the parabolic coordinates ξ, η = r(1 ± u) it separates,
S_n = A_n(ξ; ε) + B_n(η; ε) with B_n = A_n|_{ε→−ε}, and r times the
radial ODE leaves one 1-D recursion ξA_n′ = F_n(ξ) − F_n(0), where
F_n = (ξA′_{n−1})′ − Σ_{m=1}^{n−1} ξA_m′A′_{n−m} + δ_{n2}·εξ²/4 − E_n·ξ/2.
The rule above reads A_n′(0) + B_n′(0) = 0, so E_n is twice the ε-even
part of F_n's ξ¹ coefficient.  Each S_n is then written into the packed
(r, u, ε) pairs above, equal to the general kernel's.
"""

from __future__ import annotations

import math

from .errors import LogSingularity, MethodError
from .exactalg import (VAR_EPS, VAR_R, VAR_U, MultiPoly, _add_product,
                       _factors, _joined, _nonzero, _packed, _reduced, _term,
                       _term_value)

RUE = (VAR_R, VAR_U, VAR_EPS)


class CoulombSolution:
    """The chain's S_n and E_n, n = 0..order, as (numerators, denominator)
    pairs keyed by r^a·u^b·ε^e packed at ``width`` (``exactalg._packed``).

    Every S_n has a ≥ 1, so the key order is the exponents' lexicographic
    order; every E_n has a = b = 0, so its keys are its ε-powers.  S carries
    the weight g^{-(2n-2)} and E the weight g^{-(2n-4)}.
    """

    def __init__(self, order: int, width: int, s_terms: list, e_terms: list):
        self.order, self.width = order, width
        self.s_terms, self.e_terms = s_terms, e_terms

    def table(self, g: float, eps: float, check) -> tuple:
        """(E_n texts, S_n texts, symbolic energy, checked energy) in one pass.

        The texts are ``MultiPoly.render``'s over (r, u, ε), each key's
        factor text built once.  The energy Σ g^{-(2n-4)} E_n(ε) sums each
        E_n in render's term order, the bits of the tests' float reference
        (``tests/polyring.py``'s ``evaluate``); ``check`` sees it before
        any text is made.
        """
        if g <= 0:
            raise ValueError("g must be positive")
        energy = check(sum(g ** (4 - 2 * n) * _value(num, den, eps)
                           for n, (num, den) in enumerate(self.e_terms)))
        factors = {}
        e_texts = [_render(*e, self.width, factors) for e in self.e_terms]
        s_texts = [_render(*s, self.width, factors) for s in self.s_terms]
        return e_texts, s_texts, assemble_energy_symbolic(e_texts), energy


def assemble_energy_symbolic(e_texts: list) -> str:
    """The energy with explicit g powers, lowest order first, from the
    rendered E_n, n = 0, 1, …; an E_n rendered "0" is left out."""
    pieces = []
    for n, body in enumerate(e_texts):
        if body != "0":
            if " + " in body or " - " in body[1:]:
                body = f"({body})"
            pieces.append(body if n == 2 else f"g^{4 - 2 * n} * {body}")
    return " + ".join(pieces) or "0"


def _render(num: dict, den: int, width: int, factors: dict) -> str:
    """``MultiPoly.render`` of a pair keyed at ``width``, every a ≥ 0.

    ``factors`` maps each key met so far to (degree, key, factor text);
    sorted, these are render's graded order.
    """
    top, mask = 2 * width, (1 << width) - 1
    terms = []
    for k in num:
        term = factors.get(k)
        if term is None:
            a, b, e = k >> top, (k >> width) & mask, k & mask
            text = _factors(((VAR_R, a), (VAR_U, b), (VAR_EPS, e)))
            term = factors[k] = (a + b + e, k, text)
        terms.append(term)
    terms.sort()
    return _joined([(num[k] < 0, _term(num[k], den, text))
                    for _, k, text in terms])


def _value(num: dict, den: int, eps: float) -> float:
    """E_n at ε, summed by rising ε-power: the tests' ``evaluate``."""
    value = 0.0
    for e in sorted(num):
        value += _term_value(num[e], den, ((eps, e),))
    return value


# ---------------------------------------------------------- integer kernel
# A polynomial is a pair (num, den): num maps the packed key
# (a << 2W) + (b << W) + e of r^a·u^b·ε^e to its integer numerator, and
# den > 0 is shared by every term.


def _field_width(u_num: dict, order: int) -> int:
    """Bits W of the u- and ε-fields of the chain's packed keys.

    Every term r^a·u^b·ε^e the chain of U forms up to ``order``, products
    included, has e ≤ ⌊order/2⌋ (ε enters once, at n = 2) and
    b ≤ max(1, b_U)·e, b_U being U's highest u-power: ∂_u takes one u from
    each factor of a product and (1-u²) gives two back.  Both fit below 2^W.
    """
    b_u = max((b for _, b, _ in u_num), default=0)
    return max(1, (max(1, b_u) * (order // 2)).bit_length())


def _add_laplacian(out: dict, num: dict, scale: int, width: int) -> None:
    """out += scale·∇²num (radial-polar), keys packed at ``width``.

    ∇²(r^a·u^b) = [a(a+1) - b(b+1)]·r^(a-2)·u^b + b(b-1)·r^(a-2)·u^(b-2).
    """
    get = out.get
    shift, mask = 2 * width, (1 << width) - 1
    r2, u2 = 2 << shift, 2 << width
    for k, c in num.items():
        a, b = k >> shift, (k >> width) & mask
        f, h = a * (a + 1) - b * (b + 1), b * (b - 1)
        c *= scale
        if f:
            key = k - r2
            out[key] = get(key, 0) + f * c
        if h:
            key = k - r2 - u2
            out[key] = get(key, 0) + h * c


def _gradient(num: dict, width: int) -> tuple:
    """(∂_r, ∂_u) of ``num``, over the same denominator."""
    shift, mask = 2 * width, (1 << width) - 1
    r1, u1 = 1 << shift, 1 << width
    dr = {k - r1: a * c for k, c in num.items() if (a := k >> shift)}
    du = {k - u1: b * c for k, c in num.items() if (b := (k >> width) & mask)}
    return dr, du


def _angular_average(level: list) -> tuple:
    """(1/2)∫du of Σ c·u^b·ε^e over (b, e, c) triples, keyed by e, and its scale.

    (1/2)∫u^b du = 1/(b+1) for even b and 0 for odd b, so the average is
    the returned numerators over the terms' denominator times the returned
    lcm of the even b's (b+1).
    """
    scale = math.lcm(*(b + 1 for b, _, _ in level if b % 2 == 0))
    out = {}
    for b, e, c in level:
        if b % 2 == 0:
            out[e] = out.get(e, 0) + c * (scale // (b + 1))
    return _nonzero(out), scale


def _integer_chain(u_num: dict, u_den: int, order: int) -> CoulombSolution:
    """S_n and E_n, n = 0..order, as reduced (numerators, denominator) pairs.

    U's numerators are keyed by (a, b, e) triples; the chain runs on keys
    packed at ``_field_width`` and returns them so, its invariants checked.
    """
    width = _field_width(u_num, order)
    shift, mask = 2 * width, (1 << width) - 1
    r1 = 1 << shift
    u_eps = {k + 1: c for k, c in _packed(u_num, width).items()}   # ε·U
    s_terms = [({r1: 1}, 1)]
    e_terms = [({0: -1}, 2)]
    grads = [None]                # ((∂_r, ∂_u), den) of S_m, 1 <= m < order
    for n in range(1, order + 1):
        prev, prev_den = s_terms[n - 1]
        pairs = [(grads[m], grads[n - m], 1 if 2 * m == n else 2)
                 for m in range(1, n // 2 + 1)]
        den = math.lcm(prev_den, u_den if n == 2 else 1,
                       *(ga[1] * gb[1] for ga, gb, _ in pairs))
        # 2·K_n over den:
        # ∇²S_{n-1} - Σ_{m=1}^{n-1} ∇S_m·∇S_{n-m} - 2δ_{n,1}/r + 2δ_{n,2}εU,
        # with ∇x·∇y = ∂_r x ∂_r y + r⁻²(1-u²)∂_u x ∂_u y and the r⁻²(1-u²)
        # applied once to the summed ∂_u products
        total, angular = {}, {}
        _add_laplacian(total, prev, den // prev_den, width)
        for ((dr_a, du_a), den_a), ((dr_b, du_b), den_b), twice in pairs:
            scale = -twice * (den // (den_a * den_b))
            _add_product(total, dr_a, dr_b, scale)
            if du_a and du_b:       # both empty for an isotropic U
                _add_product(angular, du_a, du_b, scale)
        get = total.get
        for k, c in angular.items():
            key = k - 2 * r1
            total[key] = get(key, 0) + c
            key += 2 << width
            total[key] = get(key, 0) - c
        if n == 1:
            total[-r1] = get(-r1, 0) - 2 * den
        if n == 2:
            for k, c in u_eps.items():
                total[k] = get(k, 0) + 2 * c * (den // u_den)
        k_num, k_den = _nonzero(total), 2 * den
        # E_n: the angular average of K_n's r⁰ part, whose packed key is e
        e_num, avg = _angular_average([((k >> width) & mask, k & mask, c)
                                       for k, c in k_num.items() if 0 <= k < r1])
        k_den *= avg
        if avg > 1:
            k_num = {k: c * avg for k, c in k_num.items()}
        for key, c in e_num.items():
            k_num[key] = k_num.get(key, 0) - c
        k_num = _nonzero(k_num)
        e_terms.append(_reduced(e_num, k_den))
        # S_n = ∫ (K_n - E_n) dr with zero constant
        bad = {k + r1: c for k, c in k_num.items() if k >> shift == -1}
        if bad:
            raise LogSingularity("r^-1 source with angular coefficient "
                                 f"{_render(bad, k_den, width, {})}")
        span = math.lcm(*((k >> shift) + 1 for k in k_num))
        s_n = _reduced({k + r1: c * (span // ((k >> shift) + 1))
                        for k, c in k_num.items()}, k_den * span)
        s_terms.append(s_n)
        if n < order:
            grads.append((_gradient(s_n[0], width), s_n[1]))
    _check_invariants(s_terms, e_terms, width)
    return CoulombSolution(order, width, s_terms, e_terms)


def solve_perturbed(u_poly: MultiPoly, order: int) -> CoulombSolution:
    """Run the radial recursion for a polynomial perturbation U(r, u).

    U must vanish at r = 0 (no constant shift and no bare angular term)
    and be free of ε, which the recursion attaches itself.
    The domain is the axially symmetric polynomials in z = r·u and
    ρ² = x² + y² = r²(1 − u²) that vanish at the origin.  They expand to
    terms r^a·u^b with b ≤ a and a ≡ b (mod 2), and every such term with
    a ≤ 5 runs to order 8.  Outside the domain U is not analytic at the
    origin (r or r·u² = z²/r, say).  Terms with b ≤ a + 1 still run, but a
    term with b ≥ a + 2, such as r·u³ = z³/r², feeds an r^-1 source into a
    later order and the run stops with ``LogSingularity`` (r·u³, r²·u⁴ and
    r³·u⁵ by order 6, r⁴·u⁶ and r⁵·u⁷ by order 8; ``tests/test_coulomb.py``,
    ``TestRandomizedResiduals``).
    """
    u_poly = u_poly.embedded(RUE)
    u_num, u_den = u_poly.terms, u_poly.den
    if any(e for _, _, e in u_num):
        raise ValueError("perturbation must not depend on ε")
    if any(a < 1 for a, _, _ in u_num):
        raise ValueError("perturbation must vanish at the origin")
    return _integer_chain(u_num, u_den, order)


def solve_isotropic(u_poly: MultiPoly, order: int) -> CoulombSolution:
    """Recursion for a radial perturbation U(r); rejects angular content."""
    if u_poly.depends_on(VAR_U):
        raise ValueError("isotropic perturbation must not depend on u")
    return solve_perturbed(u_poly, order)


def solve_stark(order: int) -> CoulombSolution:
    """Recursion for the uniform-field perturbation U = r·cos a = z.

    z → −z with ε → −ε leaves H unchanged, so in ξ, η = r(1 ± u)
    S_n = A_n(ξ; ε) + B_n(η; ε) with B_n = A_n|_{ε→−ε}, and r·∂_r S_n =
    r·(K_n − E_n) leaves ξA_n′ = F_n(ξ) − F_n(0) from A_0 = ξ/2, where
    F_n = (ξA′_{n−1})′ − Σ_{m=1}^{n−1} ξA_m′A′_{n−m} + δ_{n2}·εξ²/4 − E_n·ξ/2.
    S_n's r¹ part has zero angular mean iff A_n′(0) + B_n′(0) = 0, so E_n is
    twice the ε-even part of F_n's ξ¹ coefficient before its E_n term.
    A_n′ is keyed by (a << W) + e for ξ^a·ε^e, W being ``_field_width``'s
    for U = r·u, and each S_n is written into its (r, u, ε) keys by
    ξ^a + (−1)^e·η^a = 2r^a·Σ_{b ≡ e (mod 2)} C(a, b)·u^b: the same pairs.
    """
    if order < 2:
        raise ValueError("the Stark chain starts contributing at order 2")
    width = _field_width({(1, 1, 0): 1}, order)
    x1 = 1 << width                         # ξ¹
    slopes = [({0: 1}, 2)]                  # A_m′ over its denominator
    s_terms = [({1 << 2 * width: 1}, 1)]
    e_terms = [({0: -1}, 2)]
    for n in range(1, order + 1):
        prev, prev_den = slopes[n - 1]
        pairs = [(slopes[m], slopes[n - m], 1 if 2 * m == n else 2)
                 for m in range(1, n // 2 + 1)]
        den = math.lcm(prev_den, 4 if n == 2 else 1,
                       *(a[1] * b[1] for a, b, _ in pairs))
        products = {}
        for (slope_a, den_a), (slope_b, den_b), twice in pairs:
            _add_product(products, slope_a, slope_b,
                         twice * (den // (den_a * den_b)))
        # F_n over den, before its E_n term
        scale = den // prev_den
        f = {k: ((k >> width) + 1) * c * scale for k, c in prev.items()}
        get = f.get
        for k, c in products.items():
            key = k + x1
            f[key] = get(key, 0) - c
        if n == 2:
            f[2 * x1 + 1] = get(2 * x1 + 1, 0) + den // 4
        # E_n takes the ε-even ξ¹ terms (W ≥ 1, so e's parity is k's);
        # what is left above ξ⁰, divided by ξ, is A_n′
        e_num, slope = {}, {}
        for k, c in f.items():
            if c and k >= x1:
                if k < 2 * x1 and not k & 1:
                    e_num[k - x1] = 2 * c
                else:
                    slope[k - x1] = c
        e_terms.append(_reduced(e_num, den))
        slope, den = _reduced(slope, den)
        if n < order:
            slopes.append((slope, den))
        # S_n = A_n(ξ; ε) + A_n(η; −ε), A_n = ∫A_n′ dξ
        span = math.lcm(*((k >> width) + 1 for k in slope))
        s_num = {}
        for k, c in slope.items():
            a, e = (k >> width) + 1, k & (x1 - 1)
            c *= 2 * (span // a)
            base = (a << 2 * width) + e
            for b in range(e & 1, a + 1, 2):
                s_num[base + (b << width)] = math.comb(a, b) * c
        s_terms.append(_reduced(s_num, den * span))
    _check_invariants(s_terms, e_terms, width)
    return CoulombSolution(order, width, s_terms, e_terms)


def _check_invariants(s_terms: list, e_terms: list, width: int) -> None:
    """Raise MethodError unless the chain's pairs, keyed at ``width``, hold.

    Every S_n vanishes at r = 0 (a < 1 is exactly key < 1 << 2W), every
    S_n past S_0 has an r¹ part of zero angular average, and every E_n is
    free of r and u (0 ≤ key < 1 << W).
    """
    r1, mask = 1 << 2 * width, (1 << width) - 1
    for n, (s_num, _) in enumerate(s_terms):
        if s_num and min(s_num) < r1:
            raise MethodError(f"S_{n} does not vanish at the origin")
        if n >= 1 and _angular_average([((k >> width) & mask, k & mask, c)
                                        for k, c in s_num.items()
                                        if k < 2 * r1])[0]:
            raise MethodError(f"S_{n} keeps a radially-constant slope at r=0")
    for n, (e_num, _) in enumerate(e_terms):
        if e_num and (min(e_num) < 0 or max(e_num) > mask):
            raise MethodError(f"E_{n} is not a pure ε-polynomial")
