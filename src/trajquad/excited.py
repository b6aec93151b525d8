"""Excited states along the trajectory: χ₀, χ₁ and the first corrections.

Excited states are written χ·e^{-gS} with χ = χ₀ + g⁻¹χ₁ + ... and
relative energy 𝓔 = g𝓔₀ + 𝓔₁ + ...; matching g-powers gives first-order
transport equations along the classical trajectory.  Near a harmonic
minimum with frequencies ν_i, a state is classified by its origin
behavior χ₀ → Π q_i^{n_i}, which fixes

    𝓔₀ = Σ n_i ν_i        (exactly),

and for the pure harmonic potential the first correction has the closed
form χ₁ = -(χ₀/4) Σ n_i(n_i-1)/(ν_i q_i²) with 𝓔₁ = 0 (any other choice
would bolt a log onto χ₁).  χ₀ + g⁻¹χ₁ then reproduces the top two terms
of the Hermite product, as it must.  The CLI reports 𝓔₁ = 0 on that
basis; a general potential's 𝓔₁ is not computed here (its numeric window
fit is a reference in ``tests/test_excited.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import MultiPoly, _var_key


class ExcitedSpec:
    """Frequencies ν_i and occupation numbers n_i of an excited level."""

    def __init__(self, freqs: tuple, occupation: tuple):
        try:
            freqs = tuple(Fraction(f) for f in freqs)
        except ZeroDivisionError:
            raise ValueError(f"bad frequency in {freqs!r}: "
                             f"zero denominator") from None
        occ = tuple(int(n) for n in occupation)
        self.freqs, self.occupation = freqs, occ
        if len(freqs) != len(occ):
            raise ValueError("freqs and occupation must have equal length")
        if any(f <= 0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if any(n < 0 for n in occ):
            raise ValueError("occupation numbers must be non-negative")
        if not any(occ):
            raise ValueError("the ground state is handled by the hierarchy")

    @property
    def dim(self) -> int:
        return len(self.freqs)

    def variables(self):
        return tuple(f"q{i+1}" for i in range(self.dim))


def _over_q(spec: ExcitedSpec, terms: dict, den: int) -> MultiPoly:
    """terms/den over the q names in collation order, the exponents permuted
    to match: q10 sorts between q1 and q2."""
    names = spec.variables()
    order = sorted(range(spec.dim), key=lambda i: _var_key(names[i]))
    return MultiPoly({tuple(e[i] for i in order): c for e, c in terms.items()},
                     den, tuple(names[i] for i in order))


def chi0_e0(spec: ExcitedSpec):
    """χ₀ = Π q_i^{n_i} and 𝓔₀ = Σ n_i ν_i, both exact."""
    chi0 = _over_q(spec, {spec.occupation: 1}, 1)
    energy = sum((n * f for n, f in zip(spec.occupation, spec.freqs)),
                 Fraction(0))
    return chi0, energy


def chi1_harmonic(spec: ExcitedSpec) -> MultiPoly:
    """χ₁ = -(χ₀/4) Σ n_i(n_i-1)/(ν_i q_i²); χ₀ cancels every pole."""
    occ = spec.occupation
    coeffs = {occ[:i] + (n - 2,) + occ[i + 1:]: Fraction(-n * (n - 1), 4) / nu
              for i, (n, nu) in enumerate(zip(occ, spec.freqs)) if n >= 2}
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return _over_q(spec, {e: c.numerator * (den // c.denominator)
                          for e, c in coeffs.items()}, den)
