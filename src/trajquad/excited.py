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
of the Hermite product, as it must.

For a general 1-D potential 𝓔₁ follows numerically: 𝓔₁ = -b₀, where b₀
is the constant term of (1/χ₀)(½∇² - ∇S₁·∇)χ₀ expanded near the origin
in the trajectory scale.  χ₀ itself is exp(𝓔₀∫da/S₀'), built on the grid
with its x^n singular factor split off analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ExtractionFailure
from .exactalg import MultiPoly
from .numerics import derivative, neville_at
from .trajectory import TrajectoryGrid


@dataclass(frozen=True)
class ExcitedSpec:
    """Frequencies ν_i and occupation numbers n_i of an excited level."""

    freqs: tuple
    occupation: tuple

    def __post_init__(self):
        freqs = tuple(Fraction(f) for f in self.freqs)
        occ = tuple(int(n) for n in self.occupation)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "occupation", occ)
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


def chi0_e0(spec: ExcitedSpec):
    """χ₀ = Π q_i^{n_i} and 𝓔₀ = Σ n_i ν_i, both exact."""
    names = spec.variables()
    chi0 = MultiPoly.monomial(1, dict(zip(names, spec.occupation)), names)
    energy = sum((n * f for n, f in zip(spec.occupation, spec.freqs)),
                 Fraction(0))
    return chi0, energy


def chi1_harmonic(spec: ExcitedSpec) -> MultiPoly:
    """χ₁ = -(χ₀/4) Σ n_i(n_i-1)/(ν_i q_i²); χ₀ cancels every pole."""
    chi0, _ = chi0_e0(spec)
    names = spec.variables()
    total = MultiPoly.zero(names)
    for name, n, nu in zip(names, spec.occupation, spec.freqs):
        if n < 2:
            continue
        coeff = Fraction(-n * (n - 1), 4) / nu
        total = total + coeff * chi0.shifted(name, -2)
    return total


def degenerate_multiplets(freqs, occupations) -> dict:
    """Group occupation tuples by their exact 𝓔₀ (detection only)."""
    groups: dict = {}
    for occ in occupations:
        spec = ExcitedSpec(tuple(freqs), tuple(occ))
        _, energy = chi0_e0(spec)
        groups.setdefault(energy, []).append(tuple(spec.occupation))
    return groups


def excited_e1_numeric(grid: TrajectoryGrid, s1, n: int,
                       tol: float = 1e-6) -> float:
    """𝓔₁ = -b₀ for the 1-D state behaving like x^n at the origin.

    χ₀ = x^n exp(𝓔₀ J) with J' = 1/S₀' - 1/(νa), so the source term is

        x²·(1/χ₀)(½∇² - ∇S₁·∇)χ₀ =
            ½[(n + 𝓔₀J'x)² - n + 𝓔₀J''x²] - S₁'x(n + 𝓔₀J'x)

    whose x²-coefficient is b₀.  It is read off a degree-4 polynomial fit
    over [x_min, 4·x_min], halving x_min until two fits agree to ``tol``.
    """
    if n < 1:
        raise ValueError("need an excited state (n >= 1)")
    arc = grid.arc
    speed = grid.speed
    nu = grid.nu
    e0 = n * nu

    jp = np.empty_like(arc)
    jp[1:] = 1.0 / speed[1:] - 1.0 / (nu * arc[1:])
    jp[0] = neville_at(arc[1:6], jp[1:6], 0.0)
    jpp = derivative(jp, arc)
    s1p = derivative(np.asarray(s1, dtype=float), arc)

    w_x2 = 0.5 * ((n + e0 * jp * arc) ** 2 - n + e0 * jpp * arc ** 2) \
        - s1p * arc * (n + e0 * jp * arc)

    h = arc[1] - arc[0]
    x_min = arc[-1] / 8.0
    prev = None
    while x_min >= 3.0 * h:
        mask = (arc >= x_min) & (arc <= 4.0 * x_min)
        if np.count_nonzero(mask) < 7:
            break
        coeffs = npoly.polyfit(arc[mask], w_x2[mask], 4)
        b0 = float(coeffs[2])
        if prev is not None and abs(b0 - prev) <= tol * max(1.0, abs(b0)):
            return -b0
        prev = b0
        x_min /= 2.0
    raise ExtractionFailure(
        "window fits for the origin coefficient did not converge")
