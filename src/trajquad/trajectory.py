"""Classical trajectory data at e = 0+ along one axis.

The Hamilton–Jacobi exponent of the leading wave-function factor solves
(dS₀/dx)² = 2v.  Launched from a chosen minimum of v (v = 0 there,
positive curvature), the trajectory's slope in its arc a is √P, with one
polynomial deciding the whole grid:

    P(a) = 2v(origin + direction·a).

The grid stores, at uniformly spaced nodes ordered along the trajectory
(nodes[0] is the origin; for direction -1 the x values descend), the arc
distance from the origin, P, ν = ∇²S₀(origin) = √P₂ (P₂ = v''(origin) is
P's a² coefficient) and the radius of the nearest zero of P/a²; no command
reads the slope S₀' = √P or its integral S₀, so neither is stored.

Where v has another zero on the path, √P vanishes and ∇S₀ develops a
kink, across which the hierarchy is not analytic.  Such a zero is a
double zero of P, a local minimum where P vanishes, so the grid is
refused when P at one of its real critical points ahead (a zero of P'/a),
or at the far end when P falls to it, is below 1e3 rounding units of P's
largest value on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMinimum, HierarchyBreakdown, InvalidPotential
from .exactalg import VAR_X, parse_poly
from .numerics import _horner


def coefficients(text: str, var: str = VAR_X) -> np.ndarray:
    """Ascending float coefficients of the polynomial in ``var`` (v in x, or
    the radial U in r) that ``text`` spells; any other symbol or a negative
    power is a ValueError."""
    poly = parse_poly(text, (var,))
    if any(k < 0 for (k,) in poly.terms):
        raise ValueError(f"negative power of {var} in {text!r}: the potential "
                         f"must be a polynomial in {var}")
    coeffs = np.zeros(1 + max((e[0] for e in poly.terms), default=0))
    for (k,), coeff in poly.terms.items():
        coeffs[k] = coeff / poly.den
    return coeffs


@dataclass
class TrajectoryGrid:
    """Uniform trajectory grid: arc and ν, from P along the path."""

    nodes: np.ndarray
    arc: np.ndarray     # distance from the origin along the trajectory
    nu: float           # ∇²S₀ at the origin = √(v''(origin))
    P: np.ndarray       # 2v(origin + direction·a), ascending in the arc a
    radius: float       # smallest |zero| of P/a², inf when it has none


_KINK_SLACK = 1e3 * np.finfo(float).eps


def build_grid(coeffs, x_max: float, n: int, origin: float = 0.0,
               direction: int = 1) -> TrajectoryGrid:
    """Construct the trajectory grid of v (ascending ``coeffs`` in x) out to
    distance x_max from the origin, refusing a kink on the path."""
    if n < 16:
        raise ValueError("need at least 16 nodes")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")

    # Taylor shift: P ← P·(origin + direction·a) + 2c, top coefficient first
    P = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(coeffs):
            P = np.convolve(P, [origin, direction])
            P[0] += 2.0 * c
    # drop the exact 0 the zero start leaves on top: len(P) - 1 is v's degree
    P = P[:max(len(coeffs), 3)]
    if abs(P[0]) > 2e-10:
        raise InvalidPotential("v(origin) must vanish")
    if abs(P[1]) > 2e-10:
        raise InvalidPotential("v'(origin) must vanish")
    if len(P) < 3 or P[2] <= 0.0:
        raise DegenerateMinimum("v''(origin) must be positive")
    P[:2] = 0.0

    nodes = origin + direction * np.linspace(0.0, x_max, n)
    arc = np.abs(nodes - nodes[0])
    with np.errstate(over="ignore", invalid="ignore"):
        p = _horner(P, arc)
    if not np.isfinite(p).all():
        raise InvalidPotential("potential is not finite on the trajectory grid")
    if np.min(p) < -2e-10 * max(1.0, np.max(np.abs(p))):
        raise InvalidPotential(f"v < 0 at x = {nodes[int(np.argmin(p))]:.6g}")

    # P's real critical points ahead, the zeros of P'/a.  P rises from the
    # origin, so they alternate maximum, minimum, ...; after an odd count
    # P falls to the far end, which is then a minimum too (a double zero
    # on the last node, whichever side of it its root is computed)
    crit = np.roots((np.arange(2, len(P)) * P[2:])[::-1])
    crit = np.sort(crit.real[np.abs(crit.imag) < 1e-6 * crit.real])
    ahead = crit[:np.searchsorted(crit, arc[-1])]
    if len(ahead) % 2:
        ahead = np.append(ahead, arc[-1])
    if ahead.size:
        low = _horner(P, ahead)
        if np.min(low) < _KINK_SLACK * max(1.0, float(np.max(p))):
            x = origin + direction * ahead[int(np.argmin(low))]
            raise HierarchyBreakdown(
                f"v vanishes at x = {x:.6g} on the trajectory: ∇S₀ has a "
                "kink there, and the hierarchy is not analytic across it")

    zeros = np.roots(P[:1:-1])
    return TrajectoryGrid(nodes=nodes, arc=arc, nu=math.sqrt(P[2]), P=P,
                          radius=np.abs(zeros).min() if zeros.size else np.inf)
