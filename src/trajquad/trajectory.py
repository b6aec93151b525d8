"""Classical trajectory data at e = 0+ along one axis.

The Hamilton–Jacobi exponent of the leading wave-function factor solves
(dS₀/dx)² = 2v, so in one dimension S₀ is exact by quadrature:

    S₀(x) = |∫_origin^x √(2 v(y)) dy|

with the trajectory launched from a chosen minimum of v (v = 0 there,
positive curvature).  The grid stores, at uniformly spaced nodes ordered
along the trajectory (nodes[0] is the origin; for direction -1 the x
values descend), the arc distance from the origin, S₀ (by quadrature on
its first read, since no command reads it), its slope S₀' = √(2v), the
origin curvature ν = ∇²S₀(origin) = √(v''(origin)) and the kink flags.

Where -v has another maximum on the path, √(2v) vanishes and ∇S₀
develops a kink: a kink on a node flags that node, one between two nodes
flags the first node past it, and quadrature panels split at a node kink.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMinimum, InvalidPotential
from .exactalg import VAR_X, parse_poly
from .numerics import _horner, adaptive_panels


@dataclass(frozen=True)
class Potential1D:
    """Polynomial potential v with a chosen minimum.

    ``coeffs`` holds v's ascending float coefficients in x, which the
    hierarchy shifts to the origin; ``derivatives`` evaluates v, v' and v''
    on whole node arrays.
    """

    derivatives: tuple
    coeffs: tuple
    origin: float = 0.0

    @property
    def v(self) -> Callable[[float], float]:
        return self.derivatives[0]

    @property
    def dv(self) -> Callable[[float], float]:
        return self.derivatives[1]

    @property
    def d2v(self) -> Callable[[float], float]:
        return self.derivatives[2]

    @classmethod
    def from_poly(cls, text: str, origin: float = 0.0) -> "Potential1D":
        """The polynomial in x that ``text`` spells; any other symbol is a
        ValueError."""
        poly = parse_poly(text, (VAR_X,))
        coeffs = np.zeros(1 + max((e[0] for e in poly.terms), default=0))
        for (k,), coeff in poly.terms.items():
            coeffs[k] = coeff / poly.den
        stack = []
        cur = coeffs
        for _ in range(3):
            stack.append((lambda c: lambda x: _horner(c, x))(cur))
            cur = cur[1:] * np.arange(1, len(cur)) if len(cur) > 1 else np.zeros(1)
        return cls(derivatives=tuple(stack), coeffs=tuple(coeffs.tolist()),
                   origin=origin)


@dataclass
class TrajectoryGrid:
    """Uniform trajectory grid: arc, S₀, its slope S₀' and ν at the origin."""

    nodes: np.ndarray
    arc: np.ndarray     # distance from the origin along the trajectory
    speed: np.ndarray   # dS₀/d(arc) = √(2v) ≥ 0
    nu: float           # ∇²S₀ at the origin = √(v''(origin))
    kinks: list
    direction: int
    potential: Potential1D
    s0_tol: float       # error target of each panel of the S₀ quadrature

    @functools.cached_property
    def s0(self) -> np.ndarray:
        """S₀ at the nodes, computed on first read: the sum of per-panel
        adaptive Simpson integrals of √(2v), each panel refined until its
        error estimate drops below ``s0_tol`` or ``_PANEL_DEPTH`` levels
        are spent."""
        def integrand(x):
            return np.sqrt(np.maximum(2.0 * self.potential.v(x), 0.0))

        inc = adaptive_panels(integrand, self.nodes, tol=self.s0_tol,
                              max_depth=_PANEL_DEPTH)
        return np.concatenate(([0.0], np.cumsum(np.abs(inc))))


_KINK_SLACK = 1e3 * np.finfo(float).eps
_PANEL_TOL = 1e-12
_PANEL_DEPTH = 30     # refinement levels per panel of the S₀ quadrature


def _kinks(potential: Potential1D, nodes: np.ndarray, grad2: np.ndarray,
           dvv: np.ndarray, direction: int, slack: float) -> list:
    """Nodes flagged as kinks: double zeros of v along the trajectory.

    Across a double zero v falls then rises, so dv/d(arc) = direction·v'
    changes sign from - to + between nodes i and i+1 (the panel at the
    origin excluded).  The sign change is bisected to the minimum; when
    2v there is below ``slack`` the kink is flagged at node i if it sits
    on that node (2v(nodes[i]) < slack) and at i+1, the first node past
    it, otherwise.
    """
    slope = direction * dvv
    pairs = np.flatnonzero((slope[1:-1] < 0.0) & (slope[2:] >= 0.0)) + 1
    if not pairs.size:
        return []
    falling, rising = nodes[pairs], nodes[pairs + 1]
    for _ in range(40):
        mid = 0.5 * (falling + rising)
        down = direction * potential.dv(mid) < 0.0
        falling = np.where(down, mid, falling)
        rising = np.where(down, rising, mid)
    low = 2.0 * potential.v(0.5 * (falling + rising))
    return [i if grad2[i] < slack else i + 1
            for i, v in zip(pairs.tolist(), low.tolist()) if v < slack]


def build_grid(potential: Potential1D, x_max: float, n: int,
               direction: int = 1) -> TrajectoryGrid:
    """Construct the trajectory grid out to distance x_max from the origin.

    The panels of S₀'s quadrature aim at ``_PANEL_TOL``, floored at 64
    rounding units of the largest √(2v) over one panel.
    """
    if n < 16:
        raise ValueError("need at least 16 nodes")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")

    origin = potential.origin
    with np.errstate(over="ignore", invalid="ignore"):
        v_origin, curvature = potential.v(origin), potential.d2v(origin)
        slope = potential.dv(origin)
    if abs(v_origin) > 1e-10:
        raise InvalidPotential("v(origin) must vanish")
    if abs(slope) > 1e-10:
        raise InvalidPotential("v'(origin) must vanish")
    if curvature <= 0.0:
        raise DegenerateMinimum("v''(origin) must be positive")

    nodes = origin + direction * np.linspace(0.0, x_max, n)
    with np.errstate(over="ignore", invalid="ignore"):
        vv, dvv = potential.v(nodes), potential.dv(nodes)
        finite = np.isfinite(2.0 * vv) & np.isfinite(dvv)
    if not finite.all():
        raise InvalidPotential("potential is not finite on the trajectory grid")
    if np.min(vv) < -1e-10 * max(1.0, np.max(np.abs(vv))):
        raise InvalidPotential(
            f"v < 0 at x = {nodes[int(np.argmin(vv))]:.6g}")
    vv = np.maximum(vv, 0.0)
    grad2 = 2.0 * vv

    scale = max(1.0, float(np.max(grad2)))
    kinks = _kinks(potential, nodes, grad2, dvv, direction, _KINK_SLACK * scale)

    # a panel's integral carries rounding of ≈eps·√(2v)·h, which no error
    # estimate can beat: below 64 such units a steep v (x¹⁷¹ on 2.5) refines
    # every panel to _PANEL_DEPTH, for minutes, without gaining a digit
    h = x_max / (n - 1)
    floor = 64.0 * np.finfo(float).eps * math.sqrt(scale) * h

    return TrajectoryGrid(nodes=nodes, arc=np.abs(nodes - nodes[0]),
                          speed=np.sqrt(grad2), nu=math.sqrt(curvature),
                          kinks=kinks, direction=direction, potential=potential,
                          s0_tol=max(_PANEL_TOL, floor))
