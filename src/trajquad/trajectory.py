"""Classical trajectory data at e = 0+ for 1-D and separable potentials.

The Hamilton–Jacobi exponent of the leading wave-function factor solves
(dS₀/dx)² = 2v, so in one dimension S₀ is exact by quadrature:

    S₀(x) = |∫_origin^x √(2 v(y)) dy|

with the trajectory launched from a chosen minimum of v (v = 0 there,
positive curvature).  The grid stores S₀, (∇S₀)² = 2v, ∇²S₀ and the
accumulated classical time at uniformly spaced nodes ordered along the
trajectory (nodes[0] is the origin; for direction -1 the x values
descend).

∇²S₀ = direction·v'/√(2v) away from the origin and √(v''(origin)) at the
origin itself.  Where -v has another maximum on the path, √(2v) vanishes
and ∇S₀ develops a kink: such nodes are flagged, quadrature panels split
there, the Laplacian entry is extrapolated from the approach side, and
the classical time, which diverges logarithmically at a kink, is +inf
from the kink onwards.  Time also diverges at the origin, so it is
measured from the first node and the origin entry is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateMinimum, InvalidPotential
from .exactalg import VAR_X, MultiPoly, parse_poly
from .numerics import adaptive_integral, extrapolate_to_zero


@dataclass(frozen=True)
class Potential1D:
    """Scaled potential v with derivatives and a chosen minimum.

    ``derivatives[m]`` evaluates v^(m); polynomial potentials carry the
    full stack (the hierarchy differentiates analytically as deep as it
    needs), black-box ones the required minimum of two.
    """

    derivatives: tuple
    origin: float = 0.0
    source: MultiPoly | None = None

    @property
    def v(self) -> Callable[[float], float]:
        return self.derivatives[0]

    @property
    def dv(self) -> Callable[[float], float]:
        return self.derivatives[1]

    @property
    def d2v(self) -> Callable[[float], float]:
        return self.derivatives[2]

    @property
    def depth(self) -> int:
        """Highest analytically available derivative order."""
        return len(self.derivatives) - 1

    @classmethod
    def from_poly(cls, poly: MultiPoly | str, origin: float = 0.0) -> "Potential1D":
        if isinstance(poly, str):
            poly = parse_poly(poly)
        if any(v != VAR_X for v in poly.variables if poly.depends_on(v)):
            raise InvalidPotential("potential polynomial must involve x only")
        if VAR_X not in poly.variables:
            poly = poly.embedded(tuple(poly.variables) + (VAR_X,))
        coeffs = np.array([float(poly.coeff_of(VAR_X, k).constant())
                           for k in range(poly.degree(VAR_X) + 1)])
        stack = []
        cur = coeffs
        for _ in range(max(len(coeffs) + 1, 10)):
            stack.append((lambda c: lambda x: float(npoly.polyval(x, c)))(cur))
            cur = npoly.polyder(cur) if len(cur) > 1 else np.zeros(1)
        return cls(derivatives=tuple(stack), origin=origin, source=poly)

    @classmethod
    def from_callables(cls, v, dv, d2v, origin: float = 0.0,
                       higher: Sequence[Callable[[float], float]] = ()) -> "Potential1D":
        if dv is None or d2v is None:
            raise InvalidPotential("black-box potentials must supply two derivatives")
        return cls(derivatives=(v, dv, d2v, *higher), origin=origin)


@dataclass
class TrajectoryGrid:
    """Uniform trajectory grid with S₀ and its first two derivatives."""

    nodes: np.ndarray
    s0: np.ndarray
    grad2: np.ndarray
    lap_s0: np.ndarray
    time: np.ndarray
    kinks: list
    direction: int
    potential: Potential1D

    @property
    def spacing(self) -> float:
        return abs(float(self.nodes[1] - self.nodes[0]))

    @property
    def arc(self) -> np.ndarray:
        """Distance from the origin along the trajectory (always ascending)."""
        return np.abs(self.nodes - self.nodes[0])

    def s0_prime(self) -> np.ndarray:
        """dS₀/d(arc) = √(2v) ≥ 0 in trajectory coordinates."""
        return np.sqrt(np.maximum(self.grad2, 0.0))


_KINK_SLACK = 1e3 * np.finfo(float).eps


def build_grid(potential: Potential1D, x_max: float, n: int,
               direction: int = 1, panel_tol: float = 1e-12,
               max_refine: int = 30) -> TrajectoryGrid:
    """Construct the trajectory grid out to distance x_max from the origin.

    ``max_refine`` bounds the per-panel refinement depth of the S₀
    quadrature (0 keeps the plain per-panel Simpson rule, whose 4th-order
    convergence the tests verify; the default refines each panel until
    its error estimate drops below ``panel_tol``).
    """
    if n < 16:
        raise ValueError("need at least 16 nodes")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")

    origin = potential.origin
    if abs(potential.v(origin)) > 1e-10:
        raise InvalidPotential("v(origin) must vanish")
    curvature = potential.d2v(origin)
    if curvature <= 0.0:
        raise DegenerateMinimum("v''(origin) must be positive")

    nodes = origin + direction * np.linspace(0.0, x_max, n)
    vv = np.array([potential.v(x) for x in nodes])
    if np.min(vv) < -1e-10 * max(1.0, np.max(np.abs(vv))):
        raise InvalidPotential(
            f"v < 0 at x = {nodes[int(np.argmin(vv))]:.6g}")
    vv = np.maximum(vv, 0.0)
    grad2 = 2.0 * vv
    speed = np.sqrt(grad2)

    scale = max(1.0, float(np.max(grad2)))
    kinks = [i for i in range(1, n - 1)
             if grad2[i] < _KINK_SLACK * scale
             and potential.dv(nodes[i - 1]) * potential.dv(nodes[i + 1]) < 0.0]

    def integrand(x: float) -> float:
        return math.sqrt(max(2.0 * potential.v(x), 0.0))

    s0 = np.empty(n)
    s0[0] = 0.0
    for i in range(n - 1):
        inc = adaptive_integral(integrand, nodes[i], nodes[i + 1],
                                tol=panel_tol, max_depth=max_refine)
        s0[i + 1] = s0[i] + abs(inc)

    lap = np.empty(n)
    lap[0] = math.sqrt(curvature)
    for i in range(1, n):
        if speed[i] > math.sqrt(_KINK_SLACK * scale):
            lap[i] = direction * potential.dv(nodes[i]) / speed[i]
        else:
            lap[i] = np.nan
    for i in range(1, n):
        if np.isnan(lap[i]):
            back = [j for j in range(max(1, i - 4), i) if not np.isnan(lap[j])]
            if len(back) >= 2:
                arc = np.abs(nodes - nodes[0])
                lap[i] = extrapolate_to_zero(
                    [arc[j] - arc[i] for j in back], [lap[j] for j in back])
            else:
                lap[i] = lap[0]

    time = np.empty(n)
    time[0] = np.nan
    first_kink = kinks[0] if kinks else n
    t = 0.0
    for i in range(1, n):
        if i > 1:
            if i - 1 >= first_kink or i >= first_kink:
                t = math.inf
            if math.isfinite(t):
                t += abs(adaptive_integral(
                    lambda x: 1.0 / max(math.sqrt(max(2.0 * potential.v(x), 0.0)),
                                        1e-300),
                    nodes[i - 1], nodes[i], tol=1e-10, max_depth=20))
        time[i] = t

    return TrajectoryGrid(nodes=nodes, s0=s0, grad2=grad2, lap_s0=lap,
                          time=time, kinks=kinks, direction=direction,
                          potential=potential)


@dataclass
class AxisBundle:
    """Per-axis trajectory grids of a separable potential.

    The action and every expansion order are axis-wise sums, so the
    hierarchy runs on each grid independently and energies add.
    """

    axes: list

    def __len__(self):
        return len(self.axes)


def separable_compose(axes: Sequence[TrajectoryGrid]) -> AxisBundle:
    """Bundle per-axis grids; a single axis gives the identity bundle."""
    axes = list(axes)
    if not axes:
        raise ValueError("need at least one axis")
    return AxisBundle(axes=axes)
