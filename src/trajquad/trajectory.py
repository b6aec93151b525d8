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
from .numerics import adaptive_panels, extrapolate_to_zero


@dataclass(frozen=True)
class Potential1D:
    """Scaled potential v with derivatives and a chosen minimum.

    ``derivatives[m]`` evaluates v^(m); polynomial potentials carry the
    full stack (the hierarchy differentiates analytically as deep as it
    needs), black-box ones the required minimum of two.  Every callable is
    evaluated on whole node arrays: ``from_poly`` builds array-valued
    polynomials and ``from_callables`` wraps scalar user callables in
    ``np.vectorize``, so one array path serves both.
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
            stack.append((lambda c: lambda x: npoly.polyval(x, c))(cur))
            cur = npoly.polyder(cur) if len(cur) > 1 else np.zeros(1)
        return cls(derivatives=tuple(stack), origin=origin, source=poly)

    @classmethod
    def from_callables(cls, v, dv, d2v, origin: float = 0.0,
                       higher: Sequence[Callable[[float], float]] = ()) -> "Potential1D":
        if dv is None or d2v is None:
            raise InvalidPotential("black-box potentials must supply two derivatives")
        derivatives = tuple(np.vectorize(fn, otypes=[float])
                            for fn in (v, dv, d2v, *higher))
        return cls(derivatives=derivatives, origin=origin)


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
    vv = potential.v(nodes)
    if np.min(vv) < -1e-10 * max(1.0, np.max(np.abs(vv))):
        raise InvalidPotential(
            f"v < 0 at x = {nodes[int(np.argmin(vv))]:.6g}")
    vv = np.maximum(vv, 0.0)
    grad2 = 2.0 * vv
    speed = np.sqrt(grad2)
    dvv = potential.dv(nodes)

    scale = max(1.0, float(np.max(grad2)))
    kinks = (1 + np.flatnonzero((grad2[1:-1] < _KINK_SLACK * scale)
                                & (dvv[:-2] * dvv[2:] < 0.0))).tolist()

    def integrand(x):
        return np.sqrt(np.maximum(2.0 * potential.v(x), 0.0))

    inc = adaptive_panels(integrand, nodes, tol=panel_tol, max_depth=max_refine)
    s0 = np.concatenate(([0.0], np.cumsum(np.abs(inc))))

    lap = np.full(n, np.nan)
    fast = speed > math.sqrt(_KINK_SLACK * scale)
    lap[fast] = direction * dvv[fast] / speed[fast]
    lap[0] = math.sqrt(curvature)
    arc = np.abs(nodes - nodes[0])
    for i in np.flatnonzero(np.isnan(lap)):
        back = [j for j in range(max(1, i - 4), i) if not np.isnan(lap[j])]
        if len(back) >= 2:
            lap[i] = extrapolate_to_zero(
                [arc[j] - arc[i] for j in back], [lap[j] for j in back])
        else:
            lap[i] = lap[0]

    # time is measured from node 1 and diverges from the first kink on, so
    # it accumulates the panels between node 1 and the node before the kink
    time = np.full(n, math.inf)
    time[:2] = np.nan, 0.0
    first_kink = kinks[0] if kinks else n
    if first_kink > 2:
        dt = adaptive_panels(lambda x: 1.0 / np.maximum(integrand(x), 1e-300),
                             nodes[1:first_kink], tol=1e-10, max_depth=20)
        time[2:first_kink] = np.cumsum(np.abs(dt))

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
