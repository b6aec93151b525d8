"""Discretized single-trajectory Green's operators in one dimension.

For a known ground-state exponent S (minimum 0 at the origin) the two
kernel actions implemented here are

    (Cf)(x)  = (1/g) ∫₀ˣ f(y) / S'(y) dy                    (single integral)
    (D̄f)(x) = -2 ∫₀ˣ e^{2gS(y)} dy ∫_{-∞}^y e^{-2gS(z)} f(z) dz

The irregular second solution F and the boundary-determined energy shift
are references in ``tests/test_greens.py``, where they check the D
kernel and the ε-series.  C acts only on sources vanishing at the origin
(a constant would integrate to a logarithm); D̄ acts on any source with
decaying Gaussian-weighted tails, but only sources of zero weighted mean
produce a bounded result; for those the inner integral is evaluated from
the decaying side on each half-line, which is also what keeps the huge
e^{2gS} weight from amplifying quadrature residue.  A profile is samples
alone, and D̄ integrates by one 16-point Gauss–Legendre rule: inside the
grid on each interval's quartic interpolant of S and f, beyond it on a
quartic continuation of the samples.  When the computed mean is above
the solvability threshold the growing branch is returned unchanged (that
growth is a real feature of the operator, not an error).  D̄ also takes
a stack of sources on one profile, as the identity report applies it.

All identity checks run on the harmonic profile S = x²/2 where every
quantity has a closed Hermite form; ``identity_report`` packages them for
the CLI as JSON-able records.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergentAtOrigin, MethodError, TailDivergence
from .numerics import (_GAUSS_WEIGHTS, _horner, cumulative_integral,
                       derivative, gauss_panels, gauss_samples, grid_spacing,
                       quartic_fit)


@dataclass
class WaveProfile:
    """Sampled function on a uniform grid carrying the exponent S(x).

    ``s`` holds S itself (the g factor stays explicit in the operators);
    S must vanish at the node nearest the origin.  The operators read S
    and f from these samples alone, between the nodes and beyond the grid
    edge through quartic interpolants.  For D̄, ``values`` may be a stack
    of shape (m, n), one source per row.
    """

    nodes: np.ndarray
    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.nodes) < 5:
            raise ValueError("need at least five samples")
        self.origin = int(np.argmin(np.abs(self.nodes)))
        if abs(self.s[self.origin]) > 1e-12:
            raise ValueError("S must vanish at the origin node")

    def with_values(self, values: np.ndarray) -> "WaveProfile":
        return WaveProfile(self.nodes, self.s, values)


def harmonic_profile(n: int, half_width: float) -> WaveProfile:
    """Zero source on n nodes of [-half_width, half_width] for S = x²/2.

    n is odd, and the middle node is set to exactly 0, which linspace
    misses by about half_width·1e-16.
    """
    x = np.linspace(-half_width, half_width, n)
    x[n // 2] = 0.0
    return WaveProfile(nodes=x, s=0.5 * x * x, values=np.zeros_like(x))


@functools.cache
def hermite_coefficients(l: int) -> tuple:
    """Integer coefficients of H_l, ascending powers, via the recurrence."""
    if l < 0:
        raise ValueError("Hermite index must be non-negative")
    prev = [1]
    if l == 0:
        return tuple(prev)
    cur = [0, 2]
    for k in range(1, l):
        nxt = [0] + [2 * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= 2 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


def hermite_value(l: int, z):
    """H_l evaluated with exact integer coefficients (Horner)."""
    return _horner(hermite_coefficients(l), z)


def apply_C(f: WaveProfile, g: float, sp: np.ndarray) -> WaveProfile:
    """Single-integral operator, S' = ``sp``; f must vanish at the origin."""
    i0 = f.origin
    scale = float(np.max(np.abs(f.values))) or 1.0
    if abs(f.values[i0]) > 1e-9 * scale:
        raise DivergentAtOrigin(
            f"source value {float(f.values[i0])!r} at the origin feeds C a "
            f"constant")
    integrand = f.values / np.where(np.arange(len(sp)) == i0, 1.0, sp)
    # at the origin f/S' is 0/0: its limit f'/S'' by the stencils there
    lo = min(max(i0 - 2, 0), len(sp) - 5)
    x = f.nodes[lo:lo + 5]
    integrand[i0] = (derivative(f.values[lo:lo + 5], x)[i0 - lo]
                     / derivative(sp[lo:lo + 5], x)[i0 - lo])
    out = cumulative_integral(integrand, f.nodes, start=i0) / g
    return f.with_values(out)


def _tail_beyond(f: WaveProfile, g: float, side: int) -> np.ndarray:
    """Completion of ∫ e^{-2gS} f dz beyond the grid edge b, one per source.

    S and f continue as the quartics through five samples spread over the
    grid's last eighth, fitted once in units t of their spacing from b
    (raw units underflow on tiny grids), so the tail lies at t < 0.  The
    scaled integrand e^{-2g(S-S(b))} f is integrated by 16-point Gauss out
    to where that factor drops below e^{-80}, on 48 panels halving toward b
    for the bump of width 1/(2gS'(b)) of a source vanishing at b.  An S not
    risen by 40/g in 64 span doublings raises TailDivergence.  The rows of
    a stacked source share the exponent and panels and run as one stacked
    quadrature, each with its own quartic.
    """
    rows = np.atleast_2d(f.values)
    edge = -1 if side > 0 else 0
    b = float(f.nodes[edge])
    fit = edge - side * max(1, (len(f.nodes) - 1) // 32) * np.arange(5)
    step = abs(float(f.nodes[fit[4]]) - b) / 4.0
    # -2g and S(b) folded into the exponent's coefficients
    exponent = -2.0 * g * quartic_fit(f.s[fit] - f.s[edge])
    # row k of the coefficients is every source's t^k column, broadcast over
    # the (panels, 16) Gauss nodes; each quartic is fitted as a lone
    # source's is, so that the stack rounds alike
    source = np.array([quartic_fit(v[fit]) for v in rows]).T[..., None, None]
    # the weight e^{-2gS} falls over a width 1/√g, and at large g the
    # source overflows a fixed unit beyond the edge
    span = (abs(b) + 1.0) / max(1.0, math.sqrt(g)) / step
    for _ in range(64):
        if _horner(exponent, -span) <= -80.0:
            break
        span *= 2.0
    else:
        raise TailDivergence(f"S does not rise beyond the grid edge {b!r}")
    edges = np.append(-span * 0.5 ** np.arange(48), 0.0)
    val = gauss_panels(lambda t: np.exp(_horner(exponent, t))
                       * _horner(source, t), edges).sum(axis=-1)
    return math.exp(-2.0 * g * float(f.s[edge])) * step * val


# a weighted total this small against the absolute mass counts as zero
_SOLVABILITY_RTOL = 1e-10


def _refuse_overflowing_weight(g: float, *s_max: float) -> None:
    """Raise ValueError where the outer weight e^{2gS} overflows a float,
    max S being the product of ``s_max``: a half-width too wide to square
    is refused unsquared, its 2g·max S shown as a power of ten."""
    exponent = 2.0 * g * math.prod(s_max)
    if exponent > math.log(sys.float_info.max):
        shown = f"{exponent:.6g}" if math.isfinite(exponent) else \
            f"10^{sum(map(math.log10, (2.0 * g, *s_max))):.6g}"
        raise ValueError(f"outer weight e^(2gS) overflows on this domain "
                         f"(2g·max S = {shown})")


def _refuse_overflowing_values(g: float, half_width: float) -> None:
    """Raise MethodError where the identity report's values overflow a float.

    The largest it forms is C(x⁴) = x⁴/(4g) at the edge, or x⁴ itself
    where 4g > 1; the D̄ images, ≈ x³/(3g) for x³, stay below it.  It is
    weighed in powers of ten, with three to spare for the stencils that
    difference it, before any source is formed.
    """
    digits = 4.0 * math.log10(half_width) - min(0.0, math.log10(4.0 * g))
    if digits > math.log10(sys.float_info.max) - 3.0:
        raise MethodError(f"identity report overflows on this domain "
                          f"(half-width {half_width!r}, g = {g!r}: "
                          f"max(x^4, x^4/(4g)) = 10^{digits:.6g})")


def apply_Dbar(f: WaveProfile, g: float) -> WaveProfile:
    """Double-integral operator with tail-stable inner quadrature.

    The inner integral I(y) = ∫_{-∞}^y e^{-2gS} f dz sums 16-point
    Gauss–Legendre on each interval's quartics of S and f, from the left
    for y ≤ 0 and from the right tail for y > 0, so that its absolute error
    decays together with the integrand; otherwise the outer weight e^{2gS}
    turns flat quadrature residue into garbage.
    The integrand beyond the grid is completed by quadrature (the edge
    values are e^{-2gS}-small, but the outer weight re-amplifies them).
    A total within ``_SOLVABILITY_RTOL`` of zero, relative to the absolute
    mass, is treated as exactly zero: that is the boundary condition
    selecting the bounded solution.  A domain where the outer weight
    e^{2gS} or the weighted source overflows a float raises ValueError.

    ``f.values`` of shape (m, n) is a stack of m sources, and each row of
    the image is bitwise the image of its source alone.  What depends on S
    and g alone is computed once and the tails are one quadrature per side;
    the Gauss-node passes run a row at a time, in place, to keep memory flat.
    """
    x, s = f.nodes, f.s
    _refuse_overflowing_weight(g, float(np.max(s)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            i0 = f.origin
            rows = np.atleast_2d(f.values)
            weights = 0.5 * grid_spacing(x) * _GAUSS_WEIGHTS
            decay = gauss_samples(s)  # e^{-2gS} at the Gauss nodes, in place
            np.exp(np.multiply(decay, -2.0 * g, out=decay), out=decay)
            # per row, of w = e^{-2gS} f: ∫ w from the left edge to each node,
            # -∫ w from each node past the origin to the right edge, and ∫ |w|
            inner = np.zeros(rows.shape)
            backward = np.zeros((len(rows), len(x) - 1 - i0))
            mass = np.empty(len(rows))
            for k, v in enumerate(rows):
                wf = gauss_samples(v)
                wf *= decay
                inc = wf @ weights
                inner[k, 1:] = np.cumsum(inc)
                backward[k, :-1] = -np.cumsum(inc[i0 + 1:][::-1])[::-1]
                np.abs(wf, out=wf)
                edge = max(wf[0, 0], wf[-1, -1])
                if edge > 1e-10 * max(float(np.max(wf)), 1e-300):
                    raise TailDivergence("weighted source does not decay at "
                                         f"the ends (edge {edge:.2e})")
                mass[k] = np.sum(wf @ weights) or 1.0
            inner += _tail_beyond(f, g, side=-1)[:, None]
            tail_plus = _tail_beyond(f, g, side=+1)
            # bounded branch: the inner tail is taken from the decaying
            # side, so its quadrature error dies off with the integrand
            bounded = np.abs(inner[:, -1] + tail_plus) <= _SOLVABILITY_RTOL * mass
            inner[bounded, i0 + 1:] = -(tail_plus[bounded, None]
                                        - backward[bounded])
            inner *= np.exp(2.0 * g * s)
            for w in inner:
                w[:] = -2.0 * cumulative_integral(w, x, start=i0)
    except FloatingPointError as exc:
        raise ValueError(f"the source overflows on this domain: {exc}") from exc
    return f.with_values(inner.reshape(f.values.shape))


def resolvent_residual(f: WaveProfile, dbar: WaveProfile, g: float,
                       sp: np.ndarray) -> np.ndarray:
    """|D̄f + C(TD̄f - f)| on interior nodes: the (1+CT)D̄ = C identity.

    ``dbar`` is the image D̄f and ``sp`` is S'.  The two log-divergent
    pieces of CTD̄f and Cf cancel structurally, so C is applied once to
    their difference, which vanishes at the origin whenever f is an
    admissible even-subtracted or odd source.
    """
    tdbar = -0.5 * derivative(dbar.values, dbar.nodes, order=2)
    combo = f.with_values(tdbar - f.values)
    residual = dbar.values + apply_C(combo, g, sp).values
    return np.abs(residual[2:-2])


def greens_function_residual(f: WaveProfile, dbar: WaveProfile,
                             g: float) -> np.ndarray:
    """|(T + V - E)(e^{-gS} D̄f) - e^{-gS} f| on interior nodes.

    ``dbar`` is the image D̄f.  V = g²S'²/2 - (g/2)S'' and E drop out
    through the ground-state relation; for the harmonic profile
    V = g²x²/2 and E = g/2.
    """
    x = f.nodes
    w = np.exp(-g * f.s) * dbar.values
    tw = -0.5 * derivative(w, x, order=2)
    v = 0.5 * g * g * x * x
    res = tw + (v - 0.5 * g) * w - np.exp(-g * f.s) * f.values
    return np.abs(res[2:-2])


def c_gradient_residual(f: WaveProfile, g: float,
                        sp: np.ndarray) -> np.ndarray:
    """|g S'·(Cf)' - f| / max|f| on interior nodes (resolvent left inverse)."""
    cf = apply_C(f, g, sp)
    res = g * sp * derivative(cf.values, f.nodes) - f.values
    return np.abs(res[2:-2]) / max(float(np.max(np.abs(f.values))), 1e-300)


def gaussian_even_moment(g: float) -> float:
    """⟨x²⟩ under e^{-gx²}: 1/(2g), the C-chain subtraction."""
    return 1.0 / (2.0 * g)


def identity_report(g: float, n: int, half_width: float) -> list:
    """Run the operator identity checks; one JSON-able record per identity.

    D̄ is applied once, to the stack of the six sources, and every identity
    that needs D̄f reads that source's row of the one image.  A domain where
    the weight e^{2gS} or the report's own values overflow is refused
    before anything is sampled.
    """
    # max S = (half_width/2)·half_width as the profile rounds it; on what
    # passes, |√g·x| ≤ √(2g·max S) < 27 and every H_l(√g·x) is finite
    _refuse_overflowing_weight(g, 0.5 * half_width, half_width)
    _refuse_overflowing_values(g, half_width)
    prof = harmonic_profile(n, half_width)
    sp = derivative(prof.s, prof.nodes)   # S', for every application of C
    moment = gaussian_even_moment(g)
    x = prof.nodes
    names = ["H1", "H2", "H3", "H4", "x^2 - <x^2>", "x^3"]
    hermite = [hermite_value(l, math.sqrt(g) * x) for l in (1, 2, 3, 4)]
    stack = np.stack(hermite + [x ** 2 - moment, x ** 3])
    sources = {name: prof.with_values(v) for name, v in zip(names, stack)}
    images = {name: prof.with_values(v) for name, v in
              zip(names, apply_Dbar(prof.with_values(stack), g).values)}

    rows = []  # (identity, residual on the grid, tolerance)
    for l in (1, 2, 3, 4):
        expect = (sources[f"H{l}"].values - hermite_value(l, 0.0)) / (l * g)
        rows.append((f"dbar_hermite_l{l}",
                     np.abs(images[f"H{l}"].values - expect), 1e-7))
    rows += [(f"resolvent[{name}]",
              resolvent_residual(sources[name], images[name], g, sp), 1e-6)
             for name in ("x^2 - <x^2>", "x^3", "H3")]
    rows += [(f"greens_residual[{name}]",
              greens_function_residual(sources[name], images[name], g), 1e-5)
             for name in ("H2", "x^3")]
    rows.append(("c_left_inverse[x^4]",
                 c_gradient_residual(prof.with_values(x ** 4), g, sp), 1e-6))
    checks = []
    for name, residual, tolerance in rows:
        worst = float(np.max(residual))
        checks.append({"identity": name, "grid": n, "max_residual": worst,
                       "tolerance": tolerance, "pass": bool(worst < tolerance)})
    return checks
