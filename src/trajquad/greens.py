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
e^{2gS} weight from amplifying quadrature residue.  When the computed
mean is above the solvability threshold the growing branch is returned
unchanged (that growth is a real feature of the operator, not an error).

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

from .errors import DivergentAtOrigin, TailDivergence
from .numerics import (adaptive_panels, cumulative_integral, derivative,
                       neville_at)


@dataclass
class WaveProfile:
    """Sampled function on a uniform grid carrying the exponent S(x).

    ``s`` holds S itself (the g factor stays explicit in the operators);
    S must vanish at the node nearest the origin.  When the profile knows
    its S and f as callables (``s_fn``/``f_fn``) the double-integral
    operator completes its tails beyond the grid by quadrature; sampled-
    only profiles fall back to an asymptotic completion.
    """

    nodes: np.ndarray
    s: np.ndarray
    values: np.ndarray
    s_fn: object = None
    f_fn: object = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.origin = int(np.argmin(np.abs(self.nodes)))
        if abs(self.s[self.origin]) > 1e-12:
            raise ValueError("S must vanish at the origin node")

    def with_values(self, values) -> "WaveProfile":
        if callable(values):
            return WaveProfile(self.nodes, self.s, values(self.nodes),
                               s_fn=self.s_fn, f_fn=values)
        return WaveProfile(self.nodes, self.s, values, s_fn=self.s_fn)


def harmonic_profile(n: int, half_width: float) -> WaveProfile:
    """Zero source on n nodes of [-half_width, half_width] for S = x²/2."""
    x = np.linspace(-half_width, half_width, n)
    s_fn = lambda z: 0.5 * z * z
    return WaveProfile(nodes=x, s=s_fn(x), values=np.zeros_like(x), s_fn=s_fn)


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
    """H_l evaluated with exact integer coefficients (Horner).

    Starting from the float 0.0, a scalar ``z`` runs on Python floats and
    an array ``z`` broadcasts, with no array made per scalar call.
    """
    out = 0.0
    for c in reversed(hermite_coefficients(l)):
        out = out * z + c
    return out


def _slope(profile: WaveProfile) -> np.ndarray:
    return derivative(profile.s, profile.nodes)


def apply_C(f: WaveProfile, g: float) -> WaveProfile:
    """Single-integral operator; the source must vanish at the origin."""
    i0 = f.origin
    scale = float(np.max(np.abs(f.values))) or 1.0
    if abs(f.values[i0]) > 1e-9 * scale:
        raise DivergentAtOrigin(
            f"source value {float(f.values[i0])!r} at the origin feeds C a "
            f"constant")
    sp = _slope(f)
    integrand = np.empty_like(f.values)
    nz = np.arange(len(sp)) != i0
    integrand[nz] = f.values[nz] / sp[nz]
    left = neville_at(f.nodes[i0 - 4:i0], integrand[i0 - 4:i0], f.nodes[i0]) \
        if i0 >= 4 else 0.0
    right = neville_at(f.nodes[i0 + 1:i0 + 5], integrand[i0 + 1:i0 + 5],
                       f.nodes[i0]) if i0 + 5 <= len(sp) else 0.0
    if i0 >= 4 and i0 + 5 <= len(sp):
        integrand[i0] = 0.5 * (left + right)
    else:
        integrand[i0] = left + right
    out = cumulative_integral(integrand, f.nodes, start=i0) / g
    return f.with_values(out)


def _tail_beyond(f: WaveProfile, g: float, side: int) -> float:
    """Completion of ∫ e^{-2gS} f dz beyond the grid edge.

    With the profile's S and f known as callables the tail is integrated
    adaptively in the scaled form e^{-2g(S-S_edge)} f (no underflow) out
    to where that factor drops below 1e-34.  Sampled-only profiles use
    the asymptotic integration-by-parts series instead, at the edge b:

        ∫ e^{-2gS} u_k dz = ± e^{-2gS(b)} u_k(b)/(2gS'(b)) + ∫ e^{-2gS} u_{k+1},
        u_{k+1} = (u_k / (2gS'))',

    summed until the terms stop decreasing (optimal truncation).
    """
    edge = -1 if side > 0 else 0
    if f.s_fn is not None and f.f_fn is not None:
        b = float(f.nodes[edge])
        s_edge = float(f.s[edge])
        # the weight e^{-2gS} falls over a width 1/√g, and at large g the
        # source overflows a fixed unit beyond the edge
        span = (abs(b) + 1.0) / max(1.0, math.sqrt(g))
        while f.s_fn(b + side * span) - s_edge < 40.0 / g:
            span *= 2.0
        scale = max(abs(float(f.values[edge])) * span, 1e-300)
        val = adaptive_panels(
            lambda z: np.exp(-2.0 * g * (f.s_fn(z) - s_edge)) * f.f_fn(z),
            np.array([b, b + side * span]), tol=1e-13 * scale)[0]
        return side * math.exp(-2.0 * g * s_edge) * val
    sp = _slope(f)
    safe = np.where(np.abs(sp) < 1e-12, 1e-12, sp)
    sign = 1.0 if side > 0 else -1.0
    u = f.values.copy()
    total, prev = 0.0, math.inf
    for _ in range(8):
        term = sign * u[edge] / (2.0 * g * safe[edge])
        if abs(term) >= abs(prev):
            break
        total += term
        prev = term
        u = derivative(u / (2.0 * g * safe), f.nodes)
    return math.exp(-2.0 * g * f.s[edge]) * total


# a weighted total this small against the absolute mass counts as zero
_SOLVABILITY_RTOL = 1e-10


def apply_Dbar(f: WaveProfile, g: float) -> WaveProfile:
    """Double-integral operator with tail-stable inner quadrature.

    The inner integral I(y) = ∫_{-∞}^y e^{-2gS} f dz is accumulated from
    the left for y ≤ 0 and from the right tail for y > 0, so that its
    absolute error decays together with the integrand; otherwise the
    outer weight e^{2gS} turns flat quadrature residue into garbage.
    The integrand beyond the grid is completed asymptotically (the edge
    values are e^{-2gS}-small, but the outer weight re-amplifies them).
    A total within ``_SOLVABILITY_RTOL`` of zero, relative to the absolute
    mass, is treated as exactly zero: that is the boundary condition
    selecting the bounded solution.  A domain where the outer weight
    e^{2gS} overflows a float, or the source beyond it, raises ValueError.
    """
    x, s = f.nodes, f.s
    exponent = 2.0 * g * float(np.max(s))
    if exponent > math.log(sys.float_info.max):
        raise ValueError(f"outer weight e^(2gS) overflows on this domain "
                         f"(2g·max S = {exponent:.6g})")
    i0 = f.origin
    w = np.exp(-2.0 * g * s) * f.values
    edge = max(abs(w[0]), abs(w[-1]))
    if edge > 1e-10 * max(float(np.max(np.abs(w))), 1e-300):
        raise TailDivergence(
            f"weighted source does not decay at the ends (edge {edge:.2e})")
    try:
        with np.errstate(over="raise", invalid="raise"):
            tail_minus = _tail_beyond(f, g, side=-1)
            tail_plus = _tail_beyond(f, g, side=+1)
    except FloatingPointError as exc:
        raise ValueError(f"the source overflows beyond the grid edge: "
                         f"{exc}") from exc
    if f.s_fn is not None and f.f_fn is not None:
        # profiles that know their functions get a 4x-refined inner grid,
        # which is what keeps the re-amplified inner error below the
        # Hermite-identity tolerance on the standard 4001-point grid
        refine = 4
        xf = np.linspace(x[0], x[-1], refine * (len(x) - 1) + 1)
        wf = np.exp(-2.0 * g * np.asarray(f.s_fn(xf), dtype=float)) \
            * np.asarray(f.f_fn(xf), dtype=float)
    else:
        refine, xf, wf = 1, x, w
    left = tail_minus + cumulative_integral(wf, xf, start=0)[::refine]
    right = tail_plus - cumulative_integral(wf, xf, start=len(xf) - 1)[::refine]
    mass = float(cumulative_integral(np.abs(wf), xf, start=0)[-1]) or 1.0
    total = float(left[-1]) + tail_plus
    inner = left.copy()
    if abs(total) <= _SOLVABILITY_RTOL * mass:
        # bounded branch: the inner tail is taken from the decaying side,
        # so its quadrature error dies off with the integrand
        inner[i0 + 1:] = -right[i0 + 1:]
    outer = np.exp(2.0 * g * s) * inner
    return f.with_values(-2.0 * cumulative_integral(outer, x, start=i0))


def kinetic(profile: WaveProfile) -> np.ndarray:
    """T = -½ d²/dx² applied to the sampled values by 4th-order stencils."""
    return -0.5 * derivative(profile.values, profile.nodes, order=2)


def resolvent_residual(f: WaveProfile, dbar: WaveProfile,
                       g: float) -> np.ndarray:
    """|D̄f + C(TD̄f - f)| on interior nodes: the (1+CT)D̄ = C identity.

    ``dbar`` is the image D̄f.  The two log-divergent pieces of CTD̄f and
    Cf cancel structurally, so C is applied once to their difference,
    which vanishes at the origin whenever f is an admissible
    even-subtracted or odd source.
    """
    combo = f.with_values(kinetic(dbar) - f.values)
    residual = dbar.values + apply_C(combo, g).values
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


def c_gradient_residual(f: WaveProfile, g: float) -> np.ndarray:
    """|g S'·(Cf)' - f| / max|f| on interior nodes (resolvent left inverse)."""
    cf = apply_C(f, g)
    sp = _slope(f)
    res = g * sp * derivative(cf.values, f.nodes) - f.values
    return np.abs(res[2:-2]) / max(float(np.max(np.abs(f.values))), 1e-300)


def gaussian_even_moment(n: int, g: float) -> float:
    """⟨x^{2n}⟩ under e^{-gx²}: (2n-1)!!/(2g)^n, the C-chain subtraction."""
    value = 1.0
    for j in range(1, n + 1):
        value *= (2 * j - 1) / (2.0 * g)
    return value


def identity_report(g: float, n: int, half_width: float) -> list:
    """Run the operator identity checks; one JSON-able record per identity.

    D̄ is applied once to each of the six sources, and every identity
    that needs D̄f reads that one image.
    """
    prof = harmonic_profile(n, half_width)
    sqrt_g = math.sqrt(g)
    moment = gaussian_even_moment(1, g)
    # a g at which H_l(√g·z) overflows also overflows the weight e^(2gS),
    # which apply_Dbar rejects before it reads any source value
    with np.errstate(over="ignore", invalid="ignore"):
        sources = {f"H{l}": prof.with_values(
            lambda z, l=l: hermite_value(l, sqrt_g * z)) for l in (1, 2, 3, 4)}
    sources["x^2 - <x^2>"] = prof.with_values(lambda z: z ** 2 - moment)
    sources["x^3"] = prof.with_values(lambda z: z ** 3)
    images = {name: apply_Dbar(f, g) for name, f in sources.items()}

    rows = []  # (identity, residual on the grid, tolerance)
    for l in (1, 2, 3, 4):
        expect = (sources[f"H{l}"].values - hermite_value(l, 0.0)) / (l * g)
        rows.append((f"dbar_hermite_l{l}",
                     np.abs(images[f"H{l}"].values - expect), 1e-7))
    rows += [(f"resolvent[{name}]",
              resolvent_residual(sources[name], images[name], g), 1e-6)
             for name in ("x^2 - <x^2>", "x^3", "H3")]
    rows += [(f"greens_residual[{name}]",
              greens_function_residual(sources[name], images[name], g), 1e-5)
             for name in ("H2", "x^3")]
    rows.append(("c_left_inverse[x^4]",
                 c_gradient_residual(prof.with_values(lambda z: z ** 4), g),
                 1e-6))
    checks = []
    for name, residual, tolerance in rows:
        worst = float(np.max(residual))
        checks.append({"identity": name, "grid": n, "max_residual": worst,
                       "tolerance": tolerance, "pass": bool(worst < tolerance)})
    return checks
