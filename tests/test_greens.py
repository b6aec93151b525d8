"""Green's operators on the harmonic profile: closed Hermite forms.

The irregular solution and the boundary energy-shift rule below are
references that no command runs: the first gives the D kernel its
Wronskian form, the second checks the ε-series' Δ₁ + εΔ₂.
"""

import math
import time
import warnings

import numpy as np
import pytest

from trajquad import greens
from trajquad.errors import DivergentAtOrigin, MethodError, TailDivergence
from trajquad.exactalg import VAR_GHAT
from trajquad.greens import (
    WaveProfile,
    _tail_beyond,
    apply_C,
    apply_Dbar,
    c_gradient_residual,
    gaussian_even_moment,
    greens_function_residual,
    harmonic_profile,
    hermite_coefficients,
    hermite_value,
    identity_report,
    resolvent_residual,
)
from trajquad.numerics import _horner, cumulative_integral, derivative

from test_oscpert import coeff, delta

G = 1.0


class DegenerateProfile(MethodError):
    """Energy-shift quadrature has vanishing normalization."""


def slope(profile):
    """S' on the nodes, as apply_C and the residuals that apply it take it."""
    return derivative(profile.s, profile.nodes)


def irregular_solution(profile, g):
    """Growing second solution F = e^{-gS} ∫₀ˣ e^{2gS̄} dS̄/(dS̄/dy)·...

    In one dimension the metric factors cancel, leaving
    F(x) = e^{-gS(x)} ∫₀ˣ e^{2gS(y)} dy on the x ≥ 0 half line; F(0) = 0
    and (T_S + V - E)F = 0 with the same V, E as the bound profile.
    """
    grow = cumulative_integral(np.exp(2.0 * g * profile.s), profile.nodes,
                               start=profile.origin)
    return profile.with_values(np.exp(-g * profile.s) * grow)


def shift_from_boundary(u, tau, g):
    """Energy shift Δ = ∫e^{-2gS-τ} U dx / ∫e^{-2gS-τ} dx.

    This is the condition that the perturbed solution not pick up the
    growing branch at x = +∞.
    """
    weight = np.exp(-2.0 * g * u.s - tau.values)
    den = float(cumulative_integral(weight, u.nodes, start=0)[-1])
    num = float(cumulative_integral(weight * u.values, u.nodes, start=0)[-1])
    if abs(den) < 1e-300:
        raise DegenerateProfile("normalization integral vanished")
    return num / den


def d_kernel_direct(profile: WaveProfile, g: float, i: int, j: int) -> float:
    """Matrix element (S_i|D|S_j) from the nested-integral definition."""
    if not i > j >= profile.origin:
        raise ValueError("kernel is lower-triangular in S along the half line")
    x, s = profile.nodes, profile.s
    sp = derivative(s, x)
    seg = cumulative_integral(np.exp(2.0 * g * s), x, start=j)
    return -2.0 * math.exp(-g * (s[i] + s[j])) * seg[i] / sp[j]


def d_kernel_wronskian(profile: WaveProfile, g: float, i: int, j: int) -> float:
    """Same element from the two-solution (Wronskian) form."""
    if not i > j >= profile.origin:
        raise ValueError("kernel is lower-triangular in S along the half line")
    s = profile.s
    sp = derivative(s, profile.nodes)
    f_irr = irregular_solution(profile, g).values
    return 2.0 * (math.exp(-g * s[i]) * f_irr[j]
                  - f_irr[i] * math.exp(-g * s[j])) / sp[j]


def reference_report(g: float, n: int, half_width: float = 8.0) -> list:
    """The identity report built check by check, D̄ applied per identity.

    Nine D̄ applications on six sources: D̄H₂, D̄H₃ and D̄x³ are each
    computed twice.  Calls go through the module so a test can count them.
    """
    def dbar(f):
        return greens.apply_Dbar(f, g)

    checks = []
    prof = harmonic_profile(n, half_width)
    x = prof.nodes
    sqrt_g = math.sqrt(g)
    for l in (1, 2, 3, 4):
        f = prof.with_values(hermite_value(l, sqrt_g * x))
        got = dbar(f).values
        h0 = float(hermite_value(l, 0.0))
        expect = (f.values - h0) / (l * g)
        checks.append({"identity": f"dbar_hermite_l{l}", "grid": n,
                       "max_residual": float(np.max(np.abs(got - expect))),
                       "tolerance": 1e-7})
    moment = gaussian_even_moment(g)
    even = prof.with_values(x ** 2 - moment)
    odd = prof.with_values(x ** 3)
    h3 = prof.with_values(hermite_value(3, sqrt_g * x))
    for name, f in (("x^2 - <x^2>", even), ("x^3", odd), ("H3", h3)):
        residual = resolvent_residual(f, dbar(f), g, slope(f))
        checks.append({"identity": f"resolvent[{name}]", "grid": n,
                       "max_residual": float(np.max(residual)),
                       "tolerance": 1e-6})
    h2 = prof.with_values(hermite_value(2, sqrt_g * x))
    for name, f in (("H2", h2), ("x^3", odd)):
        residual = greens_function_residual(f, dbar(f), g)
        checks.append({"identity": f"greens_residual[{name}]", "grid": n,
                       "max_residual": float(np.max(residual)),
                       "tolerance": 1e-5})
    quartic = prof.with_values(x ** 4)
    checks.append({"identity": "c_left_inverse[x^4]", "grid": n,
                   "max_residual": float(np.max(c_gradient_residual(quartic, g, slope(quartic)))),
                   "tolerance": 1e-6})
    for rec in checks:
        rec["pass"] = bool(rec["max_residual"] < rec["tolerance"])
    return checks


@pytest.fixture(scope="module")
def profile():
    return harmonic_profile(4001, 8.0)


class TestHermite:
    def test_coefficients(self):
        assert hermite_coefficients(0) == (1,)
        assert hermite_coefficients(1) == (0, 2)
        assert hermite_coefficients(2) == (-2, 0, 4)
        assert hermite_coefficients(3) == (0, -12, 0, 8)
        assert hermite_coefficients(4) == (12, 0, -48, 0, 16)

    def test_recurrence_identity(self):
        z = np.linspace(-2, 2, 11)
        for l in range(2, 8):
            lhs = hermite_value(l + 1, z)
            rhs = 2 * z * hermite_value(l, z) - 2 * l * hermite_value(l - 1, z)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_gaussian_moment(self):
        assert gaussian_even_moment(2.0) == 0.25
        # the plain node sum is spectrally accurate for a decayed Gaussian
        x = np.linspace(-12.0, 12.0, 4001)
        w = np.exp(-0.5 * x * x)
        assert np.sum(x * x * w) / np.sum(w) == \
            pytest.approx(gaussian_even_moment(0.5), rel=1e-12)


class TestApplyC:
    def test_even_power_rule(self, profile):
        got = apply_C(profile.with_values(profile.nodes ** 4), G,
                      slope(profile)).values
        assert np.max(np.abs(got - profile.nodes ** 4 / 4)) < 1e-8

    def test_odd_power_rule(self, profile):
        got = apply_C(profile.with_values(profile.nodes ** 3), G,
                      slope(profile)).values
        assert np.max(np.abs(got - profile.nodes ** 3 / 3)) < 1e-8

    def test_zero_source(self, profile):
        got = apply_C(profile.with_values(np.zeros_like(profile.nodes)), G,
                      slope(profile))
        assert not np.any(got.values)

    def test_constant_source_rejected(self, profile):
        with pytest.raises(DivergentAtOrigin):
            apply_C(profile.with_values(np.ones_like(profile.nodes)), G,
                    slope(profile))

    def test_left_inverse(self, profile):
        f = profile.with_values(profile.nodes ** 4)
        assert np.max(c_gradient_residual(f, G, slope(f))) < 1e-6

    @pytest.mark.parametrize("k", (3, 1, 0))
    def test_origin_value_is_the_limit_near_an_edge(self, k, monkeypatch):
        # f/S' is 0/0 at the origin node, k nodes from the left edge; C
        # integrates its limit f'(0)/S''(0) = 2/1, read by the (one-sided)
        # stencils there to their 4th order in h = 0.025
        x = 0.025 * np.arange(-k, 80)
        f = WaveProfile(x, 0.5 * x * x + x ** 4, np.sin(2.0 * x) + x * x)
        seen = []
        real = greens.cumulative_integral
        monkeypatch.setattr(greens, "cumulative_integral", lambda y, *a, **kw:
                            seen.append(y.copy()) or real(y, *a, **kw))
        apply_C(f, G, x + 4.0 * x ** 3)
        assert f.origin == k
        assert seen[0][k] == pytest.approx(2.0, abs=1e-5)
        assert np.all(np.isfinite(seen[0]))


class TestApplyDbar:
    def test_hermite_identity(self, profile):
        for l in (1, 2, 3, 4):
            f = profile.with_values(hermite_value(l, math.sqrt(G) * profile.nodes))
            got = apply_Dbar(f, G).values
            expect = (f.values - float(hermite_value(l, 0.0))) / (l * G)
            assert np.max(np.abs(got - expect)) < 1e-7

    def test_zero_source(self, profile):
        out = apply_Dbar(profile.with_values(np.zeros_like(profile.nodes)), G)
        assert not np.any(out.values)

    def test_subtracted_even_power(self, profile):
        # direct evaluation of the Hermite-sum identity at n = 1
        f = profile.with_values(profile.nodes ** 2 - gaussian_even_moment(G))
        got = apply_Dbar(f, G).values
        assert np.max(np.abs(got - profile.nodes ** 2 / (2 * G))) < 1e-7

    def test_growing_branch_for_unsubtracted_source(self, profile):
        # a non-mean-zero source legitimately rides the e^{2gS} branch
        got = apply_Dbar(profile.with_values(profile.nodes ** 2), G).values
        assert abs(got[-1]) > 1e10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn, upper, parity", [
        *(pytest.param(lambda z, l=l: hermite_value(l, z),
                       lambda b, l=l: math.exp(-b * b) * hermite_value(l - 1, b),
                       (-1) ** l, id=f"H{l}") for l in (1, 2, 3, 4)),
        pytest.param(lambda z: z ** 3,
                     lambda b: 0.5 * math.exp(-b * b) * (b * b + 1), -1,
                     id="x^3"),
        pytest.param(lambda z: z ** 2 - gaussian_even_moment(G),
                     lambda b: 0.5 * b * math.exp(-b * b), 1, id="x^2-<x^2>"),
        # zero at the edges ±8: the whole tail is a bump of width ≈ 1/16
        pytest.param(lambda z: z ** 2 - 64.0,
                     lambda b: 0.5 * b * math.exp(-b * b) + 0.25
                     * math.sqrt(math.pi) * (1.0 - 128.0) * math.erfc(b), 1,
                     id="x^2-64"),
    ])
    def test_sampled_tail_matches_closed_form(self, fn, upper, parity):
        # upper(b) = ∫_b^∞ e^{-z²} f dz in closed form, and the left tail
        # ∫_{-∞}^a is parity·upper(-a).  Sampled S and f continue past the
        # edge as quartics, met to 2.8e-13 at every n: the tail's error
        # must not grow as h shrinks
        for n in (101, 4001, 16001):
            prof = harmonic_profile(n, 8.0)
            f = prof.with_values(fn(prof.nodes))
            assert _tail_beyond(f, G, -1) == pytest.approx(
                parity * upper(-prof.nodes[0]), rel=1e-12, abs=0.0)
            assert _tail_beyond(f, G, 1) == pytest.approx(
                upper(prof.nodes[-1]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", (0.05, 0.25, 1.0, 4.0, 100.0, 1e4))
    @pytest.mark.parametrize("n", (101, 401, 4001, 6001))
    def test_unit_source_tail_matches_erfc(self, g, n):
        # ∫_b^∞ e^{-gz²} dz = √π/(2√g)·erfc(√g·b) on either side, met to
        # 1.2e-13 (g = 0.05, n ≤ 401) and to ≤ 6e-14 elsewhere
        prof = harmonic_profile(n, min(8.0, 8.0 / math.sqrt(g)))
        b = prof.nodes[-1]
        want = math.sqrt(math.pi / g) / 2.0 * math.erfc(math.sqrt(g) * b)
        f = prof.with_values(np.ones(n))
        for side in (-1, 1):
            assert _tail_beyond(f, g, side)[0] == pytest.approx(
                want, rel=5e-13, abs=0.0)

    @pytest.mark.parametrize("lam", (0.1, 1.0, 10.0))
    @pytest.mark.parametrize("g", (0.25, 1.0, 8.0))
    def test_quartic_potential_tails_match_32_point_gauss(self, lam, g,
                                                          monkeypatch):
        # S₀ of ½x² + λx⁴ is ((1 + 2λx²)^{3/2} - 1)/(6λ), sampled out to
        # where gS₀ = 15; each tail of a stack of three sources agrees with
        # the same panels under 32-point Gauss to ≤ 2.3e-15
        half = math.sqrt(((1.0 + 90.0 * lam / g) ** (2.0 / 3.0) - 1.0)
                         / (2.0 * lam))
        x = np.linspace(-half, half, 2001)
        s = ((1.0 + 2.0 * lam * x * x) ** 1.5 - 1.0) / (6.0 * lam)
        f = WaveProfile(x, s, np.stack([np.ones_like(x), x * x - half ** 2,
                                        x ** 3 + x]))
        got = [_tail_beyond(f, g, side) for side in (-1, 1)]
        nodes, weights = np.polynomial.legendre.leggauss(32)

        def gauss32(fn, edges):
            mid, width = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            return (fn(mid[:, None] + width[:, None] * nodes) @ weights) * width

        monkeypatch.setattr(greens, "gauss_panels", gauss32)
        for side, tail in zip((-1, 1), got):
            want = _tail_beyond(f, g, side)
            assert np.all(np.abs(tail - want) <= 2e-14 * np.abs(want))

    def test_source_vanishing_at_the_edge_returns(self, profile):
        # x² - 64 is 0 at both edges: its tail is a bump of width ≈ 1/16
        # at the edge, which the panels halving toward it resolve
        start = time.perf_counter()
        apply_Dbar(profile.with_values(profile.nodes ** 2 - 64.0), G)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.filterwarnings("error")
    def test_sampled_source_accurate_up_to_the_edge(self):
        # dbar_hermite_l4 on a sampled source: the tail adds no excess at
        # the edge, so the worst node anywhere is within a small factor of
        # the worst inside, and every node meets the report's tolerance
        # from the standard n = 4001 on
        def worst(n, inside):
            prof = harmonic_profile(n, 8.0)
            f = prof.with_values(hermite_value(4, prof.nodes))
            expect = (f.values - hermite_value(4, 0.0)) / 4.0
            residual = np.abs(apply_Dbar(f, G).values - expect)
            return float(np.max(residual[np.abs(prof.nodes) < inside]))
        assert worst(4001, math.inf) < 1e-7
        assert worst(16001, math.inf) < 1e-7
        assert worst(8001, math.inf) < 3.0 * worst(8001, 7.2)

    def test_non_rising_continued_exponent_raises(self):
        # S = x²/2 - x⁴/400 sampled on ±8 continues past the edge as a
        # quartic that peaks 3.2 above its edge value and then falls, so
        # the weight e^{-2gS} never decays; the bounded span search stops
        x = np.linspace(-8.0, 8.0, 4001)
        f = WaveProfile(x, 0.5 * x * x - x ** 4 / 400.0, x * x - 0.5)
        start = time.perf_counter()
        with pytest.raises(TailDivergence, match="does not rise"):
            apply_Dbar(f, G)
        assert time.perf_counter() - start < 2.0

    def test_fewer_than_five_nodes_rejected(self):
        # the sampled tail fits a quartic through five nodes, as every
        # stencil does
        x = np.linspace(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="five samples"):
            apply_Dbar(WaveProfile(x, 0.5 * x * x, x), G)

    def test_overflowing_weight_rejected(self):
        # 2g·max S = 900 > log(float max): e^{2gS} would be inf
        prof = harmonic_profile(601, 30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                apply_Dbar(prof.with_values(prof.nodes ** 3), G)

    def test_non_decaying_tail_rejected(self, profile):
        with pytest.raises(TailDivergence):
            apply_Dbar(profile.with_values(np.exp(profile.nodes ** 2)), G)

    def test_resolvent_identity(self, profile):
        moment = gaussian_even_moment(G)
        x = profile.nodes
        cases = [profile.with_values(x ** 2 - moment),
                 profile.with_values(x ** 3),
                 profile.with_values(hermite_value(3, math.sqrt(G) * x))]
        for f in cases:
            assert np.max(resolvent_residual(f, apply_Dbar(f, G), G,
                                             slope(f))) < 1e-6

    def test_greens_function_residual(self, profile):
        for fn in (lambda z: hermite_value(2, math.sqrt(G) * z),
                   lambda z: z ** 3):
            f = profile.with_values(fn(profile.nodes))
            assert np.max(greens_function_residual(f, apply_Dbar(f, G),
                                                   G)) < 1e-5

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_stack_equals_calls_on_each_source(self, profile, g):
        # the report's six sources and x² unsubtracted, whose mean puts it
        # on the growing branch while the six take the bounded one: each
        # row of the stacked image is bitwise the image of its source alone
        x = profile.nodes
        rows = [hermite_value(l, math.sqrt(g) * x) for l in (1, 2, 3, 4)]
        rows += [x ** 2 - gaussian_even_moment(g), x ** 3, x ** 2]
        got = apply_Dbar(profile.with_values(np.stack(rows)), g).values
        assert got.shape == (len(rows), len(x))
        for row, v in zip(got, rows):
            want = apply_Dbar(profile.with_values(v), g).values
            assert np.array_equal(row, want)
            assert np.array_equal(np.signbit(row), np.signbit(want))
        assert np.max(np.abs(got[:-1, -1])) < 1e6 < abs(got[-1, -1])

    def test_non_harmonic_profile_converges(self):
        # S = x²/2 + 0.05x⁴ on [-5, 5] with a source on the growing branch
        # and one on the bounded branch, neither a polynomial: on |x| ≤ 3,
        # n = 1001 and 4001 meet n = 16001 to 1.2e-6 and 1.2e-9 (growing)
        # and 5.3e-10 and 1.2e-12 (bounded), relative, and each row of the
        # stack is its lone image
        def images(n):
            x = np.linspace(-5.0, 5.0, n)
            rows = np.stack([np.cos(2.0 * x) * np.exp(0.3 * x),
                             np.sin(3.0 * x) / (1.0 + x * x)])
            f = WaveProfile(x, 0.5 * x * x + 0.05 * x ** 4, rows)
            got = apply_Dbar(f, G).values
            for row, v in zip(got, rows):
                assert np.array_equal(row, apply_Dbar(f.with_values(v),
                                                      G).values)
            return got, np.abs(x) <= 3.0

        fine, _ = images(16001)
        for n, bounds in ((1001, (3e-6, 2e-9)), (4001, (3e-9, 5e-12))):
            coarse, inside = images(n)
            want = fine[:, ::16000 // (n - 1)][:, inside]
            for row, ref, bound in zip(coarse[:, inside], want, bounds):
                assert np.max(np.abs(row - ref)) <= bound * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [0, 2])
    def test_stack_raises_as_its_failing_row(self, profile, k):
        # a row whose weighted source does not decay fails the stack with
        # the message it raises alone
        x = profile.nodes
        rows = [x ** 3, hermite_value(2, x), x ** 2 - gaussian_even_moment(G)]
        rows[k] = np.exp(0.75 * x * x)
        with pytest.raises(TailDivergence) as alone:
            apply_Dbar(profile.with_values(rows[k]), G)
        with pytest.raises(TailDivergence) as stacked:
            apply_Dbar(profile.with_values(np.stack(rows)), G)
        assert "does not decay" in str(alone.value)
        assert str(stacked.value) == str(alone.value)


@pytest.fixture(scope="module")
def half():
    x = np.linspace(0.0, 4.0, 2001)
    return WaveProfile(x, 0.5 * x * x, np.zeros_like(x))


class TestIrregularSolution:

    def test_vanishes_at_origin(self, half):
        assert irregular_solution(half, G).values[0] == 0.0

    def test_wave_equation_residual(self, half):
        F = irregular_solution(half, G)
        x = half.nodes
        res = -0.5 * derivative(F.values, x, 2) \
            + (0.5 * G * G * x * x - 0.5 * G) * F.values
        assert np.max(np.abs(res[2:-2])) < 1e-6 * np.max(np.abs(F.values))

    def test_wronskian_kernel_agreement(self, half):
        for i, j in ((1500, 1200), (1800, 900), (1999, 400)):
            direct = d_kernel_direct(half, G, i, j)
            wronsk = d_kernel_wronskian(half, G, i, j)
            assert wronsk == pytest.approx(direct, rel=1e-6)


class TestShift:
    def test_quartic_first_order(self, profile):
        u = profile.with_values(profile.nodes ** 4)
        tau = profile.with_values(np.zeros_like(profile.nodes))
        assert shift_from_boundary(u, tau, G) == pytest.approx(0.75 / G ** 2,
                                                               abs=1e-7)

    def test_constant_shift(self, profile):
        u = profile.with_values(np.full_like(profile.nodes, 2.5))
        tau = profile.with_values(np.zeros_like(profile.nodes))
        assert shift_from_boundary(u, tau, G) == pytest.approx(2.5, abs=1e-12)

    def test_first_order_tau_matches_series(self, profile):
        # first-order τ = -ε(a₁x² + a₂x⁴) reproduces Δ(1) + εΔ(2); the
        # ε²-part of the wave function moves the energy εΔ only at O(ε³),
        # so the Δ discrepancy is bounded by the next-order scale ε²Δ(3)
        from trajquad.oscpert import solve_even
        series = solve_even(2, 3)
        eps, g = 1e-3, 1.0
        ginv = {VAR_GHAT: 1.0 / g}
        a1 = coeff(series, 1, 2).evaluate(ginv)
        a2 = coeff(series, 1, 4).evaluate(ginv)
        x = profile.nodes
        tau_vals = -eps * (a1 * x ** 2 + a2 * x ** 4)
        u = profile.with_values(x ** 4)
        got = shift_from_boundary(u, profile.with_values(tau_vals), g)
        expect = delta(series, 1).evaluate(ginv) \
            + eps * delta(series, 2).evaluate(ginv)
        bound = 2.0 * eps ** 2 * abs(delta(series, 3).evaluate(ginv))
        assert abs(got - expect) < bound


class TestSeriesFixedPoint:
    def test_exp_tau_solves_resolvent_equation(self, profile, monkeypatch):
        # whole-method consistency: the exact series coefficients must
        # satisfy e^{-τ} - 1 = D̄[ε(-U+Δ)e^{-τ}] up to the truncation
        # order, so the residual scales like ε³ for a K = 2 series.  The
        # truncated source has a mean of O(ε³), far above the threshold
        # that selects D̄'s bounded branch, so the threshold is raised
        from trajquad.oscpert import solve_even
        monkeypatch.setattr(greens, "_SOLVABILITY_RTOL", 1e-4)
        g = 1.0
        series = solve_even(2, 2)
        x = profile.nodes
        ginv = {"ĝ": 1.0 / g}

        def series_fn(eps):
            def fn(z):
                out = np.ones_like(np.asarray(z, dtype=float))
                for k in range(1, len(series.levels)):
                    for n in series.levels[k]:
                        out = out + eps ** k * coeff(series, k, n).evaluate(ginv) * z ** n
                return out
            return fn

        residuals = {}
        for eps in (1e-3, 5e-4):
            shift = sum(eps ** (k - 1) * delta(series, k).evaluate(ginv)
                        for k in range(1, len(series.levels)))
            tau_fn = series_fn(eps)
            src = profile.with_values(eps * (-x ** 4 + shift) * tau_fn(x))
            rhs = apply_Dbar(src, g).values
            lhs = tau_fn(x) - 1.0
            mask = np.abs(x) <= 3.0
            residuals[eps] = np.max(np.abs(lhs - rhs)[mask])
        assert residuals[1e-3] < 1e-5
        assert residuals[1e-3] / residuals[5e-4] == pytest.approx(8.0, rel=0.1)


class TestTrajectoryProfile:
    def test_c_operator_on_classical_action(self):
        # the leading-order operator is apply_C with the classical S₀ from
        # a trajectory grid; its left-inverse identity must hold there too
        from trajquad.trajectory import build_grid, coefficients
        grid = build_grid(coefficients("0.5*x^2 + 0.1*x^4"), 4.0, 2001)
        s0 = cumulative_integral(np.sqrt(_horner(grid.P, grid.arc)), grid.arc)
        prof = WaveProfile(grid.arc, s0, grid.arc ** 4)
        assert np.max(c_gradient_residual(prof, 2.0, slope(prof))) < 1e-6


class TestReport:
    def test_all_identities_pass(self):
        report = identity_report(1.0, 4001, 8.0)
        assert all(rec["pass"] for rec in report)
        names = {rec["identity"] for rec in report}
        assert "dbar_hermite_l4" in names

    def test_differentiates_s_once(self, monkeypatch):
        # C divides by S' in the three resolvent checks and the left-inverse
        # check, which also multiplies by it: one stencil pass over S serves
        # all four (the check-by-check reference takes five)
        x = np.linspace(-8.0, 8.0, 401)
        passes, real = [], greens.derivative

        def counted(values, nodes, *args, **kwargs):
            passes.append(np.array_equal(values, 0.5 * x * x))
            return real(values, nodes, *args, **kwargs)

        monkeypatch.setattr(greens, "derivative", counted)
        identity_report(1.0, 401, 8.0)
        assert sum(passes) == 1

    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_matches_reference_with_one_dbar_per_source(self, g, monkeypatch):
        # the report applies D̄ once, to the stack of its six sources, and
        # reads each image from it; the check-by-check reference applies it
        # per identity and recomputes three of them.  The stack's tails are
        # one quadrature per side for all six sources
        calls, tails = [], []
        apply, panels = greens.apply_Dbar, greens.gauss_panels
        monkeypatch.setattr(greens, "apply_Dbar",
                            lambda *a, **kw: calls.append(1) or apply(*a, **kw))
        monkeypatch.setattr(greens, "gauss_panels",
                            lambda *a, **kw: tails.append(1) or panels(*a, **kw))
        report = identity_report(g, 401, 8.0)
        assert len(calls) == 1
        assert len(tails) == 2
        calls.clear()
        reference = reference_report(g, 401)
        assert len(calls) == 9
        assert report == reference
