"""Whole-array numeric kernels against per-node reference loops.

The stencils sum each window with a matrix product instead of one dot
product per node, so they may differ from the loops by a few ulp of the
summed terms (about max|y|, times h^-order for a derivative, where the
terms cancel); the batched panel quadrature does the same IEEE operations
as the scalar rule and must agree bitwise.
"""

import math

import numpy as np
import pytest

from trajquad.numerics import (_CUM_WEIGHTS, _D1_WEIGHTS, _D2_WEIGHTS,
                               adaptive_integral, adaptive_panels,
                               cumulative_integral, derivative,
                               extrapolate_to_zero)
from trajquad.trajectory import Potential1D, build_grid

SIZES = (5, 6, 7, 16, 1001)
RTOL = 1e-12


def derivative_loop(y, x, order):
    table = _D1_WEIGHTS if order == 1 else _D2_WEIGHTS
    n = len(y)
    h = x[1] - x[0]
    out = np.empty(n)
    for i in range(n):
        c = min(max(i, 2), n - 3)
        out[i] = table[i - (c - 2)] @ y[c - 2:c + 3]
    return out / h ** order


def cumulative_loop(y, x, start):
    n = len(y)
    h = x[1] - x[0]
    inc = np.empty(n - 1)
    for i in range(n - 1):
        s = min(max(i - 2, 0), n - 5)
        inc[i] = _CUM_WEIGHTS[i - s] @ y[s:s + 5]
    inc *= h
    out = np.empty(n)
    out[start] = 0.0
    if start < n - 1:
        out[start + 1:] = np.cumsum(inc[start:])
    if start > 0:
        out[:start] = -np.cumsum(inc[:start][::-1])[::-1]
    return out


def samples(n):
    x = np.linspace(-1.3, 2.1, n)
    return x, np.sin(3.0 * x) + x ** 5 - 0.7 * x ** 2


def assert_close(got, want, scale):
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("order", (1, 2))
def test_derivative_matches_loop(n, order):
    x, y = samples(n)
    want = derivative_loop(y, x, order)
    scale = max(np.max(np.abs(want)),
                np.max(np.abs(y)) / (x[1] - x[0]) ** order)
    assert_close(derivative(y, x, order=order), want, scale)


@pytest.mark.parametrize("n", SIZES)
def test_cumulative_integral_matches_loop(n):
    x, y = samples(n)
    for start in (0, n // 2, n - 1):
        want = cumulative_loop(y, x, start)
        assert_close(cumulative_integral(y, x, start=start), want,
                     np.max(np.abs(want)))


def test_stencils_exact_on_quartics():
    x = np.linspace(0.0, 2.0, 11)
    y = x ** 4 - 2.0 * x
    assert np.allclose(derivative(y, x), 4.0 * x ** 3 - 2.0, atol=1e-11)
    assert np.allclose(derivative(y, x, order=2), 12.0 * x ** 2, atol=1e-9)
    assert np.allclose(cumulative_integral(y, x, start=5),
                       x ** 5 / 5 - x ** 2 - (1.0 / 5 - 1.0), atol=1e-13)


class TestAdaptivePanels:
    @staticmethod
    def scalar(f, edges, tol, max_depth):
        return np.array([adaptive_integral(f, a, b, tol=tol, max_depth=max_depth)
                         for a, b in zip(edges[:-1], edges[1:])])

    @pytest.mark.parametrize("max_depth", (0, 3, 40))
    def test_bitwise_equal_to_adaptive_integral(self, max_depth):
        # √|x| refines near its cusp at 0; the flat far panels do not
        f = lambda z: np.sqrt(np.abs(z)) + np.exp(-z)
        edges = np.array([-1.0, -0.25, 0.0, 0.0, 0.125, 0.5, 0.5, 2.0, 6.0])
        got = adaptive_panels(f, edges, tol=1e-9, max_depth=max_depth)
        want = self.scalar(f, edges, 1e-9, max_depth)
        assert np.array_equal(got, want)
        assert got[2] == got[5] == 0.0   # zero-width panels

    def test_first_level_is_five_array_calls(self):
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return z * z

        edges = np.linspace(0.0, 1.0, 101)
        got = adaptive_panels(f, edges, tol=1e-12)
        assert calls == [(100,)] * 5   # Simpson is exact on x², none recurse
        assert np.array_equal(got, self.scalar(lambda z: z * z, edges, 1e-12, 40))

    def test_only_failing_panels_recurse(self):
        calls = []

        def f(z):
            calls.append(np.ndim(z))
            return np.sqrt(np.abs(z))

        adaptive_panels(f, np.array([-2.0, -1.0, 0.0, 1.0]), tol=1e-10,
                        max_depth=40)
        assert calls[:5] == [1] * 5
        assert len(calls) > 5 and all(d == 0 for d in calls[5:])


def scalar_grid(pot, x_max, n, direction):
    """build_grid's S₀, ∇²S₀, time and (∇S₀)², one node and panel at a time."""
    slack = 1e3 * np.finfo(float).eps
    nodes = pot.origin + direction * np.linspace(0.0, x_max, n)
    grad2 = 2.0 * np.maximum(np.array([pot.v(x) for x in nodes]), 0.0)
    speed = np.sqrt(grad2)
    scale = max(1.0, float(np.max(grad2)))
    kinks = [i for i in range(1, n - 1) if grad2[i] < slack * scale
             and pot.dv(nodes[i - 1]) * pot.dv(nodes[i + 1]) < 0.0]

    def integrand(x):
        return math.sqrt(max(2.0 * pot.v(x), 0.0))

    s0 = np.zeros(n)
    for i in range(n - 1):
        s0[i + 1] = s0[i] + abs(adaptive_integral(integrand, nodes[i],
                                                  nodes[i + 1], tol=1e-12))
    lap = np.empty(n)
    lap[0] = math.sqrt(pot.d2v(pot.origin))
    for i in range(1, n):
        lap[i] = (direction * pot.dv(nodes[i]) / speed[i]
                  if speed[i] > math.sqrt(slack * scale) else np.nan)
    arc = np.abs(nodes - nodes[0])
    for i in range(1, n):
        if np.isnan(lap[i]):
            back = [j for j in range(max(1, i - 4), i) if not np.isnan(lap[j])]
            lap[i] = extrapolate_to_zero([arc[j] - arc[i] for j in back],
                                         [lap[j] for j in back]) \
                if len(back) >= 2 else lap[0]
    time = np.empty(n)
    time[0] = np.nan
    first_kink = kinks[0] if kinks else n
    t = 0.0
    for i in range(1, n):
        if i > 1:
            if i >= first_kink:
                t = math.inf
            else:
                t += abs(adaptive_integral(
                    lambda x: 1.0 / max(integrand(x), 1e-300),
                    nodes[i - 1], nodes[i], tol=1e-10, max_depth=20))
        time[i] = t
    return s0, lap, time, grad2, kinks


@pytest.mark.parametrize("poly, origin, x_max, n, direction", [
    # -v has a second maximum at x = 2: the kink sits at node 1000 of 2001
    ("0.5*x^2 - 0.5*x^3 + 0.125*x^4", 0.0, 4.0, 2001, 1),
    ("0.5 - x^2 + 0.5*x^4", 1.0, 2.5, 1001, -1),
    ("0.5*x^2 + 0.1*x^4", 0.0, 2.5, 401, 1),
])
def test_build_grid_equals_scalar_quadrature(poly, origin, x_max, n, direction):
    pot = Potential1D.from_poly(poly, origin=origin)
    grid = build_grid(pot, x_max, n, direction=direction)
    s0, lap, time, grad2, kinks = scalar_grid(pot, x_max, n, direction)
    assert grid.kinks == kinks
    assert np.array_equal(grid.s0, s0)
    assert np.array_equal(grid.lap_s0, lap)
    assert np.array_equal(grid.time, time, equal_nan=True)
    assert np.array_equal(grid.grad2, grad2)


def test_black_box_potential_matches_polynomial():
    poly = Potential1D.from_poly("0.5*x^2 + 0.1*x^4")
    box = Potential1D.from_callables(lambda x: 0.5 * x * x + 0.1 * x ** 4,
                                     lambda x: x + 0.4 * x ** 3,
                                     lambda x: 1.0 + 1.2 * x * x)
    a, b = build_grid(poly, 2.5, 801), build_grid(box, 2.5, 801)
    assert np.max(np.abs(a.s0 - b.s0)) < 1e-13
    assert np.max(np.abs(a.time[1:] - b.time[1:])) < 1e-12
