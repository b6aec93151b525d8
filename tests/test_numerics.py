"""Whole-array numeric kernels against per-node reference loops.

The stencils sum each window with a matrix product instead of one dot
product per node, so they may differ from the loops by a few ulp of the
summed terms (about max|y|, times h^-order for a derivative, where the
terms cancel).  The array adaptive Simpson kernel does the same IEEE
operations as the scalar depth-first recursion kept here as its reference
(``adaptive_integral``, also used by the trajectory and acceptance tests)
and must agree with it bitwise.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from trajquad import numerics
from trajquad.greens import hermite_value
from trajquad.numerics import (_CUM_WEIGHTS, _D1_WEIGHTS, _D2_WEIGHTS,
                               adaptive_panels, cumulative_integral,
                               derivative, neville_at)
from trajquad.trajectory import Potential1D, build_grid

SIZES = (5, 6, 7, 16, 1001)
RTOL = 1e-12


def _simpson(lo, hi, flo, fmid, fhi):
    return (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0


def _recurse(f, lo, hi, flo, fmid, fhi, whole, eps, depth):
    """Adaptive Simpson on one panel whose ends and midpoint are sampled."""
    mid = 0.5 * (lo + hi)
    flm = f(0.5 * (lo + mid))
    frm = f(0.5 * (mid + hi))
    left = _simpson(lo, mid, flo, flm, fmid)
    right = _simpson(mid, hi, fmid, frm, fhi)
    err = (left + right - whole) / 15.0
    if depth <= 0 or abs(err) <= eps:
        return left + right + err
    return (_recurse(f, lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
            + _recurse(f, mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))


def adaptive_integral(f, a, b, tol=1e-12, max_depth=40):
    """Scalar, depth-first adaptive Simpson on [a, b]: the kernel's reference."""
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(a, b, fa, fm, fb)
    return _recurse(f, a, b, fa, fm, fb, whole, tol, max_depth)


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


def _moved(node: int, by) -> np.ndarray:
    # 41 nodes on [-1.3, 2.1] with one node moved by ``by`` (times h when
    # finite) or set to it (nan, ±inf)
    x = np.linspace(-1.3, 2.1, 41)
    x[node] = x[node] + by * (x[1] - x[0]) if np.isfinite(by) else by
    return x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", (derivative, cumulative_integral))
class TestUniformGridGuard:
    """``grid_spacing`` decides |dx - h| ≤ 1e-9·|h| for every step."""

    @pytest.mark.parametrize("node", (0, 1, 20, 40))
    def test_node_moved_past_tolerance_raises(self, kernel, node):
        x = _moved(node, 1e-8)
        with pytest.raises(ValueError, match="grid is not uniform"):
            kernel(np.sin(x), x)

    @pytest.mark.parametrize("node", (0, 1, 20, 40))
    def test_node_moved_within_tolerance_passes(self, kernel, node):
        x = _moved(node, 1e-10)
        assert np.all(np.isfinite(kernel(np.sin(x), x)))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("node", (0, 1, 20, 40))
    def test_non_finite_node_raises(self, kernel, node, bad):
        x = _moved(node, bad)
        with pytest.raises(ValueError, match="grid is not uniform"):
            kernel(np.zeros(len(x)), x)


def test_stencils_exact_on_quartics():
    x = np.linspace(0.0, 2.0, 11)
    y = x ** 4 - 2.0 * x
    assert np.allclose(derivative(y, x), 4.0 * x ** 3 - 2.0, atol=1e-11)
    assert np.allclose(derivative(y, x, order=2), 12.0 * x ** 2, atol=1e-9)
    assert np.allclose(cumulative_integral(y, x, start=5),
                       x ** 5 / 5 - x ** 2 - (1.0 / 5 - 1.0), atol=1e-13)


def test_stencil_tables_pinned():
    # the central rows of the exact Lagrange functionals, as fractions
    def floats(*fractions):
        return np.array([float(Fraction(w)) for w in fractions])

    assert np.array_equal(_D1_WEIGHTS[2],
                          floats("1/12", "-2/3", "0", "2/3", "-1/12"))
    assert np.array_equal(_D2_WEIGHTS[2],
                          floats("-1/12", "4/3", "-5/2", "4/3", "-1/12"))
    assert np.array_equal(_CUM_WEIGHTS[2],
                          floats("11/720", "-37/360", "19/30", "173/360",
                                 "-19/720"))


def test_neville_on_an_array_equals_scalar_calls():
    # the origin patch of the g⁻¹ hierarchy: six band nodes, many targets
    xs = np.linspace(0.3, 0.9, 6)
    ys = np.cos(3.0 * xs) / xs
    targets = np.linspace(0.0, 0.35, 37)
    want = [neville_at(xs, ys, t) for t in targets.tolist()]
    assert np.array_equal(neville_at(xs, ys, targets), want)


class TestAdaptivePanels:
    @staticmethod
    def scalar(f, edges, tol, max_depth):
        return np.array([adaptive_integral(f, a, b, tol=tol, max_depth=max_depth)
                         for a, b in zip(edges[:-1], edges[1:])])

    @staticmethod
    def greens_tail():
        # _tail_beyond's integrand for H₄ on S = z²/2, g = 1, past the
        # edge b = 6 out to where e^{-2g(S-S_b)} falls below e^{-40}
        g, b, span = 1.0, 6.0, 7.0
        f = lambda z: np.exp(-2.0 * g * (0.5 * z * z - 0.5 * b * b)) \
            * hermite_value(4, math.sqrt(g) * z)
        return f, np.array([b, b + span]), 1e-13 * abs(f(b)) * span

    @pytest.mark.parametrize("max_depth", (0, 3, 40))
    def test_bitwise_equal_to_adaptive_integral(self, max_depth):
        # √|x| refines near its cusp at 0; the flat far panels do not
        f = lambda z: np.sqrt(np.abs(z)) + np.exp(-z)
        edges = np.array([-1.0, -0.25, 0.0, 0.0, 0.125, 0.5, 0.5, 2.0, 6.0])
        got = adaptive_panels(f, edges, tol=1e-9, max_depth=max_depth)
        want = self.scalar(f, edges, 1e-9, max_depth)
        assert np.array_equal(got, want)
        assert got[2] == got[5] == 0.0   # zero-width panels
        f, edges, tol = self.greens_tail()
        got = adaptive_panels(f, edges, tol=tol, max_depth=max_depth)
        assert np.array_equal(got, self.scalar(f, edges, tol, max_depth))

    def test_first_level_is_five_array_calls(self):
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return z * z

        edges = np.linspace(0.0, 1.0, 101)
        got = adaptive_panels(f, edges, tol=1e-12)
        assert calls == [(100,)] * 5   # Simpson is exact on x², none recurse
        assert np.array_equal(got, self.scalar(lambda z: z * z, edges, 1e-12, 40))

    def test_only_failing_panels_recurse(self, monkeypatch):
        # the scalar reference runs _recurse once per panel and level, and
        # a panel that misses its estimate has two halves at the next level;
        # the kernel samples each level's panels in one pair of array calls
        f = lambda z: np.sqrt(np.abs(z))
        edges = np.array([-2.0, -1.0, 0.0, 1.0])
        depths = []
        reference = _recurse

        def counted(*args):
            depths.append(args[-1])
            return reference(*args)

        monkeypatch.setattr(sys.modules[__name__], "_recurse", counted)
        self.scalar(f, edges, 1e-10, 40)
        monkeypatch.undo()
        panels = [depths.count(d) for d in range(40, min(depths) - 1, -1)]
        assert panels[0] == 3 and len(panels) > 1
        assert all(n % 2 == 0 for n in panels[1:])

        calls = []

        def g(z):
            calls.append(np.shape(z))
            return f(z)

        adaptive_panels(g, edges, tol=1e-10, max_depth=40)
        assert calls[:5] == [(3,)] * 5
        assert calls[5:] == [(n,) for n in panels[1:] for _ in range(2)]

    def test_levels_bisect_at_most_chunk_panels_per_call(self, monkeypatch):
        # a level with more failing panels than _CHUNK runs them in chunks:
        # the arrays stay bounded and the values bitwise equal
        monkeypatch.setattr(numerics, "_CHUNK", 2)
        calls = []

        def f(z):
            calls.append(len(z))
            return np.sqrt(np.abs(z)) + np.exp(-z)

        edges = np.linspace(-1.0, 2.0, 8)
        got = adaptive_panels(f, edges, tol=1e-9)
        assert calls[:5] == [7] * 5 and max(calls[5:]) == 4
        assert np.array_equal(got, self.scalar(
            lambda z: np.sqrt(np.abs(z)) + np.exp(-z), edges, 1e-9, 40))


def scalar_grid(pot, x_max, n, direction):
    """build_grid's S₀, S₀' and kinks, one node and panel at a time."""
    slack = 1e3 * np.finfo(float).eps
    nodes = pot.origin + direction * np.linspace(0.0, x_max, n)
    grad2 = 2.0 * np.maximum(np.array([pot.v(x) for x in nodes]), 0.0)
    scale = max(1.0, float(np.max(grad2)))
    kinks = [i for i in range(1, n - 1) if grad2[i] < slack * scale
             and pot.dv(nodes[i - 1]) * pot.dv(nodes[i + 1]) < 0.0]

    def integrand(x):
        return math.sqrt(max(2.0 * pot.v(x), 0.0))

    s0 = np.zeros(n)
    for i in range(n - 1):
        s0[i + 1] = s0[i] + abs(adaptive_integral(integrand, nodes[i],
                                                  nodes[i + 1], tol=1e-12))
    return s0, np.sqrt(grad2), kinks


@pytest.mark.parametrize("poly, origin, x_max, n, direction", [
    # -v has a second maximum at x = 2: the kink sits at node 1000 of 2001
    ("0.5*x^2 - 0.5*x^3 + 0.125*x^4", 0.0, 4.0, 2001, 1),
    ("0.5 - x^2 + 0.5*x^4", 1.0, 2.5, 1001, -1),
    ("0.5*x^2 + 0.1*x^4", 0.0, 2.5, 401, 1),
])
def test_build_grid_equals_scalar_quadrature(poly, origin, x_max, n, direction):
    pot = Potential1D.from_poly(poly, origin=origin)
    grid = build_grid(pot, x_max, n, direction=direction)
    s0, speed, kinks = scalar_grid(pot, x_max, n, direction)
    assert grid.kinks == kinks
    assert np.array_equal(grid.s0, s0)
    assert np.array_equal(grid.speed, speed)

