"""Whole-array numeric kernels against per-node reference loops.

The stencils sum each window with a matrix product instead of one dot
product per node, so they may differ from the loops by a few ulp of the
summed terms (about max|y|, times h^-order for a derivative, where the
terms cancel).  The fixed Gauss–Legendre panels are checked against
polynomial integrals and numpy's Legendre nodes.  The scalar adaptive
Simpson rule kept here (``adaptive_integral``) is the tests' reference
for integrals of callables to a tolerance: S₀ on a trajectory grid.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import legendre as npoly_legendre
from numpy.polynomial import polynomial as npoly

from trajquad import numerics
from trajquad.greens import hermite_value
from trajquad.numerics import (_CUM_WEIGHTS, _D1_WEIGHTS, _D2_WEIGHTS,
                               _GAUSS_TABLE, _QUARTIC_FIT,
                               cumulative_integral, derivative, gauss_panels,
                               gauss_samples, quartic_fit)
from trajquad.errors import HierarchyBreakdown
from trajquad.trajectory import build_grid, coefficients

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


def _solve(matrix, rhs):
    """Gauss-Jordan solution of matrix · w = rhs in Fractions."""
    rows = [[Fraction(a) for a in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for r in range(len(rows)):
            if r != col:
                rows[r] = [a - rows[r][col] * b
                           for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def _stencil(s, moments):
    """Float weights w_j of Σ_j w_j t_j^k = moments[k] on t_j = j - s."""
    offsets = range(-s, 5 - s)
    return np.array([float(w) for w in _solve(
        [[t ** k for t in offsets] for k in range(5)], moments)])


def test_stencil_tables_solve_their_moment_systems():
    # every anchor of every table, each weight solved on its own window
    # t = -s..4-s and rounded once, equals the table's float bit for bit
    cases = [(_CUM_WEIGHTS, 4, [Fraction(1, k + 1) for k in range(5)]),
             (_D1_WEIGHTS, 5, [0, 1, 0, 0, 0]),
             (_D2_WEIGHTS, 5, [0, 0, 2, 0, 0])]
    for table, anchors, moments in cases:
        assert sorted(table) == list(range(anchors))
        for s in range(anchors):
            assert np.array_equal(table[s], _stencil(s, moments))
    # the Gauss table's column m solves the system of the point evaluation
    # at its node t_m = s + (1 + ξ_m)/2.  The table evaluates the basis as
    # a product in floats, so it meets the solution to rounding (4.4e-16),
    # not bit for bit
    assert sorted(_GAUSS_TABLE) == list(range(4))
    for s in range(4):
        for m, t in enumerate(s + 0.5 + 0.5 * numerics._GAUSS_NODES):
            want = _stencil(s, [(Fraction(t) - s) ** k for k in range(5)])
            assert np.max(np.abs(_GAUSS_TABLE[s][:, m] - want)) < 2e-15


def test_quartic_fit_table_solves_its_vandermonde_system():
    # row j holds the coefficients of the quartic that is 1 at t = j and 0
    # at the other nodes t = 0..4
    for j in range(5):
        want = _solve([[t ** k for k in range(5)] for t in range(5)],
                      [int(t == j) for t in range(5)])
        assert np.array_equal(_QUARTIC_FIT[j], [float(c) for c in want])


def _gauss_points(x):
    """The 16 Gauss–Legendre nodes of every interval of the grid ``x``."""
    half = 0.5 * (x[1] - x[0])
    return x[:-1, None] + half * (1.0 + numerics._GAUSS_NODES)


@pytest.mark.parametrize("n", (5, 6, 7, 101))
def test_gauss_samples_are_exact_on_quartics(n):
    # every Gauss node of every interval, edge windows included, reads a
    # quartic to rounding
    x = np.linspace(-1.0, 2.0, n)
    p = lambda z: 3.0 * z ** 4 - z ** 3 + 2.0 * z - 1.0
    got = gauss_samples(p(x))
    assert got.shape == (n - 1, 16)
    assert np.max(np.abs(got - p(_gauss_points(x)))) < 1e-13


def test_gauss_samples_read_the_cumulative_integral_windows():
    # interval i is read from the window starting at clip(i-2, 0, n-5): a
    # spike at node k moves only the intervals whose window holds k
    n = 11
    for k in range(n):
        y = np.zeros(n)
        y[k] = 1.0
        touched = {i for i, row in enumerate(gauss_samples(y)) if np.any(row)}
        starts = np.clip(np.arange(n - 1) - 2, 0, n - 5)
        windows = {i for i, s in enumerate(starts) if s <= k < s + 5}
        assert touched == windows


def test_gauss_samples_weigh_to_the_cumulative_integral():
    # on samples of a quartic both rules are exact, so each interval's
    # Gauss sum is the cumulative integral's step to rounding
    x = np.linspace(-1.3, 2.1, 41)
    y = x ** 4 - 2.0 * x ** 3 + 0.5
    got = gauss_samples(y) @ numerics._GAUSS_WEIGHTS * (0.5 * (x[1] - x[0]))
    want = np.diff(cumulative_integral(y, x))
    assert np.max(np.abs(got - want)) < 1e-15 * np.max(np.abs(y))


def test_quartic_fit_coefficients():
    # the quartic through (t, p(t)), t = 0..4, is p itself
    want = np.array([-1.0, 2.0, 0.5, -1.0, 3.0])
    ys = np.array([sum(c * t ** k for k, c in enumerate(want)) for t in range(5)])
    assert np.allclose(quartic_fit(ys), want, rtol=0.0, atol=1e-12)


class TestGaussPanels:
    @staticmethod
    def exact(k, edges):
        return (edges[1:] ** (k + 1) - edges[:-1] ** (k + 1)) / (k + 1)

    def test_nodes_and_weights_are_legendre_gauss(self):
        nodes, weights = npoly_legendre.leggauss(16)
        assert np.max(np.abs(numerics._GAUSS_NODES - nodes)) < 1e-15
        assert np.max(np.abs(numerics._GAUSS_WEIGHTS - weights)) < 1e-14

    def test_each_panel_is_exact_through_degree_31(self):
        # to rounding of ∫|t^k| on each panel; a zero-width panel gives 0.0
        edges = np.array([-1.3, -0.4, 0.2, 0.2, 1.0, 2.5])
        for k in range(32):
            got = gauss_panels(lambda t: t ** k, edges)
            scale = np.diff(np.sign(edges) * np.abs(edges) ** (k + 1)) / (k + 1)
            assert np.all(np.abs(got - self.exact(k, edges)) <= 1e-14 * scale), k
            assert got[2] == 0.0
        # and no further: t^32 on [-1, 1] misses by the 16-point error term
        # 2^33 (16!)^4 / (33 (32!)^2) ≈ 7.2e-10
        edges = np.array([-1.0, 1.0])
        miss = self.exact(32, edges) - gauss_panels(lambda t: t ** 32, edges)
        assert 7e-10 < miss[0] < 7.5e-10

    def test_one_array_call_over_all_panels(self):
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return np.exp(-z)

        edges = np.linspace(0.0, 1.0, 101)
        got = gauss_panels(f, edges)
        assert calls == [(100, 16)]
        # to the rounding of the closed form's difference of two values ≈ 1
        assert np.max(np.abs(got + np.diff(np.exp(-edges)))) < 4e-16

    def test_stack_equals_calls_on_each_row(self):
        # one call serves every row, and each row keeps the value it gets
        # alone, sign bits of its zeros included
        rows = (lambda z: z * z, lambda z: np.sqrt(np.abs(z)),
                lambda z: np.exp(-z), lambda z: 0.0 * z - 0.0)
        edges = np.array([-1.0, -0.25, 0.0, 0.0, 0.125, 0.5, 2.0])
        alone = [gauss_panels(f, edges) for f in rows]
        got = gauss_panels(lambda z: np.array([f(z) for f in rows]), edges)
        assert got.shape == (len(rows), len(edges) - 1)
        for row, want in zip(got, alone):
            assert np.array_equal(row, want)
            assert np.array_equal(np.signbit(row), np.signbit(want))


def scalar_grid(coeffs, origin, x_max, n, direction):
    """build_grid's S₀' and S₀ (by adaptive quadrature) and the nodes of the
    old per-node kink scan: 2v below the kink slack where v' changes sign
    across the node, one node and panel at a time."""
    slack = 1e3 * np.finfo(float).eps
    v = lambda x: npoly.polyval(x, coeffs)
    dv = lambda x: npoly.polyval(x, npoly.polyder(coeffs))
    nodes = origin + direction * np.linspace(0.0, x_max, n)
    grad2 = 2.0 * np.maximum(np.array([v(x) for x in nodes]), 0.0)
    scale = max(1.0, float(np.max(grad2)))
    kinks = [i for i in range(1, n - 1) if grad2[i] < slack * scale
             and dv(nodes[i - 1]) * dv(nodes[i + 1]) < 0.0]

    def integrand(x):
        return math.sqrt(max(2.0 * v(x), 0.0))

    s0 = np.zeros(n)
    for i in range(n - 1):
        s0[i + 1] = s0[i] + abs(adaptive_integral(integrand, nodes[i],
                                                  nodes[i + 1], tol=1e-12))
    return nodes, s0, np.sqrt(grad2), kinks


@pytest.mark.parametrize("poly, origin, x_max, n, direction", [
    # -v has a second maximum at x = 2: the kink sits at node 1000 of 2001
    ("0.5*x^2 - 0.5*x^3 + 0.125*x^4", 0.0, 4.0, 2001, 1),
    ("0.5 - x^2 + 0.5*x^4", 1.0, 2.5, 1001, -1),
    ("0.5*x^2 + 0.1*x^4", 0.0, 2.5, 401, 1),
])
def test_build_grid_equals_scalar_quadrature(poly, origin, x_max, n, direction):
    # a grid with a kink is refused at the node the scalar scan flags; one
    # without has the scalar S₀' bit for bit, and its cumulative integral
    # is the scalar adaptive S₀ to 1e-12
    coeffs = coefficients(poly)
    nodes, s0, speed, kinks = scalar_grid(coeffs, origin, x_max, n, direction)
    if kinks:
        assert len(kinks) == 1
        with pytest.raises(HierarchyBreakdown,
                           match=f"x = {nodes[kinks[0]]:.6g} "):
            build_grid(coeffs, x_max, n, origin=origin, direction=direction)
        return
    grid = build_grid(coeffs, x_max, n, origin=origin, direction=direction)
    assert np.array_equal(grid.nodes, nodes)
    s0p = np.sqrt(numerics._horner(grid.P, grid.arc))
    assert np.array_equal(s0p, speed)
    assert np.max(np.abs(cumulative_integral(s0p, grid.arc) - s0)) \
        < 1e-12 * s0[-1]
