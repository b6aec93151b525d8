"""Trajectory grids: P along the path, S₀ by quadrature, the kink rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from trajquad import trajectory
from trajquad.errors import (DegenerateMinimum, HierarchyBreakdown,
                             InvalidPotential)
from trajquad.gexpand import hierarchy
from trajquad.numerics import _horner, cumulative_integral
from trajquad.trajectory import build_grid, coefficients


def harmonic(nu2: float = 1.0):
    return coefficients(f"{nu2 / 2}*x^2")


def slope(grid):
    """S₀' = √P at the nodes."""
    return np.sqrt(_horner(grid.P, grid.arc))


def s0_of(grid):
    """S₀ at the nodes: the cumulative integral of the grid's slope."""
    return cumulative_integral(slope(grid), grid.arc)


class TestPotential:
    def test_coefficients(self):
        coeffs = coefficients("0.5*x^2 + 0.1*x^4")
        assert coeffs.tolist() == [0.0, 0.0, 0.5, 0.0, 0.1]
        assert _horner(coeffs, 2.0) == pytest.approx(2.0 + 1.6)
        grid = build_grid(coeffs, 2.0, 401)
        assert np.array_equal(np.trim_zeros(grid.P, "b"), 2.0 * coeffs)
        assert grid.nu == 1.0

    @pytest.mark.parametrize("degree", [4, 9, 10, 171])
    def test_poly_stack_depth_is_fixed(self, degree):
        # the stack is one polynomial at any degree: the grid reads v
        # through P = 2v(origin + direction·a) alone, and no derivative
        # level.  A stack as deep as the degree overflowed its derivative
        # coefficients at degree 171, a RuntimeWarning (an error under the
        # test settings)
        coeffs = coefficients(f"0.5*x^2 + x^{degree}")
        want = np.zeros(degree + 1)
        want[2], want[degree] = 0.5, 1.0
        assert np.array_equal(coeffs, want)
        x = np.linspace(-0.5, 0.5, 11)
        assert np.array_equal(_horner(coeffs, x), npoly.polyval(x, want))
        for direction in (1, -1):
            grid = build_grid(coeffs, 0.5, 201, direction=direction)
            shifted = 2.0 * want * direction ** np.arange(degree + 1)
            assert np.array_equal(np.trim_zeros(grid.P, "b"), shifted)
            assert np.array_equal(
                slope(grid), np.sqrt(2.0 * _horner(coeffs, grid.nodes)))

    def test_high_degree_hierarchy_runs(self):
        # gexpand --potential "0.5*x^2+x^171" --x-max 0.5 --n 201
        grid = build_grid(coefficients("0.5*x^2 + x^171"), 0.5, 201)
        sol = hierarchy(grid, 3)
        assert np.isfinite(sol.e_terms).all()

    def test_rejects_non_x_symbols(self):
        # a potential in the wrong variable is an input error, not a
        # breakdown of the method
        with pytest.raises(ValueError):
            coefficients("r^2")


class TestBuildGrid:
    def test_harmonic_action(self):
        grid = build_grid(harmonic(), 3.0, 1201)
        assert np.max(np.abs(s0_of(grid) - grid.nodes ** 2 / 2)) < 1e-10
        assert np.array_equal(slope(grid), np.sqrt(
            2.0 * _horner(harmonic(), grid.nodes)))
        assert grid.nu == pytest.approx(1.0)

    def test_negative_potential_rejected(self):
        with pytest.raises(InvalidPotential):
            build_grid(coefficients("0.5*x^2 - 0.2*x^4"), 3.0, 801)

    def test_degenerate_minimum_rejected(self):
        with pytest.raises(DegenerateMinimum):
            build_grid(coefficients("x^4"), 2.0, 401)
        # DegenerateMinimum is a kind of InvalidPotential
        with pytest.raises(InvalidPotential):
            build_grid(coefficients("x^4"), 2.0, 401)

    def test_double_well_closed_form(self):
        # v = ½(x²-1)², trajectory from the minimum at x = 1 going left:
        # S₀(x) = |x³/3 - x + 2/3| down to the kink at x = -1 where the
        # other hump peaks; a grid reaching it is refused
        coeffs = coefficients("0.5 - x^2 + 0.5*x^4")
        grid = build_grid(coeffs, 1.9, 1001, origin=1.0, direction=-1)
        x = grid.nodes
        expect = np.abs(x ** 3 / 3 - x + 2.0 / 3.0)
        assert np.max(np.abs(s0_of(grid) - expect)) \
            < 1e-9 * max(1, expect.max())
        with pytest.raises(HierarchyBreakdown, match="x = -1 "):
            build_grid(coeffs, 2.5, 1001, origin=1.0, direction=-1)

    def test_s0_strictly_increasing(self):
        grid = build_grid(coefficients("0.5 - x^2 + 0.5*x^4"), 1.9, 1001,
                          origin=1.0, direction=-1)
        assert np.all(np.diff(s0_of(grid)) > 0)

    def test_quadrature_order(self):
        # the S₀ rule the tests use, the cumulative integral of the grid's
        # slope: doubling nodes cuts its error at least 4x for a smooth
        # quartic against a scalar adaptive reference (coarse grids, so the
        # error sits well above the rounding floor)
        from test_numerics import adaptive_integral
        coeffs = coefficients("0.5*x^2 + x^4")
        speed = lambda y: np.sqrt(2 * _horner(coeffs, y))

        def exact(x):
            return adaptive_integral(speed, 0.0, x, tol=1e-15)

        errs = []
        for n in (17, 33):
            grid = build_grid(coeffs, 3.0, n)
            ref = np.array([exact(x) for x in grid.nodes])
            errs.append(np.max(np.abs(s0_of(grid) - ref)))
        assert errs[0] / errs[1] >= 4.0

    def test_grad_consistency(self):
        # (finite-difference dS₀/da)² = 2v at interior nodes
        from trajquad.numerics import derivative
        grid = build_grid(coefficients("0.5*x^2 + 0.1*x^4"), 2.5, 2001)
        fd = derivative(s0_of(grid), grid.arc)
        grad2 = slope(grid) ** 2
        rel = np.abs(fd[2:-2] ** 2 - grad2[2:-2]) / grad2[2:-2].max()
        assert np.max(rel) < 1e-6

    def test_kink_between_nodes(self, monkeypatch):
        # v = ⅛x²(x-2)² has its double zero at x = 2, between nodes 1333
        # and 1334.  The build evaluates P at the 2001 nodes and its two
        # critical points; the grid scan this replaced evaluated 12,007
        # points, so points are counted, not calls
        points = []
        horner = trajectory._horner
        monkeypatch.setattr(trajectory, "_horner", lambda c, z:
                            points.append(np.size(z)) or horner(c, z))
        nodes = np.linspace(0.0, 3.0, 2001)
        assert nodes[1333] < 2.0 < nodes[1334]
        with pytest.raises(HierarchyBreakdown, match="x = 2 "):
            build_grid(coefficients("0.5*x^2 - 0.5*x^3 + 0.125*x^4"),
                       3.0, 2001)
        assert sum(points) < 20_000
        with pytest.raises(HierarchyBreakdown, match="x = -2 "):
            build_grid(coefficients("0.5*x^2 + 0.5*x^3 + 0.125*x^4"), 3.0,
                       2001, direction=-1)

    def test_kink_on_last_node(self):
        # the double zero at x = 2 is the last node
        with pytest.raises(HierarchyBreakdown, match="x = 2 "):
            build_grid(coefficients("0.5*x^2 - 0.5*x^3 + 0.125*x^4"),
                       2.0, 2001)

    def test_positive_minimum_is_not_a_kink(self):
        # v = x²(½ - ½x + 0.13x²) dips to a positive minimum near x = 2
        grid = build_grid(coefficients("0.5*x^2 - 0.5*x^3 + 0.13*x^4"),
                          3.0, 2001)
        assert slope(grid)[1:].min() > 0.0

    @pytest.mark.parametrize("text, x_max", [
        # on 2.5, P spans 68 decades and rises throughout: no critical point
        ("0.5*x^2 + x^171", 2.5),
        # P/a² has its zeros on the imaginary axis, ±i for ½x²(1 + x²)³,
        # whose computed real parts sit a rounding error off 0
        ("0.5*x^2 + 0.25*x^4 + 0.01*x^6", 2.5),
        ("0.5*x^2 + 1.5*x^4 + 1.5*x^6 + 0.5*x^8", 2.5),
        # P ≈ 1e-14 at the end is below the slack, but still rising to its
        # maximum at a = 1 before the double zero at 2
        ("0.5*x^2 - 0.5*x^3 + 0.125*x^4", 1e-7),
    ])
    def test_rising_potential_has_no_kink(self, text, x_max):
        grid = build_grid(coefficients(text), x_max, 2001)
        assert slope(grid)[1:].min() > 0.0

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            build_grid(harmonic(), 1.0, 8)


class TestKinkRule:
    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.1, 10.0), frac=st.floats(0.1, 1.0),
           x_max=st.floats(0.5, 4.0), direction=st.sampled_from((1, -1)))
    def test_double_zero_on_the_path_is_refused(self, c, frac, x_max, direction):
        # v = c·x²(x - a₀)², a₀ ahead of the origin within x_max (on the last
        # node when frac = 1)
        a0 = direction * frac * x_max
        coeffs = np.array([0.0, 0.0, c * a0 * a0, -2.0 * c * a0, c])
        with pytest.raises(HierarchyBreakdown):
            build_grid(coeffs, x_max, 401, direction=direction)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.1, 10.0), frac=st.floats(0.1, 1.0),
           x_max=st.floats(0.5, 4.0), direction=st.sampled_from((1, -1)),
           m=st.floats(1e-6, 1.0), beyond=st.floats(1.1, 3.0))
    def test_positive_dip_or_zero_beyond_is_accepted(self, c, frac, x_max,
                                                     direction, m, beyond):
        # v = x²(c(x - a₀)² + m) with m ≥ 1e-6 dips but stays positive; with
        # m = 0 and |a₀| ≥ 1.1·x_max its double zero lies past the grid
        for a0, dip in ((direction * frac * x_max, m),
                        (direction * beyond * x_max, 0.0)):
            coeffs = np.array([0.0, 0.0, c * a0 * a0 + dip, -2.0 * c * a0, c])
            grid = build_grid(coeffs, x_max, 401, direction=direction)
            assert slope(grid)[1:].min() > 0.0
