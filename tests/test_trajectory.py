"""Trajectory grids: S₀ quadrature, kinks, convergence order."""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from trajquad.errors import DegenerateMinimum, InvalidPotential
from trajquad.gexpand import hierarchy
from trajquad.trajectory import Potential1D, build_grid


def harmonic(nu2: float = 1.0):
    return Potential1D.from_poly(f"{nu2 / 2}*x^2")


class TestPotential:
    def test_from_poly_derivatives(self):
        pot = Potential1D.from_poly("0.5*x^2 + 0.1*x^4")
        assert pot.v(2.0) == pytest.approx(2.0 + 1.6)
        assert pot.dv(2.0) == pytest.approx(2.0 + 3.2)
        assert pot.d2v(2.0) == pytest.approx(1.0 + 4.8)
        assert len(pot.derivatives) == 3
        assert pot.coeffs == (0.0, 0.0, 0.5, 0.0, 0.1)

    @pytest.mark.parametrize("degree", [4, 9, 10, 171])
    def test_poly_stack_depth_is_fixed(self, degree):
        # v, v', v'' at any degree: the hierarchy reads the coefficients,
        # and the grid no derivative past v''.  A stack as deep as the
        # degree overflowed its derivative coefficients at degree 171, a
        # RuntimeWarning (an error under the test settings)
        pot = Potential1D.from_poly(f"0.5*x^2 + x^{degree}")
        assert len(pot.derivatives) == 3
        coeffs = np.zeros(degree + 1)
        coeffs[2], coeffs[degree] = 0.5, 1.0
        x = np.linspace(-0.5, 0.5, 11)
        for m, fn in enumerate(pot.derivatives):
            assert np.array_equal(fn(x), npoly.polyval(x, npoly.polyder(coeffs, m)))

    def test_high_degree_hierarchy_runs(self):
        # gexpand --potential "0.5*x^2+x^171" --x-max 0.5 --n 201
        pot = Potential1D.from_poly("0.5*x^2 + x^171")
        sol = hierarchy(build_grid(pot, 0.5, 201), 3)
        assert np.isfinite(sol.e_terms).all()

    def test_rejects_non_x_symbols(self):
        # a potential in the wrong variable is an input error, not a
        # breakdown of the method
        with pytest.raises(ValueError):
            Potential1D.from_poly("r^2")


class TestBuildGrid:
    def test_harmonic_action(self):
        grid = build_grid(harmonic(), 3.0, 1201)
        assert np.max(np.abs(grid.s0 - grid.nodes ** 2 / 2)) < 1e-10
        assert np.all(grid.speed == np.sqrt(2.0 * np.array(
            [grid.potential.v(x) for x in grid.nodes])))
        assert grid.nu == pytest.approx(1.0)

    def test_s0_is_computed_on_first_read(self, monkeypatch):
        # no command reads S₀, so building a grid runs no quadrature; the
        # first read runs it once and later reads return the same array
        from trajquad import trajectory
        calls = []
        panels = trajectory.adaptive_panels
        monkeypatch.setattr(trajectory, "adaptive_panels",
                            lambda *a, **kw: calls.append(1) or panels(*a, **kw))
        grid = build_grid(Potential1D.from_poly("0.5*x^2 + 0.1*x^4"), 2.5, 401)
        assert calls == []
        s0 = grid.s0
        assert calls == [1] and grid.s0 is s0

    def test_negative_potential_rejected(self):
        pot = Potential1D.from_poly("0.5*x^2 - 0.2*x^4")
        with pytest.raises(InvalidPotential):
            build_grid(pot, 3.0, 801)

    def test_degenerate_minimum_rejected(self):
        with pytest.raises(DegenerateMinimum):
            build_grid(Potential1D.from_poly("x^4"), 2.0, 401)
        # DegenerateMinimum is a kind of InvalidPotential
        with pytest.raises(InvalidPotential):
            build_grid(Potential1D.from_poly("x^4"), 2.0, 401)

    def test_double_well_closed_form(self):
        # v = ½(x²-1)², trajectory from the minimum at x = 1 going left:
        # S₀(x) = |x³/3 - x + 2/3| down to the kink at x = -1 where the
        # other hump peaks; past it the inner lobe 4/3 has accumulated
        pot = Potential1D.from_poly("0.5 - x^2 + 0.5*x^4", origin=1.0)
        grid = build_grid(pot, 2.5, 1001, direction=-1)
        x = grid.nodes
        expect = np.where(x >= -1.0,
                          np.abs(x ** 3 / 3 - x + 2.0 / 3.0),
                          4.0 / 3.0 + np.abs(x ** 3 / 3 - x - 2.0 / 3.0))
        assert np.max(np.abs(grid.s0 - expect)) < 1e-9 * max(1, expect.max())
        kink_x = grid.nodes[grid.kinks]
        assert len(grid.kinks) == 1
        assert kink_x[0] == pytest.approx(-1.0, abs=1e-12)

    def test_s0_strictly_increasing(self):
        pot = Potential1D.from_poly("0.5 - x^2 + 0.5*x^4", origin=1.0)
        grid = build_grid(pot, 2.5, 1001, direction=-1)
        assert np.all(np.diff(grid.s0) > 0)

    def test_quadrature_order(self):
        # fixed per-panel rule (no refinement) on the grid's nodes: doubling
        # nodes cuts the S₀ error at least 4x for a smooth quartic with
        # known integral (coarse grids, so the error sits well above the
        # rounding floor)
        from test_numerics import adaptive_integral
        from trajquad.numerics import adaptive_panels
        pot = Potential1D.from_poly("0.5*x^2 + x^4")

        def exact(x):
            return adaptive_integral(
                lambda y: np.sqrt(2 * pot.v(y)), 0.0, x, tol=1e-15)

        errs = []
        for n in (17, 33):
            nodes = build_grid(pot, 3.0, n).nodes
            panels = adaptive_panels(lambda y: np.sqrt(2 * pot.v(y)), nodes,
                                     max_depth=0)
            s0 = np.concatenate(([0.0], np.cumsum(panels)))
            ref = np.array([exact(x) for x in nodes])
            errs.append(np.max(np.abs(s0 - ref)))
        assert errs[0] / errs[1] >= 4.0

    def test_grad_consistency(self):
        # (finite-difference dS₀/da)² = 2v at interior nodes
        from trajquad.numerics import derivative
        pot = Potential1D.from_poly("0.5*x^2 + 0.1*x^4")
        grid = build_grid(pot, 2.5, 2001)
        fd = derivative(grid.s0, grid.arc)
        grad2 = grid.speed ** 2
        rel = np.abs(fd[2:-2] ** 2 - grad2[2:-2]) / grad2[2:-2].max()
        assert np.max(rel) < 1e-6

    def test_kink_between_nodes(self):
        # v = ⅛x²(x-2)² has its double zero at x = 2, between nodes 1333
        # and 1334.  The build evaluates v at 12,007 points in 10 calls; a
        # panel rule that kept refining (tol=1e-16 on these nodes) evaluates
        # 4.87 M points in 800 calls, so points are counted, not calls
        pot = Potential1D.from_poly("0.5*x^2 - 0.5*x^3 + 0.125*x^4")
        points = []

        def v(x):
            points.append(np.size(x))
            return pot.v(x)

        counted = dataclasses.replace(
            pot, derivatives=(v,) + pot.derivatives[1:])
        grid = build_grid(counted, 3.0, 2001)
        assert grid.kinks == [1334]
        assert grid.nodes[1333] < 2.0 < grid.nodes[1334]
        assert sum(points) < 20_000
        mirrored = build_grid(Potential1D.from_poly(
            "0.5*x^2 + 0.5*x^3 + 0.125*x^4"), 3.0, 2001, direction=-1)
        assert mirrored.kinks == [1334]

    def test_kink_on_last_node(self):
        # the double zero at x = 2 is the last node
        pot = Potential1D.from_poly("0.5*x^2 - 0.5*x^3 + 0.125*x^4")
        grid = build_grid(pot, 2.0, 2001)
        assert grid.kinks == [2000]

    def test_positive_minimum_is_not_a_kink(self):
        # v = x²(½ - ½x + 0.13x²) dips to a positive minimum near x = 2
        pot = Potential1D.from_poly("0.5*x^2 - 0.5*x^3 + 0.13*x^4")
        grid = build_grid(pot, 3.0, 2001)
        assert grid.kinks == []

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            build_grid(harmonic(), 1.0, 8)
