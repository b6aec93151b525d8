"""Brute-force eigensolver: ladder values, Sturm counts, convergence order."""

import numpy as np
import pytest

from trajquad.errors import DomainTooSmall
from trajquad.oracle import (_inverse_iteration, solve_1d, solve_radial,
                             sturm_count)


class TestSolve1D:
    def test_harmonic_ground_state(self):
        res = solve_1d(lambda x: 0.5 * x * x, (-8, 8), 1200, 1)
        assert res.value(0) == pytest.approx(0.5, abs=1e-6)

    def test_harmonic_ladder(self):
        res = solve_1d(lambda x: 0.5 * x * x, (-8, 8), 1200, 3)
        assert res.eigenvalues[1] == pytest.approx(1.5, abs=1e-6)
        assert res.eigenvalues[2] == pytest.approx(2.5, abs=1e-6)
        spacings = np.diff(res.eigenvalues)
        assert np.allclose(spacings, 1.0, atol=1e-6)

    def test_eigenvalues_strictly_increasing(self):
        res = solve_1d(lambda x: 0.5 * x * x + 0.05 * x ** 4, (-7, 7), 800, 4)
        assert np.all(np.diff(res.eigenvalues) > 0)

    def test_convergence_estimates_positive(self):
        res = solve_1d(lambda x: 0.5 * x * x, (-8, 8), 400, 2)
        assert all(c > 0 for c in res.convergence)

    def test_quartic_regression_value(self):
        # recorded after the first verified run; the oscpert cross-check
        # target V = x²/2 + 0.05x⁴ at g = 1
        res = solve_1d(lambda x: 0.5 * x * x + 0.05 * x ** 4, (-7, 7), 1500, 1)
        assert res.value(0) == pytest.approx(0.5326427546, abs=1e-7)

    def test_sturm_count_matches_values(self):
        pot = lambda x: 0.5 * x * x
        res = solve_1d(pot, (-8, 8), 800, 3)
        mid = 0.5 * (res.eigenvalues[1] + res.eigenvalues[2])
        assert sturm_count(pot, (-8, 8), 800, mid) == 2
        assert sturm_count(pot, (-8, 8), 800, 0.0) == 0

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            solve_1d(lambda x: 0.5 * x * x, (-2, 2), 400, 2)

    @pytest.mark.parametrize("state", [0, 1, 2])
    def test_inverse_iteration_matches_dense_eigenvector(self, state):
        x = np.linspace(-5.0, 5.0, 300)
        h = x[1] - x[0]
        diag = 1.0 / h ** 2 + 0.5 * x * x + 0.05 * x ** 4
        off = -0.5 / h ** 2
        values, vectors = np.linalg.eigh(np.diag(diag) + off * np.eye(300, k=1)
                                         + off * np.eye(300, k=-1))
        want = vectors[:, state] * np.sign(vectors[150, state] or 1.0)
        got = _inverse_iteration(diag, off, values[state])
        got = got * np.sign(got[150] or 1.0)
        assert np.max(np.abs(got - want)) < 1e-10
        # the edge amplitudes the domain check reads, to a relative 1e-6
        assert got[[0, -1]] == pytest.approx(want[[0, -1]], rel=1e-6)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            solve_1d(lambda x: 0.5 * x * x, (-8, 8), 100, 1)


class TestSolveRadial:
    def test_pure_coulomb(self):
        res = solve_radial(1.0, lambda r: r * r, 0.0, 25.0, 1200)
        assert res.value(0) == pytest.approx(-0.5, abs=1e-6)

    def test_scaled_coulomb(self):
        # E_c = -g⁴/2
        res = solve_radial(1.2, lambda r: 0.0, 0.0, 20.0, 1200)
        assert res.value(0) == pytest.approx(-0.5 * 1.2 ** 4, abs=2e-6)

    def test_perturbed_matches_series_value(self):
        res = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 2500)
        series = -0.5 + 3e-3 - 129 / 4 * 1e-6 + 5451 / 4 * 1e-9
        assert res.value(0) == pytest.approx(series, abs=5e-7)

    def test_h2_convergence_ratio(self):
        # the Richardson bracket |E(2n)-E(n)|/3 scales like h²
        lo = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 800)
        hi = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 1600)
        ratio = lo.convergence[0] / hi.convergence[0]
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_small_box_rejected(self):
        with pytest.raises(DomainTooSmall):
            solve_radial(1.0, lambda r: 0.0, 0.0, 3.0, 400)
