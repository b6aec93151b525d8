"""Brute-force eigensolver: ladder values, Sturm counts, Newton passes,
convergence order, count reuse against the full-interval bisection."""

import json
import math

import numpy as np
import pytest

from trajquad import oracle
from trajquad.cli import main
from trajquad.errors import DomainTooSmall
from trajquad.oracle import (_bisect_eigenvalues, _dirichlet, _eigenvector,
                             _newton_pass, _pivots, _sturm_count, solve_1d,
                             solve_radial)


def sturm_count(potential, domain: tuple, n: int, lam: float) -> int:
    """Eigenvalue count below lam of the oracle's n-node Dirichlet matrix."""
    diag, h = _dirichlet(potential, float(domain[0]), float(domain[1]), n)
    return _sturm_count(diag.tolist(), (0.5 / h ** 2) ** 2, lam)


def full_interval_bisection(diag, off: float, k: int, guesses=(),
                            width: float = 1e-12) -> list:
    """The reference bisection: every eigenvalue from the full Gershgorin
    interval to ``width`` (abs + rel), one Sturm count of the oracle per
    step, no count reused and no guess used."""
    off2 = off * off
    dlist = diag.tolist()
    radius = 2.0 * abs(off)
    lo0 = float(np.min(diag)) - radius
    hi0 = float(np.max(diag)) + radius
    values = []
    for idx in range(k):
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if oracle._sturm_count(dlist, off2, mid) >= idx + 1:
                hi = mid
            else:
                lo = mid
            if hi - lo <= width * (1.0 + abs(mid)):
                break
        values.append(0.5 * (lo + hi))
    return values


def nudged_sturm_count(diag, off2: float, lam: float) -> int:
    """The count loop with a zero test on every row: an exact zero pivot
    becomes 1e-300 and is not counted."""
    count = 0
    q = math.inf
    for d in diag:
        q = d - lam - off2 / q
        if q == 0.0:
            q = 1e-300
        elif q < 0.0:
            count += 1
    return count


def nudged_newton_pass(diag, off2: float, lam: float) -> tuple:
    """The Newton pass with the same per-row zero test."""
    count = 0
    q = math.inf
    u = total = 0.0
    for d in diag:
        r = off2 / q
        q = d - lam - r
        if q == 0.0:
            q = 1e-300
        elif q < 0.0:
            count += 1
        u = (r * u - 1.0) / q
        total += u
    return count, (lam - 1.0 / total if total else math.nan)


class TestSolve1D:
    def test_harmonic_ground_state(self):
        res = solve_1d(lambda x: 0.5 * x * x, (-8, 8), 1200, 1)
        assert res.eigenvalues[0] == pytest.approx(0.5, abs=1e-6)

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
        assert res.eigenvalues[0] == pytest.approx(0.5326427546, abs=1e-7)

    def test_sturm_count_matches_values(self):
        pot = lambda x: 0.5 * x * x
        res = solve_1d(pot, (-8, 8), 800, 3)
        mid = 0.5 * (res.eigenvalues[1] + res.eigenvalues[2])
        assert sturm_count(pot, (-8, 8), 800, mid) == 2
        assert sturm_count(pot, (-8, 8), 800, 0.0) == 0

    def test_sturm_count_scalar_potential(self):
        # V = 0 returned as one scalar: the free box, whose eigenvalues are
        # (1/h²)(1 - cos(jπ/(n+1))), j = 1..n
        n, length = 300, 4.0
        h = length / (n + 1)
        box = [(1.0 - np.cos(j * np.pi / (n + 1))) / h ** 2 for j in (2, 3)]
        assert sturm_count(lambda x: 0.0, (0, length), n, sum(box) / 2) == 2
        assert sturm_count(lambda x: 0.0, (0, length), n, 0.0) == 0

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            solve_1d(lambda x: 0.5 * x * x, (-2, 2), 400, 2)

    def test_edge_check_at_its_bound(self):
        # the fine grid's ground state ends at 1.6e-8 of its peak in the box
        # of half width 5.6 and at 9.4e-9 in that of 5.7, either side of
        # the 1e-8 bound
        pot = lambda x: 0.5 * x * x
        with pytest.raises(DomainTooSmall,
                           match="edge amplitude 1.16e-09 of peak 7.25e-02"):
            solve_1d(pot, (-5.6, 5.6), 600, 1)
        res = solve_1d(pot, (-5.7, 5.7), 600, 1)
        assert res.eigenvalues[0] == pytest.approx(0.5, abs=1e-6)
        diag, h = _dirichlet(pot, -5.7, 5.7, 1200)
        off = -0.5 / h ** 2
        lam = _bisect_eigenvalues(diag, off, 1)[0]
        u = np.abs(_eigenvector(diag, off, lam))
        assert max(u[0], u[-1]) / np.max(u) == pytest.approx(9.4e-9, rel=0.01)

    @pytest.mark.parametrize("state", [0, 1, 2, 3])
    def test_eigenvector_matches_dense_eigenvector(self, state):
        x = np.linspace(-5.0, 5.0, 300)
        h = x[1] - x[0]
        diag = 1.0 / h ** 2 + 0.5 * x * x + 0.05 * x ** 4
        off = -0.5 / h ** 2
        values, vectors = np.linalg.eigh(np.diag(diag) + off * np.eye(300, k=1)
                                         + off * np.eye(300, k=-1))
        want = vectors[:, state] * np.sign(vectors[150, state] or 1.0)
        got = _eigenvector(diag, off, values[state])
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
        assert res.eigenvalues[0] == pytest.approx(-0.5, abs=1e-6)

    def test_scaled_coulomb(self):
        # E_c = -g⁴/2
        res = solve_radial(1.2, lambda r: 0.0, 0.0, 20.0, 1200)
        assert res.eigenvalues[0] == pytest.approx(-0.5 * 1.2 ** 4, abs=2e-6)

    def test_perturbed_matches_series_value(self):
        res = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 2500)
        series = -0.5 + 3e-3 - 129 / 4 * 1e-6 + 5451 / 4 * 1e-9
        assert res.eigenvalues[0] == pytest.approx(series, abs=5e-7)

    def test_h2_convergence_ratio(self):
        # the Richardson bracket |E(2n)-E(n)|/3 scales like h²
        lo = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 800)
        hi = solve_radial(1.0, lambda r: r * r, 1e-3, 25.0, 1600)
        ratio = lo.convergence[0] / hi.convergence[0]
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_small_box_rejected(self):
        with pytest.raises(DomainTooSmall):
            solve_radial(1.0, lambda r: 0.0, 0.0, 3.0, 400)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_cli_reads_u_through_horner(self, eps, capsys):
        # the CLI's U is Horner on the ascending coefficients [0, 0, 1]:
        # ((0·r + 1)·r + 0)·r + 0 is r·r, so the eigenvalues are bitwise
        # those of the library called with r * r
        assert main(["--command", "oracle", "--mode", "radial",
                     "--potential", "r^2", "--eps", repr(eps),
                     "--domain", "25", "--n", "1200", "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["results"]
        want = solve_radial(1.0, lambda r: r * r, eps, 25.0, 1200)
        assert got["eigenvalues"] == list(want.eigenvalues)
        assert got["convergence"] == list(want.convergence)


class _CountingPotential:
    """Harmonic well that records the shape of every call."""

    def __init__(self):
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return 0.5 * x * x


class TestSamplesOnce:
    """Every grid samples its potential in one call on the node array."""

    def test_solve_1d(self):
        pot = _CountingPotential()
        solve_1d(pot, (-8, 8), 400, 2)
        assert pot.shapes == [(400,), (800,)]

    def test_solve_radial(self):
        pot = _CountingPotential()
        solve_radial(1.0, pot, 1e-3, 25.0, 300)
        assert pot.shapes == [(300,), (600,)]

    def test_sturm_count(self):
        pot = _CountingPotential()
        sturm_count(pot, (-8, 8), 500, 1.0)
        assert pot.shapes == [(500,)]


def solve_with(monkeypatch, bisect, solve, args):
    """solve(*args) with ``bisect`` as the oracle's bisection.

    Returns every bisection result in call order (the every-8th-row seed
    grid, the n-point grid, then the 2n-point grid), as float.hex strings,
    and then the eigenvalues with their estimates, or the DomainTooSmall
    message when the edge check fails after every grid is solved.
    """
    seen = []

    def recording(diag, off, k, guesses=(), width=1e-12):
        values = bisect(diag, off, k, guesses, width)
        seen.append([v.hex() for v in values])
        return values

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_bisect_eigenvalues", recording)
        try:
            res = solve(*args)
        except DomainTooSmall as exc:
            return seen, str(exc)
    return seen, (res.eigenvalues, res.convergence)


def rows_swept(monkeypatch, solve, args) -> int:
    """Pivot rows solve(*args) sweeps; a Newton pass counts as two sweeps.

    Every row ``_pivots`` yields counts too: the eigenvector's two sweeps
    behind the box check, and the rerun of a sweep that met a zero pivot.
    """
    rows = [0]

    def counting(diag, off2, lam):
        rows[0] += len(diag)
        return _sturm_count(diag, off2, lam)

    def newton(diag, off2, lam):
        rows[0] += 2 * len(diag)
        return _newton_pass(diag, off2, lam)

    def pivots(diag, off2, lam):
        for q in _pivots(diag, off2, lam):
            rows[0] += 1
            yield q

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_sturm_count", counting)
        patch.setattr(oracle, "_newton_pass", newton)
        patch.setattr(oracle, "_pivots", pivots)
        try:
            solve(*args)
        except DomainTooSmall:
            pass
    return rows[0]


def _harmonic(x):
    return 0.5 * x * x


def _double_well(x):
    # the two lowest levels are split by 8e-11
    return x ** 4 - 12.0 * x * x


def _square(r):
    return r * r


BISECTION_CASES = {
    "harmonic ladder": (solve_1d, (_harmonic, (-8, 8), 1200, 6)),
    "double well": (solve_1d, (_double_well, (-7, 7), 1500, 2)),
    # the fine ground level lies 2.3e-3 above the coarse one; the box is
    # too small for the edge check
    "steep well": (solve_1d, (lambda x: 500.0 * x * x, (-1, 1), 200, 1)),
    "free box": (solve_1d, (lambda x: 0.0, (0, 4), 300, 8)),
    "coulomb": (solve_radial, (1.0, _square, 0.0, 25.0, 1200)),
    "scaled coulomb": (solve_radial, (1.2, lambda r: 0.0, 0.0, 20.0, 1200)),
    "perturbed coulomb": (solve_radial, (1.0, _square, 1e-3, 25.0, 2500)),
    "perturbed coulomb 800": (solve_radial, (1.0, _square, 1e-3, 25.0, 800)),
    "perturbed coulomb 1600": (solve_radial,
                               (1.0, _square, 1e-3, 25.0, 1600)),
}

# pivot rows swept per case, the eigenvector's two sweeps per level behind
# the box check included: (plain count-reusing bisection, Newton-seeded);
# near-degenerate levels (the double well) must stay no costlier
ROWS_SWEPT = {
    "harmonic ladder": (736_800, 319_500),
    "double well": (178_500, 171_740),
    "steep well": (23_400, 8_225),
    "free box": (256_500, 92_242),
    "coulomb": (142_800, 49_650),
    "scaled coulomb": (144_000, 48_600),
    "perturbed coulomb": (287_500, 111_548),
    "perturbed coulomb 800": (93_600, 40_000),
    "perturbed coulomb 1600": (190_400, 78_800),
}


def _neighbour_level(values, lo0, hi0):
    return values[1:]


def _below_spectrum(values, lo0, hi0):
    return [lo0 - 1.0] * (len(values) - 1)


def _far_above_spectrum(values, lo0, hi0):
    return [hi0 + 1e3] * (len(values) - 1)


class TestCountReuse:
    """Seeded, count-reusing bisection against the full-interval one."""

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_bitwise_equal_to_full_interval(self, case, monkeypatch):
        solve, args = BISECTION_CASES[case]
        got = solve_with(monkeypatch, _bisect_eigenvalues, solve, args)
        want = solve_with(monkeypatch, full_interval_bisection, solve, args)
        assert len(got[0]) == 3
        assert got == want

    @pytest.mark.parametrize("wrong", [_neighbour_level, _below_spectrum,
                                       _far_above_spectrum])
    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_wrong_guesses_cost_counts_not_values(self, case, wrong,
                                                  monkeypatch):
        # every grid of the case, seeded with finite but wrong guesses
        grids = []

        def recording(diag, off, k, guesses=(), width=1e-12):
            grids.append((diag, off, k, width))
            return _bisect_eigenvalues(diag, off, k, guesses, width)

        solve_with(monkeypatch, recording, *BISECTION_CASES[case])
        assert len(grids) == 3
        for diag, off, k, width in grids:
            values = full_interval_bisection(diag, off, k + 1, (), width)
            lo0 = float(np.min(diag)) - 2.0 * abs(off)
            hi0 = float(np.max(diag)) + 2.0 * abs(off)
            guesses = tuple(wrong(values, lo0, hi0))
            got = _bisect_eigenvalues(diag, off, k, guesses, width)
            assert [v.hex() for v in got] == [v.hex() for v in values[:k]]

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_seed_width_moves_counts_not_values(self, case, monkeypatch):
        # the seed grid bisected to 1e-12 as well, as before it stopped at
        # 1e-6: its guesses move, and no other grid's value, no result and
        # no DomainTooSmall message does
        solve, args = BISECTION_CASES[case]

        def full_width(diag, off, k, guesses=(), width=1e-12):
            return _bisect_eigenvalues(diag, off, k, guesses)

        got = solve_with(monkeypatch, _bisect_eigenvalues, solve, args)
        want = solve_with(monkeypatch, full_width, solve, args)
        assert got[0][1:] == want[0][1:]
        assert got[1] == want[1]
        for seed, full in zip(*(map(float.fromhex, run[0][0])
                                for run in (got, want))):
            assert abs(seed - full) <= 1e-6 * (1.0 + abs(full))

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_rows_swept_pinned(self, case, monkeypatch):
        solve, args = BISECTION_CASES[case]
        before, after = ROWS_SWEPT[case]
        assert rows_swept(monkeypatch, solve, args) == after <= before

    def test_sturm_counts_pinned(self, monkeypatch):
        # a bench oracle-1d job sweeps 159,500 pivot rows, the eigenvector's
        # two 8000-row sweeps included: 23 counts on the 500-row seed grid,
        # 5 counts and 3 Newton passes on 4000 rows, 7 and 2 on 8000 (the
        # seed grid bisected to 1e-12 took 177,500; the plain count-reusing
        # bisection 372,000: 66 counts over 4000 and 8000 rows); the
        # full-interval bisection makes 118 counts on those two grids and,
        # stopping at the seed grid's 1e-6, 32 on the seed grid
        args = (lambda x: 18.0 * x * x + 3.6 * x ** 4, (-3, 3), 4000, 1)
        assert rows_swept(monkeypatch, solve_1d, args) == 159_500
        got = solve_1d(*args)
        calls = []

        def counting(diag, off2, lam):
            calls.append(len(diag))
            return _sturm_count(diag, off2, lam)

        monkeypatch.setattr(oracle, "_sturm_count", counting)
        monkeypatch.setattr(oracle, "_bisect_eigenvalues",
                            full_interval_bisection)
        assert solve_1d(*args) == got
        assert (calls.count(4000) + calls.count(8000), calls.count(500),
                len(calls)) == (118, 32, 150)


MONOTONE_CASES = {
    "harmonic": (_harmonic, -8.0, 8.0, 800, 3),
    "double well": (_double_well, -7.0, 7.0, 1500, 2),
    "steep well": (lambda x: 500.0 * x * x, -1.0, 1.0, 400, 1),
    "free box": (lambda x: 0.0, 0.0, 4.0, 300, 3),
    "coulomb": (lambda r: -1.0 / r + 1e-3 * r * r, 0.0, 25.0, 1200, 2),
}


def _switch(dlist, off2: float, m: int, lo: float, hi: float) -> float:
    """Bisect to adjacent floats; returns hi with count(hi) ≥ m > count(lo)."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _sturm_count(dlist, off2, mid) >= m:
            hi = mid
        else:
            lo = mid


def monotone_ladders(case) -> tuple:
    """The λ sweeps of ``test_sturm_count_is_monotone`` for one case.

    Returns the count's arguments dlist and off2, then (m, ladder) pairs:
    m = 0 with 257 λ across the Gershgorin interval plus λ = d₀, which
    zeroes the first pivot, and for each of the k lowest levels m the 65
    adjacent floats around the λ where the count first reaches m.
    """
    potential, a, b, n, k = MONOTONE_CASES[case]
    diag, h = _dirichlet(potential, a, b, n)
    off = -0.5 / h ** 2
    dlist, off2 = diag.tolist(), off * off
    radius = 2.0 * abs(off)
    sweep = sorted([float(diag[0]),
                    *np.linspace(float(np.min(diag)) - radius,
                                 float(np.max(diag)) + radius, 257)])
    ladders = [(0, [float(lam) for lam in sweep])]
    for m, value in enumerate(_bisect_eigenvalues(diag, off, k), 1):
        width = 1e-11 * (1.0 + abs(value))
        lam = _switch(dlist, off2, m, value - width, value + width)
        ladder = [lam]
        for step in (-np.inf, np.inf):
            x = lam
            for _ in range(32):
                x = float(np.nextafter(x, step))
                ladder.append(x)
        ladders.append((m, sorted(ladder)))
    return dlist, off2, ladders


@pytest.mark.parametrize("case", MONOTONE_CASES)
def test_sturm_count_is_monotone(case):
    # the property count reuse rests on: the serial count never decreases
    # as λ grows, in IEEE arithmetic (Demmel, Dhillon & Ren 1995); the
    # Newton pass counts as _sturm_count does at every λ, so a seed never
    # changes a midpoint decision
    dlist, off2, ladders = monotone_ladders(case)
    # λ = d₀ zeroes the first pivot, which takes the 1e-300 nudge
    assert 1e-300 in _pivots(dlist, off2, dlist[0])
    for m, ladder in ladders:
        counts = [_sturm_count(dlist, off2, lam) for lam in ladder]
        assert counts == sorted(counts)
        if m:
            assert counts[0] < m <= counts[-1]
        else:
            assert counts[0] == 0
        assert [_newton_pass(dlist, off2, lam)[0] for lam in ladder] == counts


def _pass_bits(result) -> tuple:
    count, iterate = result
    return count, iterate.hex()


@pytest.mark.filterwarnings("error")
class TestZeroPivotRerun:
    """The zero-test-free sweeps against loops that nudge on every row."""

    @staticmethod
    def _recording_pivots(monkeypatch) -> list:
        calls = []

        def pivots(diag, off2, lam):
            calls.append(lam)
            return _pivots(diag, off2, lam)

        monkeypatch.setattr(oracle, "_pivots", pivots)
        return calls

    @pytest.mark.parametrize("case", MONOTONE_CASES)
    def test_first_pivot_zero_reruns(self, case, monkeypatch):
        dlist, off2, _ = monotone_ladders(case)
        lam = dlist[0]
        calls = self._recording_pivots(monkeypatch)
        assert _sturm_count(dlist, off2, lam) == nudged_sturm_count(
            dlist, off2, lam)
        assert calls == [lam]
        assert _pass_bits(_newton_pass(dlist, off2, lam)) == _pass_bits(
            nudged_newton_pass(dlist, off2, lam))
        assert calls == [lam, lam]

    def test_last_pivot_zero_counts_without_rerun(self, monkeypatch):
        # the harmonic grid with its last diagonal entry set so that at
        # λ = 1.5 only the last pivot is exactly 0: the count never divides
        # by it, while the Newton pass does and reruns
        dlist, off2, _ = monotone_ladders("harmonic")
        lam = 1.5
        last = list(_pivots(dlist[:-1], off2, lam))[-1]
        dlist = dlist[:-1] + [lam + off2 / last]
        pivots = list(_pivots(dlist, off2, lam))
        assert pivots.index(1e-300) == len(dlist) - 1
        calls = self._recording_pivots(monkeypatch)
        count = _sturm_count(dlist, off2, lam)
        assert count == nudged_sturm_count(dlist, off2, lam) == 2
        assert calls == []
        assert _pass_bits(_newton_pass(dlist, off2, lam)) == _pass_bits(
            nudged_newton_pass(dlist, off2, lam))
        assert calls == [lam]

    @pytest.mark.parametrize("case", MONOTONE_CASES)
    def test_ladders_bitwise_equal(self, case):
        dlist, off2, ladders = monotone_ladders(case)
        for _, ladder in ladders:
            for lam in ladder:
                assert _sturm_count(dlist, off2, lam) == nudged_sturm_count(
                    dlist, off2, lam)
                assert _pass_bits(_newton_pass(dlist, off2, lam)) == (
                    _pass_bits(nudged_newton_pass(dlist, off2, lam)))
