"""Tests of the benchmark's own arithmetic, checks and tracing.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import call_cli  # noqa: E402
from tracing import Tracer  # noqa: E402


# ------------------------------------------------------------- percentiles

def test_p90_of_one_to_hundred_is_ninety():
    assert metrics.nearest_rank(range(1, 101), 0.9) == 90
    assert metrics.nearest_rank([3.0], 0.9) == 3.0


def test_min_jobs_leaves_ten_samples_beyond_p90():
    assert metrics.beyond_rank(metrics.MIN_JOBS, metrics.P90) == 10
    assert metrics.beyond_rank(metrics.MIN_JOBS - 1, metrics.P90) < 10
    assert all(metrics.beyond_rank(n, metrics.P90) >= 10
               for n in range(metrics.MIN_JOBS, 1000))


# ---------------------------------------------------------- failure counting

def _record(status, wall=1.0, margins=()):
    return {"status": status, "norm_s": wall, "margins": list(margins)}


def test_failures_count_against_attempted_and_throughput():
    records = [_record("pass", 1.0), _record("pass", 2.0),
               _record("known-fail", 3.0), _record("fail", 4.0)]
    out = metrics.end_to_end(records)
    assert out["fail_frac"] == 0.5
    assert out["jobs_per_s"] == 2 / 10.0
    assert out["job_s_p50"] == 2.5
    assert out["samples"] == 4
    assert "tol_margin_digits" not in out


def test_margin_median_over_all_checks():
    records = [_record("pass", margins=[1.0, 3.0]), _record("fail", margins=[-1.0])]
    assert metrics.end_to_end(records)["tol_margin_digits"] == 1.0


# ------------------------------------------------------- reference speed

def test_normalised_time_scales_by_the_bracketing_probes():
    ref = speed.REFERENCE_PROBE_S
    assert speed.normalised(1.0, ref, ref) == pytest.approx(1.0)
    # a host running at 2/3 speed: the probes take 1.5x as long, so does the job
    assert speed.normalised(1.5, 1.5 * ref, 1.5 * ref) == pytest.approx(1.0)
    assert speed.normalised(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_clock_shares_the_probe_between_adjacent_calls():
    clock = speed.Clock()
    first, wall, norm, (before, after) = clock.call(sum, [1, 2])
    assert first == 3 and wall >= 0 and norm >= 0
    assert clock.call(len, [])[3][0] == after


# --------------------------------------------------------------- margins

def test_margin_digits():
    assert metrics.margin_digits(1e-6, 1e-8) == pytest.approx(2.0)
    assert metrics.margin_digits(1e-6, -1e-8) == pytest.approx(2.0)
    assert metrics.margin_digits(1e-7, 3.1e-6) == pytest.approx(-1.4914, abs=1e-4)


def test_margin_of_exact_agreement_is_float_resolution():
    margin = metrics.margin_digits(1e-12, 0.0, 0.5)
    assert math.isfinite(margin)
    assert margin == pytest.approx(math.log10(1e-12 / (0.5 * sys.float_info.epsilon)))


# ------------------------------------------------------------------ checks

def test_parse_rendered_polynomials():
    assert checks.parse_rendered("-21/8 * ĝ^5") == {(("ĝ", 5),): Fraction(-21, 8)}
    assert checks.parse_rendered("0") == {}
    two = checks.parse_rendered("81/10 * r^5 * ε^3 - 5/72 * r^9 * ε^4")
    assert two == {(("r", 5), ("ε", 3)): Fraction(81, 10),
                   (("r", 9), ("ε", 4)): Fraction(-5, 72)}
    assert checks.parse_rendered("-1/2") == {(): Fraction(-1, 2)}


def test_closed_form_of_quadratic_perturbation():
    values = [checks._even_p1_delta(k)[(("ĝ", 2 * k - 1),)] for k in (1, 2, 3, 4)]
    assert values == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(-5, 16)]


def _greens_output(residuals: dict, n: int) -> str:
    lines = ["# trajquad 0.1.0", "# config: {}",
             "identity,grid,max_residual,tolerance,pass"]
    for name, tol in checks.GREENS_TOLERANCES.items():
        res = residuals.get(name, tol / 100)
        lines.append(f"{name},{n},{res!r},{tol!r},{res < tol}")
    return "\n".join(lines) + "\n"


def test_greens_known_failure_counts_but_is_expected():
    job = workloads.greens_job(2.0, 4001)
    out = _greens_output({"dbar_hermite_l4": 3.1e-6}, 4001)
    outcome = checks.check(job, 3, out, "tolerance failure: ...", {}, {})
    assert outcome.status == "known-fail"
    assert len(outcome.margins) == len(checks.GREENS_TOLERANCES)
    assert min(outcome.margins) == pytest.approx(math.log10(1e-7 / 3.1e-6))


def test_greens_failure_of_a_passing_config_is_a_regression():
    job = workloads.greens_job(1.0, 4001)
    out = _greens_output({"dbar_hermite_l4": 3.1e-6}, 4001)
    assert checks.check(job, 3, out, "tolerance failure: ...", {}, {}).status == "fail"
    assert checks.check(job, 0, _greens_output({}, 4001), "", {}, {}).status == "pass"
    # an exit code the report does not justify
    assert checks.check(job, 3, _greens_output({}, 4001), "", {}, {}).status == "fail"


def test_exact_output_must_match_its_reference():
    job = workloads.stark_job(8, 1.0, 0.001)
    assert checks.check(job, 0, "anything\n", "", {job.key: "0" * 64}, {}).status == "fail"
    assert checks.check(job, 0, "", "", {}, {}).reason == "no reference hash for this config"


# ------------------------------------------------------------------ decks

def test_decks_are_seeded_and_stratified():
    def first(seed):
        stream = workloads.decks("grid-validate", seed)
        return [[job.argv for unit in next(stream) for job in unit] for _ in range(2)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    kinds = sorted(j.kind for u in next(workloads.decks("osc-series", 5)) for j in u)
    assert kinds == ["perturb"] * sum(len(o) for _, _, o in workloads.OSC_STRATA)


def test_every_exact_job_has_a_reference():
    refs = checks.load_references(Path(checks.__file__).with_name("references.json"))
    for workload in workloads.WORKLOADS:
        deck = next(workloads.decks(workload, 11))
        for job in (j for u in deck for j in u):
            if job.kind in ("perturb", "stark", "coulomb"):
                assert job.key in refs


# ----------------------------------------------------------------- tracing

def test_tracing_is_transparent_and_restored():
    import trajquad.cli
    import trajquad.greens
    import trajquad.numerics
    from trajquad.exactalg import MultiPoly

    original = trajquad.numerics.cumulative_integral
    original_add = MultiPoly.__add__
    argvs = [("--command", "stark", "--order", "8"),
             ("--command", "gexpand", "--potential", "0.5*x^2 + 0.1*x^4",
              "--n", "101")]
    plain = [call_cli(trajquad.cli.main, argv) for argv in argvs]
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        assert trajquad.greens.cumulative_integral is trajquad.numerics.cumulative_integral
        assert trajquad.greens.cumulative_integral is not original
        traced = [tracer.run_job(call_cli, trajquad.cli.main, argv)[0] for argv in argvs]
    finally:
        uninstall()
    assert traced == plain
    assert trajquad.numerics.cumulative_integral is original
    assert trajquad.greens.cumulative_integral is original
    assert MultiPoly.__add__ is original_add
    layer = tracer.per_layer()
    assert layer["exactalg.poly_ops"] > 0 and layer["exactalg.term_ops"] > 0
    assert layer["numerics.stencil_nodes"] > 0
    assert layer["numerics.integrand_evals"] > 0
    assert layer["trajectory.potential_evals"] > 0
    assert layer["coulomb.self_s"] > 0 and layer["cli.self_s"] > 0


# -------------------------------------------------------------- end to end

def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_result():
    proc = _run(ROOT, "--workload", "coulomb-stark", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"jobs_per_s", "job_s_p50", "job_s_p90",
                                      "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    proc = _run(tmp_path, "--workload", "osc-series", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
