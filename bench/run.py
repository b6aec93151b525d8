"""trajquad benchmark: seeded CLI job streams, checked, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload osc-series --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload grid-validate --seed 1 --trace 1
    python3 bench/run.py --workload coulomb-stark --smoke

One process drives ``trajquad.cli.main(argv)`` in-process with its output
captured, as a closed loop with one client: the next job starts when the
previous one has returned and been checked.  Jobs come from seeded decks
(see ``workloads.py``) and the run stops at the first deck boundary after
``--seconds`` seconds and at least 100 jobs.

The benchmark pins itself, and so the set-up subprocesses it starts, to
one CPU of those it may use: on a shared host the vCPUs run at different
speeds, and migrating between them moves job times by half.  Every timed
job and set-up sample is also bracketed by a machine-speed probe and
reported at reference speed (``speed.py``), which divides out what speed
swings remain.

``--trace 0`` reports the end-to-end metrics, times at reference speed:

  jobs_per_s         jobs that passed their check / summed job time
  job_s_p50          median job time
  job_s_p90          nearest-rank 90th percentile (>= 10 samples beyond it)
  setup_s            median time for a fresh interpreter to import
                     trajquad.cli (11 samples after one that warms the cache)
  peak_rss_mb        ru_maxrss of this process
  fail_frac          failed jobs / attempted jobs (printed, not gated)
  tol_margin_digits  median log10(tolerance / |error|) over the numeric
                     checks (grid-validate only; printed, not gated)

A job fails if it exits non-zero, raises, or fails its output check.  The
result's ``failed`` counts only unexpected failures: a known failure of
the seed (greens-check at g = 2 exits 3 with a consistent report) counts
in fail_frac but not in ``failed``, and ``correct`` is true when no job
failed unexpectedly.

``--trace 1`` runs every unit of the first three decks untraced, then
again with layer spans installed (``tracing.py``), checks that each
traced output is byte-identical to its untraced one, and
reports the per-layer metrics, summed over the traced jobs, plus
``trace.overhead_frac``: traced summed job time over untraced, minus one
(both at reference speed).
A fixed deck count keeps the work counts exact for a seed; ``--seconds``
does not apply.

``--smoke`` runs one deck with one set-up sample: a quick end-to-end check.

Each run writes one JSON line per job (config, exit code, wall time,
bracketing probes and time at reference speed, check outcome, output size
and hash; span tree when traced) and a summary line
to ``bench/records/<workload>-seed<n>-trace<t>.jsonl``, from which
scaling by order or grid size can be read off.  The last line printed is
the result object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import metrics
import speed
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
RECORDS = BENCH_DIR / "records"
SETUP_SAMPLES = 11
# The traced run covers a fixed number of decks, so that its work counts
# repeat exactly for a seed and compare across commits.
TRACE_DECKS = 3
SETUP_CODE = ("import sys, time\n"
              "start = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import trajquad.cli\n"
              "print(time.perf_counter() - start)\n")

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_p90": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
                    "tol_margin_digits": "digits"}
GATED = ("jobs_per_s", "job_s_p50", "job_s_p90", "setup_s", "peak_rss_mb")


class SetupError(Exception):
    """The checkout holds no runnable trajquad sources."""


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, if the platform allows it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_cli(src: Path):
    if not (src / "trajquad" / "cli.py").is_file():
        raise SetupError(f"no trajquad sources under {src}")
    sys.path.insert(0, str(src))
    import trajquad.cli
    if src.resolve() not in Path(trajquad.cli.__file__).resolve().parents:
        raise SetupError(f"imported trajquad from {trajquad.cli.__file__}, not {src}")
    return trajquad.cli.main


def measure_setup(src: Path, samples: int) -> float:
    """Median import time at reference speed; each sample is bracketed by probes."""
    times = []
    before = speed.probe()
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"importing trajquad.cli failed: {proc.stderr.strip()}")
        after = speed.probe()
        if i:
            times.append(speed.normalised(float(proc.stdout), before, after))
        before = after
    return statistics.median(times)


def call_cli(main, argv):
    """One CLI invocation with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            err.write("raised: " + traceback.format_exc())
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_unit(main, unit, deck: int, refs: dict, clock: speed.Clock,
             tracer=None) -> list:
    """Run and check the jobs of one unit back to back; one record per job."""
    records, carry = [], {}
    for job in unit:
        tree = None
        if tracer is None:
            (rc, out, err), wall, norm, probes = clock.call(call_cli, main, job.argv)
        else:
            ((rc, out, err), tree), wall, norm, probes = clock.call(
                tracer.run_job, call_cli, main, job.argv)
        outcome = checks.check(job, rc, out, err, refs, carry)
        record = {"deck": deck, "kind": job.kind, "config": job.params,
                  "argv": list(job.argv), "exit": rc, "wall_s": wall,
                  "probe_s": list(probes), "norm_s": norm,
                  "status": outcome.status, "reason": outcome.reason,
                  "margins": outcome.margins,
                  "out_bytes": len(out.encode("utf-8")),
                  "sha256": checks.digest(out)}
        if tree is not None:
            record["spans"] = tree.to_dict()
        records.append(record)
    return records


def run_stream(main, workload: str, seed: int, refs: dict, seconds: float,
               min_jobs: int) -> list:
    """Run whole decks until both the time and the job-count floor are met."""
    records, clock = [], speed.Clock()
    start = time.perf_counter()
    for deck, units in enumerate(workloads.decks(workload, seed)):
        for unit in units:
            records += run_unit(main, unit, deck, refs, clock)
        if len(records) >= min_jobs and time.perf_counter() - start >= seconds:
            return records


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_run(main, args, refs, src):
    setup_s = measure_setup(src, 1 if args.smoke else SETUP_SAMPLES)
    records = run_stream(main, args.workload, args.seed, refs,
                         seconds=0 if args.smoke else args.seconds,
                         min_jobs=0 if args.smoke else metrics.MIN_JOBS)
    summary = metrics.end_to_end(records)
    summary["setup_s"] = setup_s
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload} seed {args.seed}: {len(records)} jobs in "
          f"{records[-1]['deck'] + 1} decks, {sum(r['wall_s'] for r in records):.2f} s of jobs, "
          f"{sum(r['norm_s'] for r in records):.2f} s at reference speed")
    notes = {"job_s_p50": f"n={summary['samples']}",
             "job_s_p90": f"{summary['samples_beyond_p90']} samples beyond",
             "setup_s": f"median of {1 if args.smoke else SETUP_SAMPLES}",
             "fail_frac": "not gated", "tol_margin_digits": "not gated"}
    for name, unit in END_TO_END_UNITS.items():
        if name in summary:
            print(f"  {name:<18} {summary[name]:.6g} {unit}  {notes.get(name, '')}")
    gated = {name: _metric(summary[name], END_TO_END_UNITS[name]) for name in GATED}
    return records, gated, summary


def traced_run(main, args, refs):
    decks = 1 if args.smoke else TRACE_DECKS
    tracer, clock = Tracer(), speed.Clock()
    plain, traced = [], []
    # Each unit runs untraced and then traced, so both see the same warm
    # process and the same machine load.
    for deck, units in enumerate(itertools.islice(
            workloads.decks(args.workload, args.seed), decks)):
        for unit in units:
            plain += run_unit(main, unit, deck, refs, clock)
            uninstall = tracer.install()
            try:
                traced += run_unit(main, unit, deck, refs, clock, tracer)
            finally:
                uninstall()
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if (a["sha256"], a["exit"]) != (b["sha256"], b["exit"])]
    layer = tracer.per_layer()
    layer["cli.out_bytes"] = sum(r["out_bytes"] for r in traced)
    layer["trace.overhead_frac"] = (sum(r["norm_s"] for r in traced)
                                    / sum(r["norm_s"] for r in plain) - 1.0)
    print(f"{args.workload} seed {args.seed}: {len(traced)} jobs traced in {decks} decks; "
          f"{len(mismatched)} outputs differ from the untraced run")
    for name, value in layer.items():
        print(f"  {name:<30} {value:.6g} {layer_unit(name)}")
    per_layer = {name: _metric(value, layer_unit(name)) for name, value in layer.items()}
    return traced, per_layer, {"mismatched": mismatched}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_records(path: Path, records: list, summary: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        fh.write(json.dumps({"summary": summary}, ensure_ascii=False) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one deck and one set-up sample")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    pin_to_one_cpu()
    try:
        cli_main = load_cli(src)
        refs = checks.load_references(REFERENCES)
        for warm in workloads.warmup_argvs(args.workload):
            call_cli(cli_main, warm)
        if args.trace:
            records, result_metrics, summary = traced_run(cli_main, args, refs)
        else:
            records, result_metrics, summary = end_to_end_run(cli_main, args, refs, src)
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in records if r["status"] == "fail"]
    for r in failed[:10]:
        print(f"  FAILED {' '.join(r['argv'])}: {r['reason']}")
    correct = not failed and not summary.get("mismatched")
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": result_metrics}
    suffix = "-smoke" if args.smoke else ""
    write_records(RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.jsonl",
                  records, {**summary, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
