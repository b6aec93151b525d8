"""The benchmark's own arithmetic: percentiles, failure shares, margins."""

from __future__ import annotations

import math
import statistics
import sys

MIN_JOBS = 100          # so that at least ten samples lie beyond p90
P90 = 0.9


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q·n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def beyond_rank(n: int, q: float) -> int:
    """How many of n samples rank strictly beyond the nearest-rank q-quantile."""
    return n - max(math.ceil(q * n), 1)


def margin_digits(tolerance: float, error: float, scale: float = 1.0) -> float:
    """log10(tolerance / |error|) in decimal digits.

    An error below the float resolution of ``scale`` (the compared value)
    cannot be told from zero, so it counts as that resolution.
    """
    floor = sys.float_info.epsilon * max(abs(scale), sys.float_info.min)
    return math.log10(tolerance / max(abs(error), floor))


def end_to_end(records: list) -> dict:
    """Job metrics of one run from its job records (dicts with norm_s, status).

    Times are the jobs' times at reference speed (``speed.normalised``).
    """
    times = [r["norm_s"] for r in records]
    passed = sum(r["status"] == "pass" for r in records)
    margins = [m for r in records for m in r["margins"]]
    out = {
        "jobs_per_s": passed / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_p90": nearest_rank(times, P90),
        "fail_frac": (len(records) - passed) / len(records),
        "samples": len(records),
        "samples_beyond_p90": beyond_rank(len(records), P90),
    }
    if margins:
        out["tol_margin_digits"] = statistics.median(margins)
    return out
