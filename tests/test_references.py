"""Byte identity of every exact benchmark output against its recorded hash.

``bench/references.json`` maps the argv of each exact job the benchmark
can draw (perturb, stark, coulomb; ``bench/workloads.exact_jobs``) to the
sha256 of its stdout.  This replays each distinct argv through
``cli.main`` in-process and compares; ``bench/`` is only read.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from trajquad import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _stdout_digest(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_exact_outputs_match_reference_hashes():
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    jobs = {job.key: job.argv for job in workloads.exact_jobs()}
    assert set(jobs) == set(refs)
    differ = []
    for key, argv in jobs.items():
        rc, digest = _stdout_digest(argv)
        if rc != 0 or digest != refs[key]:
            differ.append(f"{key}: exit {rc}")
    assert not differ, f"{len(differ)} of {len(jobs)} differ: {differ[:5]}"
