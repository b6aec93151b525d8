"""Record the reference output hashes of every exact job the workloads can draw.

Run from the root of a checkout, on the commit whose exact outputs are
the reference (exact commands must stay byte-identical afterwards):

    python3 bench/record_references.py

Writes ``bench/references.json``: argv string -> sha256 of the output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads
from run import REFERENCES, call_cli, load_cli


def main() -> int:
    cli_main = load_cli(Path.cwd() / "src")
    refs = {}
    for job in workloads.exact_jobs():
        rc, out, err = call_cli(cli_main, job.argv)
        if rc != 0:
            print(f"{job.key}: exit {rc}: {err.strip()}", file=sys.stderr)
            return 1
        refs[job.key] = checks.digest(out)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"{len(refs)} reference hashes written to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
