"""The JSON writer: the bytes of json.dumps(indent=2, sort_keys=True).

``cli._json`` hands each list of scalars to the C encoder.  The reference
here is the pure-Python encoder's own call, on random documents and on
every document the commands emit (README examples, the benchmark's grid
draws, the oracle and greens-check reports).
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajquad import __version__, cli

from test_cli import readme_examples

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def reference(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=True, allow_infinity=True), st.text())
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_json_dumps(document):
    assert cli._json(document) == reference(document)


@pytest.mark.parametrize("document", [
    [], {}, [[]], [{}], {"a": []}, (), ((),),
    # a list that starts with a number and later holds a string, whose
    # ", " must not become a line break, or a container
    [1.5, "a, b"], [0, "x"], [2, [3, 4]], [2.5, {"k, v": [1, 2]}],
    [None, True, "[", "{"],
    # a list of lists, like gexpand's s_terms
    [[1.0, 2.0], [3.0, -0.0]], [[], [1]], [(1, 2), [3]],
    [math.nan, math.inf, -math.inf, 1e-320, 10 ** 30, -7],
    {"é": "ü ", "b": [1, 2], "a": {"z": None, "y": [0.1, "q"]}},
])
def test_writer_edge_cases(document):
    assert cli._json(document) == reference(document)


@pytest.fixture
def emit(monkeypatch):
    """Run cli.main(argv): (exit code, stdout, config, payload) it wrote."""
    seen = []
    write = cli._write

    def spy(out, fmt, config, payload, lines):
        seen.append((config, payload))
        write(out, fmt, config, payload, lines)

    monkeypatch.setattr(cli, "_write", spy)

    def run(argv):
        seen.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert len(seen) == 1, argv
        return (code, out.getvalue(), *seen[0])

    return run


def assert_json_bytes(emit, argv):
    code, text, config, payload = emit([*argv, "--format", "json"])
    assert code == 0, argv
    document = {"version": __version__, "config": config.to_dict(),
                "results": payload}
    assert text == reference(document) + "\n", argv


def test_readme_examples_emit_json_dumps_bytes(emit):
    for argv in readme_examples():
        assert_json_bytes(emit, argv)


def _grid_jobs():
    """Every job of the first grid-validate deck of seeds 1 and 2."""
    for seed in (1, 2):
        deck = next(workloads.decks("grid-validate", seed))
        yield from (job for unit in deck for job in unit)


def test_grid_draws_emit_json_dumps_bytes(emit):
    # gexpand at n = 2001, 4001 and 8001, the 1-D and radial oracles,
    # coulomb and greens-check, each written as JSON
    jobs = list(_grid_jobs())
    assert {job.params.get("n") for job in jobs if job.kind == "gexpand"} \
        == set(workloads.GEXPAND_N)
    assert {job.kind for job in jobs} \
        == {"gexpand", "oracle-1d", "oracle-radial", "coulomb", "greens"}
    for job in jobs:
        assert_json_bytes(emit, job.argv)


def test_gexpand_csv_table_is_the_row_by_row_join(emit):
    for job in _grid_jobs():
        if job.kind != "gexpand":
            continue
        code, text, _, payload = emit([*job.argv, "--format", "csv"])
        assert code == 0
        rows = [",".join(map(repr, row))
                for row in zip(payload["nodes"], *payload["s_terms"])]
        lines = text.splitlines()
        assert lines[-len(rows) - 1] == "x,S_1,S_2,S_3"
        assert lines[-len(rows):] == rows
