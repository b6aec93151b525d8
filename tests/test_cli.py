"""CLI: config validation, round-trip, exit codes, golden files."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajquad.cli import _COMMANDS, _PARAMS, RunConfig, main
from trajquad.errors import ConfigError
from trajquad.greens import identity_report

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
SRC = Path(__file__).parents[1] / "src"

# values the README's example comments quote, by command
README_VALUES = {"perturb": ("3/4 * ĝ^2", "-21/8 * ĝ^5"),
                 "stark": ("-9/4 * ε^2", "-3555/64 * ε^4")}

_VALUES = st.one_of(
    st.none(), st.text(max_size=8), st.integers(), st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 10 ** 400,
                     -1, 0, 1, 2.5, "1", "2.5", "1e400", "nan", "-inf", "even",
                     "1d", "r^2", "0.5*x^2"]))


def parse_config_echo(text: str) -> RunConfig:
    """Recover the RunConfig from an emitted CSV or JSON document."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return RunConfig.from_dict(json.loads(stripped)["config"])
    for line in text.splitlines():
        if line.startswith("# config: "):
            return RunConfig.from_dict(json.loads(line[len("# config: "):]))
    raise ConfigError("no config echo found")


def readme_examples() -> list:
    """The argv of every ``trajquad`` example in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("## Command line")[1]
    lines = section.split("\n## ")[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("trajquad ")]


def _config_file(content: bytes):
    """An argv builder that reads a config file holding ``content``."""
    def argv(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        return ["--config", str(cfg)]
    return argv


@st.composite
def run_configs(draw):
    """A command with parameters drawn mostly from its own keys."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    keys = draw(st.lists(st.sampled_from(sorted(_COMMANDS[command][1])),
                         max_size=7, unique=True))
    stray = draw(st.one_of(st.just(()), st.just(()), st.just(()),
                           st.tuples(st.sampled_from(sorted(_PARAMS))),
                           st.tuples(st.text(max_size=6))))
    return command, {key: draw(_VALUES) for key in (*keys, *stray)}


class TestRunConfig:
    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig("frobnicate", {})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig("stark", {"order": 12, "wibble": 3})

    def test_range_check(self):
        with pytest.raises(ConfigError):
            RunConfig("gexpand", {"potential": "0.5*x^2", "order": 9})
        with pytest.raises(ConfigError):
            RunConfig("oracle", {"potential": "0.5*x^2", "n": 10})

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            RunConfig("perturb", {"parity": "even"})

    def test_defaults_filled(self):
        cfg = RunConfig("stark", {})
        assert cfg.parameters["order"] == 12
        assert cfg.parameters["g"] == 1.0

    def test_roundtrip_dict(self):
        cfg = RunConfig("perturb", {"parity": "even", "p": 2, "order": 2})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(run_configs())
    def test_fuzzed_parameters_construct_or_raise_config_error(self, case):
        command, params = case
        try:
            cfg = RunConfig(command, params)
        except ConfigError:
            return
        for key, value in cfg.parameters.items():
            assert value is not None
            if isinstance(value, float):
                assert value == value and abs(value) != float("inf")


class TestMain:
    def test_perturb_csv(self, tmp_path, capsys):
        out = tmp_path / "perturb.csv"
        code = main(["--command", "perturb", "--parity", "even", "--p", "2",
                     "--order", "2", "--g", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert '1,"3/4 * ĝ^2",0.75' in text
        assert '2,"-21/8 * ĝ^5",-2.625' in text

    def test_config_echo_roundtrip(self, tmp_path):
        out = tmp_path / "stark.csv"
        assert main(["--command", "stark", "--order", "4",
                     "--out", str(out)]) == 0
        echoed = parse_config_echo(out.read_text())
        assert echoed == RunConfig("stark", {"order": 4})

    def test_second_call_echoes_only_its_own_flags(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.csv"
        assert main(["--command", "stark", "--order", "4", "--format", "json",
                     "--g", "2", "--out", str(first)]) == 0
        assert main(["--command", "stark", "--order", "4",
                     "--out", str(second)]) == 0
        assert parse_config_echo(first.read_text()).parameters["g"] == 2
        assert not second.read_text().startswith("{")
        assert parse_config_echo(second.read_text()) == \
            RunConfig("stark", {"order": 4})

    def test_json_document(self, tmp_path):
        out = tmp_path / "stark.json"
        assert main(["--command", "stark", "--order", "6", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["order"] == 6
        assert doc["results"]["e_terms"][6] == "-9/4 * ε^2"
        assert parse_config_echo(out.read_text()).parameters["order"] == 6

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"command": "perturb", "parity": "odd", "p": 0, "order": 2}))
        out = tmp_path / "odd.csv"
        assert main(["--config", str(cfg_path), "--order", "4",
                     "--out", str(out)]) == 0
        assert parse_config_echo(out.read_text()).parameters["order"] == 4

    def test_oracle_harmonic(self, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["--command", "oracle", "--potential", "0.5*x^2",
                     "--n", "400", "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[-1]
        assert abs(float(row.split(",")[1]) - 0.5) < 1e-5

    def test_excited_table(self, tmp_path):
        out = tmp_path / "excited.csv"
        assert main(["--command", "excited", "--freqs", "1,2",
                     "--occupations", "2,0;0,1;1,1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[2] == "occupation,E0,E1,chi0,chi1,multiplet"
        # (2,0) and (0,1) share an E0=2 multiplet
        assert lines[3].endswith(",0") and lines[4].endswith(",0")
        assert lines[5].endswith(",1")

    def test_excited_q_names_collate_by_name(self, capsys):
        # q10 and q11 sort between q1 and q2, so χ's exponents follow the
        # names' collation, not the frequencies' order
        assert main(["--command", "excited", "--freqs", ",".join(["1"] * 11),
                     "--occupations",
                     "0,0,0,0,0,0,0,0,0,2,1;2,0,0,0,0,0,0,0,0,0,3"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "occupation,E0,E1,chi0,chi1,multiplet",
            '"0,0,0,0,0,0,0,0,0,2,1",3,0,"q10^2 * q11","-1/2 * q11",0',
            '"2,0,0,0,0,0,0,0,0,0,3",5,0,"q1^2 * q11^3",'
            '"-1/2 * q11^3 - 3/2 * q1^2 * q11",1',
        ]
        # numbered order would print q2 before q10 here
        assert main(["--command", "excited", "--freqs", ",".join(["1"] * 11),
                     "--occupations", "0,4,0,0,0,0,0,0,0,4,0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            '"0,4,0,0,0,0,0,0,0,4,0",8,0,"q10^4 * q2^4",'
            '"-3 * q10^2 * q2^4 - 3 * q10^4 * q2^2",0')

    def test_config_error_exit_code(self, capsys):
        assert main(["--command", "stark", "--order", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        # non-finite floats, which would run to a nan result
        ["--command", "stark", "--eps", "nan"],
        ["--command", "stark", "--g", "inf"],
        ["--command", "oracle", "--mode", "radial", "--potential", "r",
         "--eps", "inf"],
        # bad choices and types, once rejected by argparse with exit 2
        ["--command", "perturb", "--parity", "foo", "--p", "2"],
        ["--command", "perturb", "--parity", "even", "--p", "0"],
        ["--command", "stark", "--order", "abc"],
        ["--command", "stark", "--format", "xml"],
        ["--command", "frobnicate"],
        # library input errors, once ValueError tracebacks
        ["--command", "coulomb", "--potential", "2r"],
        ["--command", "coulomb", "--potential", "r^-1"],
        ["--command", "excited", "--freqs", "1,2", "--occupations", "1"],
        # more eigenvalues than the grid has, once invented past row n
        ["--command", "oracle", "--potential", "0.5*x^2", "--n", "200",
         "--k", "205", "--domain", "200"],
        # parameters the chosen oracle mode never reads
        ["--command", "oracle", "--mode", "radial", "--potential", "r^2",
         "--domain", "25", "--n", "200", "--k", "3"],
        ["--command", "oracle", "--potential", "0.5*x^2", "--n", "200",
         "--g", "3", "--eps", "5"],
        # potentials in the other command family's variable
        ["--command", "coulomb", "--potential", "x^2"],
        ["--command", "oracle", "--mode", "radial", "--potential", "x^2",
         "--domain", "25", "--n", "200"],
        ["--command", "gexpand", "--potential", "y^2"],
        ["--command", "oracle", "--potential", "0.5*r^2", "--n", "200"],
        # a symbol outside x with a zero coefficient, once read as x alone
        # where coulomb already rejected r^2 + 0*u
        ["--command", "gexpand", "--potential", "0.5*x^2 + 0*y"],
        ["--command", "oracle", "--potential", "0.5*x^2 + 0*y", "--n", "200"],
        # a radial potential is U(r) alone: the oracle once read r*u at
        # u = 0, and coulomb read eps*r^2 as ε²·r² where the oracle read ε·r²
        ["--command", "oracle", "--mode", "radial", "--potential", "r*u",
         "--eps", "0.1"],
        ["--command", "oracle", "--mode", "radial", "--potential", "eps*r^2",
         "--eps", "0.1"],
        ["--command", "coulomb", "--potential", "r*u"],
        ["--command", "coulomb", "--potential", "eps*r^2"],
        # negative powers of a variable other than r, once method breakdowns
        ["--command", "coulomb", "--potential", "eps^-1"],
        ["--command", "coulomb", "--potential", "u^-1"],
        ["--command", "gexpand", "--potential", "x^-2"],
        ["--command", "oracle", "--potential", "x^-1", "--n", "200"],
        # an even grid has no node at the origin, where S must vanish
        ["--command", "greens-check", "--n", "4000"],
        # a weight e^(2gS) that overflows, once after H_l(√g·z) had warned
        ["--command", "greens-check", "--g", "1e300", "--half-width", "8"],
        # the default half-width 8/√g is computed only after g > 0 holds
        ["--command", "greens-check", "--g", "0"],
        # malformed argv, once argparse's exit 2: an unknown flag, a stray
        # token, a flag without its value, an abbreviation, a short flag
        ["--command", "stark", "--frobnicate", "1"],
        ["--command", "stark", "stray"],
        ["--order", "4", "--command"],
        ["--command", "coulomb", "--pot", "r^2"],
        ["--command", "stark", "-g", "2"],
        ["--command=stark", "--g=2", "--order="],
        # a value is the next token verbatim, so -h here is a potential
        ["--command", "coulomb", "--potential", "-h"],
        # an assembled gexpand energy past the float range, once inf, exit 0
        ["--command", "gexpand", "--potential", "8*x^2", "--g", "1e308",
         "--n", "201"],
    ])
    def test_invalid_input_exits_1(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ['{"command": "stark", "order": 1e400}',
                                      '{"command": "stark", "g": 1e400}'])
    def test_overflowing_config_value_exits_1(self, text, tmp_path, capsys):
        # JSON reads 1e400 as inf: an integer key takes no float, and a
        # float key takes no infinity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(_config_file(b'{"command": "st\xffrk"}'),
                     "cannot read config file: ", id="config-not-utf8"),
        pytest.param(_config_file(b"[" * 100_000 + b"]" * 100_000),
                     "cannot read config file: ", id="config-nested-deep"),
        pytest.param(_config_file(b'{"command": "stark", "order": '
                                  + b"1" * 5000 + b"}"),
                     "cannot read config file: ", id="config-5000-digits"),
        pytest.param(lambda d: ["--command", "stark", "--order", "4",
                                "--out", str(d / "missing" / "x.csv")],
                     "cannot write output: ", id="out-missing-dir"),
        pytest.param(lambda d: ["--command", "stark", "--order", "4",
                                "--out", str(d)],
                     "cannot write output: ", id="out-is-directory"),
        pytest.param(lambda d: ["--order", "3"],
                     "config must name a command", id="no-command-flags"),
        pytest.param(_config_file(b"{}"),
                     "config must name a command", id="no-command-config"),
        pytest.param(lambda d: ["--config", str(d / "absent.json")],
                     "cannot read config file: ", id="config-absent"),
        pytest.param(_config_file(b"[1, 2]"),
                     "config file must hold a JSON object", id="config-list"),
    ])
    def test_file_boundary_error_exits_1(self, argv, message, tmp_path,
                                         capsys):
        # unreadable or malformed config files and unwritable --out paths
        # are the user's input, so they end in a config error, not a trace
        assert main(argv(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"command": "stark", "order": 12.9}',
        '{"command": "stark", "order": 12.0}',
        '{"command": "stark", "order": true}',
        '{"command": "perturb", "parity": "even", "p": true}',
        '{"command": "stark", "g": true}',
        '{"command": "excited", "freqs": 2, "occupations": "1"}',
        '{"command": "oracle", "potential": 5, "n": 200}',
    ])
    def test_coerced_config_value_exits_1(self, text, tmp_path, capsys):
        # int(), float() and str() would run these as order 12, p = 1,
        # g = 1.0, freqs "2" and the constant potential 5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: bad value for ")

    def test_integer_config_values_as_ints_or_strings(self, tmp_path, capsys):
        flags = ["--command", "stark", "--order", "8", "--g", "2"]
        assert main(flags) == 0
        expect = capsys.readouterr().out
        for text in ('{"command": "stark", "order": 8, "g": 2}',
                     '{"command": "stark", "order": "8", "g": "2"}'):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            assert main(["--config", str(cfg)]) == 0
            assert capsys.readouterr().out == expect

    def test_method_error_exit_code(self, tmp_path, capsys):
        # degenerate minimum: v'' = 0 at the origin
        assert main(["--command", "gexpand", "--potential", "x^4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--command", "oracle", "--potential", "x^9", "--domain", "1e40"],
        ["--command", "oracle", "--mode", "radial", "--potential", "r^5",
         "--domain", "1e80"],
    ])
    def test_overflowing_oracle_potential_exits_2(self, argv, capsys):
        # V overflows on the grid; the oracle must not report a nan
        # eigenvalue with exit 0, nor warn or raise on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--n", "200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: potential is not finite")

    @pytest.mark.parametrize("argv", [
        ["--potential", "0.5*x^2", "--x-max", "1e300"],
        ["--potential", "0.5*x^2 + x^8", "--x-max", "1e40"],
    ])
    def test_overflowing_trajectory_potential_exits_2(self, argv, capsys):
        # v overflows on the trajectory grid; the nan panel estimates would
        # drive every S₀ panel to the full refinement depth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: potential is not finite")

    @pytest.mark.parametrize("n", ["16", "401", "2001"])
    @pytest.mark.parametrize("argv, x", [
        (["--potential", "0.2205*x^2 - 0.63*x^3 + 0.45*x^4"], "0.7"),
        (["--potential", "0.2205*x^2 + 0.63*x^3 + 0.45*x^4",
          "--direction", "-1"], "-0.7"),
    ])
    def test_kink_on_last_node_exits_2(self, argv, x, n, capsys):
        # v = 0.45x²(x ∓ 0.7)² has its double zero on the last node, where
        # the hierarchy once printed S₂ ≈ 2e61 and S₃ ≈ -1e112 with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand", *argv, "--x-max", "0.7",
                         "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"method breakdown: v vanishes at x = {x} ")

    def test_overflowing_origin_value_exits_2(self, capsys):
        # v(origin) overflows; the check rejects it without a warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand", "--potential", "0.5*x^2",
                         "--origin", "1e200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: v(origin) must vanish")

    @pytest.mark.parametrize("argv", [
        ["perturb", "--parity", "even", "--p", "2", "--order", "4", "--g", "1e-100"],
        ["coulomb", "--eps", "1e200"],
        ["stark", "--eps", "1e200"],
        # the evaluated result itself overflows to -inf, once printed with exit 0
        ["perturb", "--parity", "even", "--p", "2", "--order", "20", "--g", "1e-5"],
        ["stark", "--order", "30", "--eps", "1", "--g", "3.5e-6"],
        ["gexpand", "--potential", "0.5*x^2", "--g", "1e-300"],
        ["oracle", "--potential", "0.5*x^2", "--n", "200", "--domain", "1e-200"],
    ])
    def test_float_range_error_in_runner_exits_1(self, argv, capsys):
        # finite inputs whose arithmetic leaves the float range are a
        # config error, not a traceback
        assert main(["--command"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: values out of floating-point range")
        assert "(34," not in err   # float **'s errno tuple, not its reason

    @pytest.mark.parametrize("argv, factor", [
        (["coulomb", "--potential", "1/0*r^2"], "1/0"),
        (["gexpand", "--potential", "0.5*x^2 + 1/0*x^4"], "1/0"),
        (["coulomb", "--potential", "r^2 + 0/0*r"], "0/0"),
    ])
    def test_zero_denominator_exits_1(self, argv, factor, capsys):
        # a Fraction's ZeroDivisionError once reached the float-range
        # handler: "values out of floating-point range: Fraction(1, 0)"
        assert main(["--command"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: zero denominator in factor {factor!r}\n"
        assert "Traceback" not in err

    def test_overflowing_oracle_matrix_exits_1(self):
        # at domain 1e-100 the squared off-diagonal is inf, so no Sturm count
        # ever reaches k and the bracket search never ended; a subprocess
        # with a timeout turns a return of that hang into a failure
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "trajquad.cli", "--command", "oracle",
             "--potential", "0.5*x^2", "--n", "200", "--domain", "1e-100"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(
            "config error: values out of floating-point range")

    def test_steep_potential_gexpand_finishes(self):
        # √(2v) reaches 1e34 on [0, 2.5], so S₀'s rounding alone exceeds an
        # absolute 1e-12 per panel and every panel refined to full depth,
        # for minutes; the tolerance is floored at that rounding.  The run
        # must end, with a result or a clean breakdown
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "trajquad.cli", "--command", "gexpand",
             "--potential", "0.5*x^2 + x^171", "--n", "201"],
            capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode in (0, 2), done.stderr

    def test_coarse_gexpand_breaks_down_without_warning(self, capsys):
        # at 17 nodes the origin patch of the float towers repeated a node
        # (0/0 in Neville) and exited 2; the E_k come from the origin jets,
        # so no grid is too coarse for them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand", "--potential",
                         "0.5*x^2 + 0.1*x^4", "--n", "17",
                         "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        exact = [1 / 2, 3 / 4 * 0.1, -21 / 8 * 0.01, 333 / 16 * 0.001]
        got = json.loads(out)["results"]["e_terms"]
        assert got == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("text, k, exact", [
        # the float towers' origin ladders disagreed by more than 1e-4 on
        # both, and they exited 2 at the default grid
        ("0.5*x^2 + 0.1*x^6", 2, 3 / 16),
        ("0.5*x^2 + 0.1*x^8", 3, 21 / 32),
    ])
    def test_gexpand_high_powers_at_defaults(self, text, k, exact, capsys):
        assert main(["--command", "gexpand", "--potential", text,
                     "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["results"]["e_terms"]
        assert got[k] == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("text, order", [
        # neither origin is a minimum: v' = 1 and v' = 1e-6 there
        ("x + x^2", "0"),
        ("0.000001*x + x^2", "1"),
    ])
    def test_gexpand_refuses_a_sloped_origin(self, text, order, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand", "--potential", text,
                         "--order", order]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: v'(origin) must vanish")

    @pytest.mark.parametrize("text, origin", [
        ("x^2 - 0.2*x + 0.01", "0.1"),
        ("0.5 - x^2 + 0.5*x^4", "1"),
    ])
    def test_gexpand_accepts_shifted_minima(self, text, origin, capsys):
        assert main(["--command", "gexpand", "--potential", text,
                     "--origin", origin, "--x-max", "0.9"]) == 0

    def test_greens_check_passes(self, tmp_path):
        out = tmp_path / "greens.csv"
        code = main(["--command", "greens-check", "--out", str(out)])
        assert code == 0
        assert "dbar_hermite_l4" in out.read_text()

    @pytest.mark.parametrize("g, n, half_width, code", [
        # the default half-width is min(8, 8/√g).  At g = 2 the old fixed 8
        # failed dbar_hermite_l4 at 3.14e-6 while D̄ integrated on a
        # quarter-step grid; on each interval's Gauss nodes it passes at
        # 6.97e-9 (n = 4001)
        ("2", "4001", "8", 0),
        ("2", "4001", None, 0),
        ("2", "6001", None, 0),
        # S and the six sources are quartics, which each interval's Gauss
        # nodes read exactly: all ten rows pass on 401 nodes, where the
        # quarter-step grid failed the D̄ rows by up to 4·10⁴×
        ("0.5", "401", None, 0),
        ("1", "401", None, 0),
        ("2", "401", None, 0),
        # a grid too coarse for the stencils of T: greens_residual[H2]
        # fails at 64× its tolerance, with every D̄ row passing
        ("1", "101", None, 3),
        # with 8 the weight e^(2gS) overflowed above g = 11 (exit 1)
        ("16", "4001", None, 0),
        # the tail's quadrature spans a Gaussian width 1/√g past the edge;
        # from a unit beyond it greens_residual[H2] failed from g ≈ 1e50
        ("1e50", "4001", None, 0),
        ("1e100", "4001", None, 0),
        # at g < 1 the default stays 8 (worst rows 1.95e-9 at n = 4001);
        # 8/√g passes too, at 92 % of its tolerance
        ("0.5", "4001", None, 0),
        ("0.5", "6001", None, 0),
        ("0.5", "4001", "11.313708498984761", 0),
        # at g = 0.25 the edge has not decayed at 8 (exit 2); 11 passes at
        # 6.20e-9
        ("0.25", "4001", "11", 0),
    ])
    def test_greens_check_half_width(self, g, n, half_width, code):
        argv = ["--command", "greens-check", "--g", g, "--n", n]
        if half_width is not None:
            argv += ["--half-width", half_width]
        assert main(argv) == code

    def test_greens_default_echoes_half_width(self, capsys):
        assert main(["--command", "greens-check", "--g", "4"]) == 0
        config = parse_config_echo(capsys.readouterr().out)
        assert config.parameters["half-width"] == 4.0

    def test_undecayed_greens_edge_names_the_half_width(self, capsys):
        assert main(["--command", "greens-check", "--g", "0.25"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: weighted source does not "
                              "decay at the ends (edge 9.00e-07)")
        assert err.rstrip().endswith(
            "at half-width 8.0; a wider --half-width may pass")

    def test_underflowing_greens_source_exits_2(self, capsys):
        # D̄(x² - ⟨x²⟩) underflows, so T·D̄f - f is -f: its value ⟨x²⟩ =
        # 5e-301 at the origin feeds C a constant.  The tail a unit beyond
        # the edge once overflowed H_l(√g·z) first (exit 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "greens-check", "--g", "1e300"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("method breakdown: source value 5e-301 at the origin "
                       "feeds C a constant\n")
        assert "np.float64" not in err

    def test_overflowing_greens_weight_exits_1(self, capsys):
        # e^{2gS} at x = 30 is e^900: reject the domain before any nan row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "greens-check", "--half-width", "30"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: outer weight e^(2gS) overflows")

    @pytest.mark.parametrize("half_width, exponent", [
        ("1e103", "1e+206"), ("1e155", "10^310"), ("1e300", "10^600")])
    def test_huge_greens_half_width_is_refused_before_sampling(
            self, half_width, exponent, capsys):
        # x³ overflowed from 1e103, x²/2 from 1.9e154, and from 1e155 the
        # exponent 2g·max S = half-width² is past the float range itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "greens-check", "--half-width",
                         half_width, "--n", "101"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: outer weight e^(2gS) overflows on this "
                       f"domain (2g·max S = {exponent})\n")

    @pytest.mark.parametrize("g, half_width, digits", [
        ("1e-210", "1e103", "621.398"), ("1e-190", "1e96", "573.398"),
        ("1e-150", "1e76", "453.398"), ("1e-110", "1e56", "333.398")])
    def test_overflowing_greens_values_exit_2(self, g, half_width, digits,
                                              capsys):
        # the weight passes, 2g·max S ≤ 709, but x³ overflowed from 1e103,
        # and where the weight decays the D̄ sums, D̄x³ ≈ x³/(3g) or
        # C(x⁴) = x⁴/(4g) did, each with a RuntimeWarning on its way out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "greens-check", "--g", g,
                         "--half-width", half_width, "--n", "101"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("method breakdown: identity report overflows on this "
                       f"domain (half-width {float(half_width)!r}, g = "
                       f"{float(g)!r}: max(x^4, x^4/(4g)) = 10^{digits})\n")

    def test_huge_greens_half_width_keeps_the_origin_node(self, capsys):
        # linspace's middle node here is ≈ -0.0078, not 0, and S = x²/2
        # there failed the profile's origin check (exit 1); the node is 0
        # and the run reaches the decay check on the source
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "greens-check",
                         "--g", "3.162277660168379e-245",
                         "--half-width", "69054802549241.414",
                         "--n", "4001"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("method breakdown: weighted source does not "
                              "decay at the ends")
        assert "at half-width 69054802549241.414" in err

    def test_tolerance_failure_writes_full_report(self, tmp_path, capsys):
        # on 101 nodes greens_residual[H2] fails at 64× its tolerance
        out = tmp_path / "greens.csv"
        assert main(["--command", "greens-check", "--g", "1", "--n", "101",
                     "--half-width", "8", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("tolerance failure: identity ")
        text = out.read_text()
        assert parse_config_echo(text) == RunConfig(
            "greens-check", {"g": 1, "n": 101, "half-width": 8})
        lines = text.splitlines()
        assert lines[2] == "identity,grid,max_residual,tolerance,pass"
        rows = [line.split(",") for line in lines[3:]]
        expected = [r["identity"] for r in identity_report(1.0, 101, 8.0)]
        assert [row[0] for row in rows] == expected
        assert "False" in [row[-1] for row in rows]

    def test_gexpand_csv_table_equals_json_nodes(self, capsys):
        argv = ["--command", "gexpand", "--potential", "0.5*x^2 + 0.1*x^4",
                "--n", "401", "--order", "2"]
        assert main(argv) == 0
        csv = capsys.readouterr().out.splitlines()
        assert main(argv + ["--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        table = csv[csv.index("x,S_1,S_2") + 1:]
        columns = [results["nodes"], *results["s_terms"]]
        assert [[float(v) for v in row.split(",")] for row in table] \
            == [list(row) for row in zip(*columns)]

    @pytest.mark.parametrize("order", range(4))
    def test_gexpand_table_rows_match_header(self, order, capsys):
        # the header declares exactly the columns every row holds: at
        # order 0 that is "x" alone, not "x," with an empty second column
        assert main(["--command", "gexpand", "--potential", "0.5*x^2",
                     "--n", "101", "--order", str(order)]) == 0
        csv = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(csv)
                     if line.startswith("assembled,")) + 1
        header, *rows = [line.split(",") for line in csv[start:]]
        assert header == ["x"] + [f"S_{k}" for k in range(1, order + 1)]
        assert len(rows) == 101
        assert all(len(row) == len(header) for row in rows)


_GEXPAND = ["--command", "gexpand", "--potential", "0.5*x^2 + 0.1*x^4",
            "--n", "401", "--order", "2"]
_LAZY_PROBE = f"""
import contextlib, io, json, sys
import trajquad.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [trajquad.cli.main(argv) for argv in [
        ["--command", "perturb", "--parity", "even", "--p", "2"],
        ["--command", "stark", "--order", "8"],
        ["--command", "coulomb", "--order", "6"],
        ["--command", "excited", "--freqs", "1,2", "--occupations", "1,0;0,1"]]]
numpy = "numpy" in sys.modules
names = sorted(n for n in sys.modules if n.split(".")[0] == "trajquad")
import trajquad.gexpand
same = trajquad.gexpand is trajquad.cli.gexpand_mod
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(trajquad.cli.main({_GEXPAND!r}))
polynomial = "numpy.polynomial" in sys.modules
print(json.dumps({{"codes": codes, "numpy": numpy, "names": names,
                  "same": same, "gexpand": out.getvalue(),
                  "polynomial": polynomial}}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_exact_commands_load_no_numpy(flags, capsys):
    # the grid layers load on first use: sys.modules names every layer, as
    # an eager import would, but the exact commands leave numpy unloaded.
    # The probe reports rather than asserts, so that -O keeps its checks
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, *flags, "-W", "error::RuntimeWarning", "-c",
         _LAZY_PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == [0] * 5
    assert probe["numpy"] is False
    layers = ("exactalg", "oscpert", "coulomb", "excited", "trajectory",
              "numerics", "gexpand", "greens", "oracle", "cli", "errors")
    assert probe["names"] == sorted(["trajquad"] + [f"trajquad.{m}" for m in layers])
    assert probe["same"] is True
    assert main(_GEXPAND) == 0
    assert probe["gexpand"] == capsys.readouterr().out
    # the grid half evaluates its polynomials with numerics._horner alone
    assert probe["polynomial"] is False


_IMPORT_PROBE = """
import contextlib, io, json, sys, types
absent = ("dataclasses", "fractions", "decimal", "inspect", "numpy",
          "argparse", "gettext", "locale")
def state():
    # type(), not vars(): vars() of a lazy module executes it
    return {"loaded": [m for m in absent if m in sys.modules],
            "registered": sorted(n for n in sys.modules
                                 if n.split(".")[0] == "trajquad"),
            "executed": sorted(n for n in sys.modules
                               if n.split(".")[0] == "trajquad"
                               and type(sys.modules[n]) is types.ModuleType)}
import trajquad.cli
codes, states = [], [state()]
for argv in (["--command", "perturb", "--parity", "even", "--p", "2"],
             ["--command", "stark", "--order", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(trajquad.cli.main(argv))
    states.append(state())
print(json.dumps({"codes": codes, "states": states}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_each_command_executes_only_its_layer(flags):
    # cli imports errors and exactalg and registers every other layer
    # unexecuted; perturb then executes oscpert alone, and stark coulomb
    # alone.  The exact path leaves dataclasses, fractions (with decimal),
    # inspect, numpy and argparse (with gettext and locale) unloaded
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, *flags, "-W", "error::RuntimeWarning", "-c",
         _IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == [0, 0]
    start, perturb, stark = probe["states"]
    package = ["trajquad"] + [f"trajquad.{m}" for m in (
        "cli", "errors", "exactalg", "oscpert", "coulomb", "excited",
        "numerics", "trajectory", "gexpand", "greens", "oracle")]
    base = ["trajquad", "trajquad.cli", "trajquad.errors", "trajquad.exactalg"]
    for state in (start, perturb, stark):
        assert state["loaded"] == []
        assert state["registered"] == sorted(package)
    assert start["executed"] == sorted(base)
    assert perturb["executed"] == sorted(base + ["trajquad.oscpert"])
    assert stark["executed"] == sorted(base + ["trajquad.oscpert",
                                               "trajquad.coulomb"])


def test_readme_examples_run(capsys):
    examples = readme_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        # the same flags written --flag=value give the same bytes
        joined = [f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2])]
        assert main(joined) == 0, joined
        assert capsys.readouterr().out == out, joined
        if out.startswith("{"):
            out = json.dumps(json.loads(out), ensure_ascii=False)
        for value in README_VALUES.get(argv[1], ()):
            assert value in out, (argv, value)


class TestFlags:
    def test_negative_values(self, capsys):
        outputs = []
        for argv in (["--command", "stark", "--order", "4", "--eps", "-0.001"],
                     ["--command", "stark", "--order", "4", "--eps=-0.001"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert parse_config_echo(outputs[0]).parameters["eps"] == -0.001
        assert main(["--command", "coulomb", "--potential", "-r^2",
                     "--order", "2"]) == 0
        assert '"potential": "-r^2"' in capsys.readouterr().out

    def test_flags_override_file_and_last_repeat_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "stark", "order": 6, "g": 3}')
        assert main(["--config", str(cfg), "--order", "5", "--order=4"]) == 0
        echoed = parse_config_echo(capsys.readouterr().out)
        assert echoed == RunConfig("stark", {"order": 4, "g": 3})
        # an empty --config reads no file
        assert main(["--config", "", "--command", "stark", "--order", "4",
                     "--g", "3"]) == 0
        assert parse_config_echo(capsys.readouterr().out) == echoed

    @pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                      ["--command", "stark", "-h"]])
    def test_help_names_every_flag(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("  --")}
        assert listed == {f"--{flag}" for flag in
                          ("config", "command", "out", "format", *_PARAMS)}

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        argv = ["--command", "stark", "--order", "4"]
        assert main(argv) == 0
        expect = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["trajquad", *argv])
        assert main() == 0
        assert capsys.readouterr().out == expect


class TestGoldenFiles:
    def _regenerate(self, name, argv, tmp_path):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_stark_golden(self, tmp_path):
        got = self._regenerate(
            "stark.csv",
            ["--command", "stark", "--order", "12", "--g", "1",
             "--eps", "0.001"], tmp_path)
        assert got == (GOLDEN / "stark_order12.csv").read_bytes()

    def test_coulomb_golden(self, tmp_path):
        got = self._regenerate(
            "coulomb.csv",
            ["--command", "coulomb", "--potential", "r^2", "--order", "8",
             "--g", "1", "--eps", "0.001"], tmp_path)
        assert got == (GOLDEN / "coulomb_r2_order8.csv").read_bytes()

    def test_perturb_even_high_order_golden(self, tmp_path):
        got = self._regenerate(
            "even.csv",
            ["--command", "perturb", "--parity", "even", "--p", "2",
             "--order", "20", "--g", "1"], tmp_path)
        assert got == (GOLDEN / "perturb_even_p2_order20.csv").read_bytes()

    def test_perturb_odd_high_order_golden(self, tmp_path):
        got = self._regenerate(
            "odd.csv",
            ["--command", "perturb", "--parity", "odd", "--p", "1",
             "--order", "14", "--g", "1"], tmp_path)
        assert got == (GOLDEN / "perturb_odd_p1_order14.csv").read_bytes()

    def test_excited_golden(self, tmp_path):
        got = self._regenerate(
            "excited.csv",
            ["--command", "excited", "--freqs", "1,2",
             "--occupations", "2,0;0,1;1,1;4,0;0,2"], tmp_path)
        assert got == (GOLDEN / "excited_freqs12.csv").read_bytes()
