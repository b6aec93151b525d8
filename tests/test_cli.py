"""CLI: config validation, round-trip, exit codes, golden files."""

import json
import warnings
from pathlib import Path

import pytest

from trajquad.cli import RunConfig, main, parse_config_echo
from trajquad.errors import ConfigError
from trajquad.greens import identity_report

GOLDEN = Path(__file__).parent / "golden"


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
        ["--command", "stark", "--order", "abc"],
        ["--command", "stark", "--format", "xml"],
        ["--command", "frobnicate"],
        # library input errors, once ValueError tracebacks
        ["--command", "coulomb", "--potential", "2r"],
        ["--command", "coulomb", "--potential", "r^-1"],
        ["--command", "excited", "--freqs", "1,2", "--occupations", "1"],
    ])
    def test_invalid_input_exits_1(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: ")

    def test_method_error_exit_code(self, tmp_path, capsys):
        # degenerate minimum: v'' = 0 at the origin
        assert main(["--command", "gexpand", "--potential", "x^4"]) == 2

    def test_coarse_gexpand_breaks_down_without_warning(self, capsys):
        # at 17 nodes the origin patch band would repeat a node (0/0 in
        # Neville); it must fail cleanly, not warn on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "gexpand", "--potential",
                         "0.5*x^2 + 0.1*x^4", "--n", "17"]) == 2
        assert capsys.readouterr().err.startswith("method breakdown: ")

    def test_greens_check_passes(self, tmp_path):
        out = tmp_path / "greens.csv"
        code = main(["--command", "greens-check", "--out", str(out)])
        assert code == 0
        assert "dbar_hermite_l4" in out.read_text()


    def test_tolerance_failure_writes_full_report(self, tmp_path, capsys):
        out = tmp_path / "greens.csv"
        assert main(["--command", "greens-check", "--g", "2", "--n", "401",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("tolerance failure: identity ")
        text = out.read_text()
        assert parse_config_echo(text) == RunConfig("greens-check",
                                                    {"g": 2, "n": 401})
        lines = text.splitlines()
        assert lines[2] == "identity,grid,max_residual,tolerance,pass"
        rows = [line.split(",") for line in lines[3:]]
        expected = [r["identity"] for r in identity_report(2.0, 401)]
        assert [row[0] for row in rows] == expected
        assert "False" in [row[-1] for row in rows]


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
