import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import gexp
from gexp.cli import main
from gexp.simulate import _BLOCK_PATHS


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestUsage:
    def test_missing_required_flag_exit_2(self, capsys):
        code, _ = run_cli(["harnack", "--drift", "ou"])  # band, p, T, x, y missing
        assert code == 2

    def test_unknown_subcommand_exit_2(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_bad_band_exit_2(self):
        code, _ = run_cli(
            ["gheat", "--band", "one,two", "--payoff", "sigmoid", "--T", "1"]
        )
        assert code == 2

    def test_abbreviated_flag_rejected(self, tmp_path):
        # a prefix of --nx is rejected; the spelled-out flag beats the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 101\n")
        args = ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
                "--config", str(cfg)]
        code, _ = run_cli(args + ["--n", "51"])
        assert code == 2
        code, out = run_cli(args + ["--nx", "51"])
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["nx"] == 51
        assert len(rep["values"]) == 51

    def test_numerical_failure_exit_3(self, capsys):
        with pytest.warns(RuntimeWarning):
            code, _ = run_cli(
                ["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "const:1e308",
                 "--kind", "time", "--x", "0", "--T", "4", "--method", "mc",
                 "--npaths", "100", "--nsteps", "8"]
            )
        assert code == 3
        assert "non-finite state at step 8" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import gexp

        with pytest.raises(SystemExit):
            from gexp.cli import build_parser

            build_parser().parse_args(["--version"])
        assert gexp.__version__ == "0.1.0"


class TestReports:
    def test_gheat_json_schema(self):
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "sigmoid", "--T", "0.25",
             "--nx", "101", "--sequential"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["schema"] == 1
        assert rep["config"]["version"] == "0.1.0"
        assert len(rep["values"]) == 101

    def test_gheat_csv(self):
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
             "--nx", "11", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 12
        assert all(line.endswith(",1.0") for line in lines[1:])

    @pytest.mark.parametrize(
        "method, keys",
        [
            ("mc", ["mc_value", "mc_argmax_std_error"]),
            ("both", ["pde_value", "mc_value", "mc_argmax_std_error", "cross_check_gap",
                      "cross_check_budget", "cross_check_pass"]),
        ],
    )
    def test_pbar_csv_keeps_mc_result(self, method, keys):
        args = ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
                "--payoff", "sigmoid", "--T", "1", "--x", "0", "--npaths", "500",
                "--nsteps", "16", "--nx", "101", "--sequential"]
        code, out = run_cli(args + ["--method", method, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert list(rows) == keys
        _, js = run_cli(args + ["--method", method])
        rep = json.loads(js)
        assert float(rows["mc_value"]) == rep["mc"]["value"]
        if method == "both":
            assert rows["cross_check_pass"] == str(rep["cross_check"]["pass"])
            assert float(rows["cross_check_gap"]) == rep["cross_check"]["gap"]

    def test_pbar_cross_check_pass(self):
        code, out = run_cli(
            ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
             "--payoff", "sigmoid", "--T", "1", "--x", "0", "--method", "both",
             "--npaths", "4000", "--nsteps", "64", "--sequential"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["cross_check"]["pass"] is True
        assert abs(rep["pde_value"] - 0.5) < 2e-3

    def test_harnack_certificate_pass(self):
        code, out = run_cli(
            ["harnack", "--drift", "ou", "--band", "1,1", "--p", "2", "--T", "1",
             "--x", "0", "--y", "0.5", "--payoff", "sigmoid", "--sequential"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["pass"] is True

    def test_shift_harnack_certificate_pass(self):
        code, out = run_cli(
            ["shift-harnack", "--drift", "ou", "--band", "0.5,1", "--p", "2",
             "--T", "1", "--x", "0", "--v", "0.5", "--payoff", "bump",
             "--sequential"]
        )
        assert code == 0
        assert json.loads(out)["certificate"]["pass"] is True

    def test_coupling_report(self):
        code, out = run_cli(
            ["coupling", "--band", "1,1", "--x", "1", "--y", "0", "--T", "1",
             "--npaths", "500", "--nsteps", "512", "--pieces", "1",
             "--levels", "2", "--sequential"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"] is True
        assert len(rep["reports"]) == 1

    def test_axioms_pass(self):
        code, out = run_cli(["axioms", "--band", "0.5,1", "--sequential"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True


_PBAR = ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1", "--payoff", "one",
         "--T", "0.25", "--x", "0", "--npaths", "100", "--nsteps", "16", "--nx", "51"]


class TestConfigFile:
    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nnx = 51\nT = 0.25\npayoff = one\n")
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "sigmoid", "--T", "0.25",
             "--config", str(cfg), "--sequential"]
        )
        assert code == 0
        rep = json.loads(out)
        # payoff came from the command line (explicit flags win); nx from file
        assert rep["config"]["payoff"] == "sigmoid"
        assert rep["config"]["nx"] == 51

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frob = 1\n")
        code, _ = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
             "--config", str(cfg)]
        )
        assert code == 2

    @pytest.mark.parametrize("line", ["command = kernels", "config = other.cfg", "alpha = 3"])
    def test_non_option_config_key_exit_2(self, tmp_path, capsys, line):
        # only options of the chosen subcommand: `command` may not switch it,
        # and `alpha` belongs to `kernels`, not `gheat`
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
             "--config", str(cfg)]
        )
        assert code == 2
        assert out == ""
        assert "unknown configuration key" in capsys.readouterr().err

    def test_required_options_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("band = 0.5,1\npayoff = one\nT = 0.25\nnx = 51\n")
        code, out = run_cli(["gheat", "--config", str(cfg), "--sequential"])
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["band"] == [0.5, 1.0]
        assert rep["config"]["payoff"] == "one"
        assert rep["config"]["T"] == 0.25
        assert len(rep["values"]) == 51

    @pytest.mark.parametrize(
        "args, line",
        [
            (["coupling", "--band", "1,1", "--x", "1", "--y", "0", "--npaths", "100",
              "--nsteps", "16", "--pieces", "1", "--levels", "2"], "payoff = nosuch"),
            (_PBAR, "method = xyz"),
            (_PBAR, "format = xml"),
            (_PBAR, "format = JSON"),
        ],
        ids=["payoff", "method", "format", "format-case"],
    )
    def test_bad_config_value_exit_2(self, tmp_path, capsys, args, line):
        # file values get the parser's choices check, like flags
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out = run_cli(args + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, code, sequential",
        [("ture", 2, None), ("no", 0, False), ("TRUE", 0, True), ("0", 0, False)],
    )
    def test_sequential_spellings(self, tmp_path, value, code, sequential):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sequential = {value}\n")
        got, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25", "--nx", "11",
             "--config", str(cfg)]
        )
        assert got == code
        if code == 0:
            assert json.loads(out)["config"]["sequential"] is sequential
        else:
            assert out == ""

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        code, _ = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
             "--config", str(cfg)]
        )
        assert code == 2


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv("GEXP_SEED", "777")
        code, out = run_cli(
            ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
             "--payoff", "one", "--T", "0.5", "--x", "0", "--method", "mc",
             "--npaths", "100", "--nsteps", "16", "--sequential"]
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 777

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("GEXP_SEED", "777")
        code, out = run_cli(
            ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
             "--payoff", "one", "--T", "0.5", "--x", "0", "--method", "mc",
             "--npaths", "100", "--nsteps", "16", "--seed", "5", "--sequential"]
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5


class TestReproducibility:
    @pytest.mark.parametrize(
        "args",
        [
            ["gheat", "--band", "0.5,1", "--payoff", "bump", "--T", "0.5",
             "--nx", "101"],
            ["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1",
             "--payoff", "sigmoid", "--T", "0.5", "--x", "0.5",
             "--npaths", "500", "--nsteps", "32"],
            ["harnack", "--drift", "ou", "--band", "0.5,1", "--p", "2",
             "--T", "0.5", "--x", "0", "--y", "0.5", "--payoff", "cauchy"],
            ["coupling", "--band", "0.5,1", "--x", "0.5", "--y", "0",
             "--T", "1", "--npaths", "200", "--nsteps", "256",
             "--pieces", "2", "--levels", "2"],
        ],
        ids=["gheat", "pbar", "harnack", "coupling"],
    )
    def test_byte_identical_sequential_runs(self, args, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, _ = run_cli(args + ["--sequential", "--out", str(out1)])
        code2, _ = run_cli(args + ["--sequential", "--out", str(out2)])
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coupling_reports_independent_of_workers(self):
        # several path blocks, the last one partial, split differently by
        # the two worker counts
        args = ["coupling", "--band", "0.5,1", "--x", "0.5", "--y", "0",
                "--T", "1", "--npaths", str(2 * _BLOCK_PATHS + 123), "--nsteps", "32",
                "--pieces", "2", "--levels", "2"]
        code1, out1 = run_cli(args + ["--sequential"])
        code2, out2 = run_cli(args + ["--workers", "2"])
        assert code1 == code2
        assert len(json.loads(out1)["reports"]) == 4
        # the whole report, config block included, except the flag itself
        assert out2 == out1.replace('"sequential": true', '"sequential": false')

    @pytest.mark.parametrize(
        "args",
        [
            ["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1",
             "--payoff", "sigmoid", "--T", "0.5", "--x", "0.5",
             "--npaths", str(2 * _BLOCK_PATHS + 123), "--nsteps", "32"],
            ["axioms", "--band", "0.5,1", "--drift", "ou"],
        ],
        ids=["pbar", "axioms"],
    )
    def test_mc_reports_independent_of_workers(self, args):
        code1, out1 = run_cli(args + ["--sequential"])
        code2, out2 = run_cli(args + ["--workers", "2"])
        assert code1 == code2 == 0
        # the whole report, config block included, except the flag itself
        assert out2 == out1.replace('"sequential": true', '"sequential": false')

    def test_out_file_matches_stdout(self, tmp_path):
        args = ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
                "--nx", "11", "--sequential"]
        _, stdout = run_cli(args)
        out = tmp_path / "r.json"
        run_cli(args + ["--out", str(out)])
        assert out.read_text() == stdout


class TestEntryPoint:
    def test_console_script_runs(self):
        """The console entry point declared in pyproject.toml runs as a
        process and prints the version.  A checkout run with PYTHONPATH=src
        has no `gexp` script, so the declared target is called the way the
        console-script wrapper calls it; an installed `gexp` found on PATH is
        run as well."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gexp"]
        module, func = target.split(":")
        src = Path(gexp.__file__).resolve().parents[1]
        runs = [(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.exit({func}())",
             "--version"],
            {**os.environ, "PYTHONPATH": str(src)},
        )]
        installed = shutil.which("gexp")
        if installed:
            runs.append(([installed, "--version"], None))
        for cmd, env in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "0.1.0"

    def test_python_m_gexp_runs(self):
        src = Path(gexp.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "gexp", "--version"], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.1.0"
