import argparse
import ast
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
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


_GHEAT = ["gheat", "--band", "0.5,1", "--payoff", "sigmoid", "--T", "1"]
_HARNACK = ["harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "sigmoid",
            "--p", "2", "--T", "1", "--x", "0", "--y", "0.7"]
_SHIFT = ["shift-harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "bump",
          "--p", "2", "--T", "1", "--x", "0", "--v", "0.5"]
_COUPLING = ["coupling", "--band", "0.5,1", "--x", "0", "--y", "1", "--npaths", "100",
             "--nsteps", "16"]


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

    @pytest.mark.parametrize("band", ["1e-200,1e-200", "1,1e200", "1e-200,1"])
    def test_band_squares_outside_the_float_range_exit_2(self, capsys, band):
        # the first died with a ZeroDivisionError and the second with an
        # OverflowError traceback (exit 1); the third ran with v_lo = 0
        code, out = run_cli(["gheat", "--band", band, "--payoff", "sigmoid", "--T", "1"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"argument --band: bad band {band!r}: need sigma_lo**2 > 0" in err

    @pytest.mark.parametrize(
        "flags", [["--band", "0.5,inf"], ["--band", "0.5,1", "--xmax=inf"]],
        ids=["band", "grid"],
    )
    def test_non_finite_value_exit_2(self, flags):
        code, _ = run_cli(["gheat", *flags, "--payoff", "sigmoid", "--T", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "args, option",
        [(_GHEAT, "xmin"), (_GHEAT, "xmax"), (_HARNACK, "x"), (_HARNACK, "y"),
         (_HARNACK, "p"), (_HARNACK, "K"), (_SHIFT, "v"), (_COUPLING, "T"),
         (_COUPLING, "p"), (["kernels"], "alpha")],
        ids=["gheat-xmin", "gheat-xmax", "harnack-x", "harnack-y", "harnack-p",
             "harnack-K", "shift-harnack-v", "coupling-T", "coupling-p", "kernels-alpha"],
    )
    def test_non_finite_float_option_exit_2(self, tmp_path, capsys, args, option):
        # before the check these wrote NaN/Infinity reports and exited 0 or 1
        cfg = tmp_path / "run.cfg"
        for value in ("inf", "-inf", "nan"):
            cfg.write_text(f"{option} = {value}\n")
            for extra in ([f"--{option}={value}"], ["--config", str(cfg)]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, out = run_cli(args + extra)
                assert code == 2
                assert out == ""
                err = capsys.readouterr().err
                assert f"argument --{option}: must be finite, got {value!r}" in err

    def test_unparsable_float_option_exit_2(self, capsys):
        code, out = run_cli(_GHEAT + ["--T=one"])
        assert code == 2
        assert out == ""
        assert "argument --T: invalid float value: 'one'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [("inf", "argument --T: must be finite, got 'inf'"),
         ("nan", "argument --T: must be finite, got 'nan'"),
         ("0", "gexp: horizon must be finite and positive, got 0.0"),
         ("-1", "gexp: horizon must be finite and positive, got -1.0")],
        ids=["inf", "nan", "zero", "negative"],
    )
    def test_unusable_gheat_horizon_exit_2(self, capsys, value, message):
        # --T inf died with an OverflowError traceback (exit 1)
        code, out = run_cli(_GHEAT + [f"--T={value}"])
        assert code == 2
        assert out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou", "--kind", "qv",
          "--x", "1", "--method", "pde"],
         ["axioms", "--band", "0.5,1"],
         ["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou", "--kind", "qv",
          "--x", "1", "--method", "mc"],
         _COUPLING],
        ids=["pbar-pde", "axioms", "pbar-mc", "coupling"],
    )
    def test_negative_horizon_exit_2(self, capsys, args):
        # pbar-pde and axioms printed "gexp: math domain error" from the
        # safe window; the Monte Carlo commands had a message of their own
        code, out = run_cli(args + ["--T", "-1"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "gexp: horizon must be finite and positive, got -1.0\n"

    @pytest.mark.parametrize(
        "args",
        [["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou", "--kind", "qv",
          "--x", "1", "--T", "1", "--method", "mc", "--nsteps", "8"],
         ["coupling", "--band", "0.5,1", "--x", "0", "--y", "1", "--nsteps", "8"]],
        ids=["pbar", "coupling"],
    )
    def test_one_path_exit_2(self, capsys, args):
        # one path has no standard error: pbar reported 0, and coupling
        # exited 1 on Girsanov checks gap <= 3 * 0
        code, out = run_cli(args + ["--npaths", "1"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "gexp: n_paths must be at least 2, got 1\n"

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

    @pytest.mark.parametrize(
        "args, drift",
        [(_HARNACK, "tanh:nan"), (_SHIFT, "tanh:inf"), (_COUPLING, "const:nan"),
         (["axioms", "--band", "0.5,1"], "const:-inf"),
         (["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--kind", "qv", "--x", "0",
           "--T", "1", "--method", "pde"], "tanh:inf")],
        ids=["harnack", "shift-harnack", "coupling", "axioms", "pbar"],
    )
    def test_non_finite_drift_parameter_exit_2(self, capsys, args, drift):
        # coupling exited 3 at the first finiteness check of its sweep, the
        # others 2 only by way of a failed float-to-int conversion
        code, out = run_cli(args + [f"--drift={drift}"])
        assert code == 2
        assert out == ""
        assert f"gexp: drift {drift!r} needs a finite parameter" in capsys.readouterr().err

    def test_gheat_step_budget_exit_2(self, capsys):
        # about 4.5e11 forward-Euler steps, which ran unbounded before the budget
        code, out = run_cli(_GHEAT + ["--T=1e9"])
        assert code == 2
        assert out == ""
        assert "above the budget of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [_GHEAT + ["--nx", "10000000000"],
         ["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1", "--payoff", "sigmoid",
          "--T", "1", "--x", "0", "--method", "pde", "--nx", "10000000000"]],
        ids=["gheat", "pbar"],
    )
    def test_huge_nx_exit_2_before_any_grid_array(self, monkeypatch, capsys, args):
        # the grid's nodes and the drift on them came before the step budget:
        # numpy was asked for 80 GB, and a MemoryError traceback exited 1
        linspace = np.linspace

        def spy(start, stop, num=50, **kwargs):
            if num >= 10**9:
                raise AssertionError(f"a linspace of {num} points")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", spy)
        code, out = run_cli(args)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("gexp: ") and err.count("\n") == 1
        assert "above the budget of 1000000" in err

    @pytest.mark.parametrize(
        "args",
        [["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1", "--payoff", "sigmoid",
          "--T", "1", "--x", "0", "--method", "mc", "--npaths", "100", "--nsteps", "16"],
         _COUPLING],
        ids=["pbar", "coupling"],
    )
    def test_one_level_exit_2(self, capsys, args):
        # one level kept only the v_lo scenario, and both commands exited 0
        code, out = run_cli([*args, "--levels", "1"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("gexp: ") and err.count("\n") == 1
        assert "levels >= 2" in err

    @pytest.mark.parametrize("alpha", ["1", "0.5", "-2"])
    def test_kernels_alpha_at_most_one_exit_2_before_quadrature(
        self, monkeypatch, capsys, alpha
    ):
        # every invariance gap used to be computed before the lower-bound
        # check raised
        from gexp import kernels

        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature ran before the alpha check")

        monkeypatch.setattr(kernels, "normal_expectation", no_quadrature)
        monkeypatch.setattr(kernels, "_gauss_kronrod", no_quadrature)
        code, out = run_cli(["kernels", f"--alpha={alpha}"])
        assert code == 2
        assert out == ""
        assert "gexp: alpha must exceed 1" in capsys.readouterr().err

    def test_kernels_negative_sup_kernel_margin_exit_1(self, monkeypatch):
        from gexp import kernels

        monkeypatch.setattr(kernels, "sup_kernel_definition_margin", lambda f, x: -1.0)
        code, out = run_cli(["kernels"])
        assert code == 1
        rep = json.loads(out)
        assert rep["all_pass"] is False
        assert set(rep["report"]["sup_kernel_margins"].values()) == {-1.0}
        # the CSV report shows the margins that set the exit code
        code, out = run_cli(["kernels", "--format", "csv"])
        assert code == 1
        rows = dict(list(csv.reader(out.splitlines()))[1:])
        margins = {k: v for k, v in rows.items() if k.startswith("sup_kernel:")}
        assert len(margins) == 25
        assert set(margins.values()) == {"-1.0"}

    @pytest.mark.parametrize(
        "args, name",
        [("harnack --band 0.5,1 --drift ou --payoff sigmoid --p 2 --T 1 --x 0 --y 4",
          "harnack exponent 1077.8"),
         ("coupling --band 0.5,1 --x 0 --y 4", "Novikov exponent 1077.8"),
         ("shift-harnack --band 0.5,1 --drift ou --payoff bump --p 1.0001 --T 0.01"
          " --x 0 --v 3", "shift-harnack exponent 1.8182")],
        ids=["harnack", "coupling", "shift-harnack"],
    )
    def test_overflowing_ceiling_exit_2(self, monkeypatch, capsys, args, name):
        # these printed an OverflowError traceback and exited 1; the coupling
        # ceilings now come before the sweep
        from gexp import coupling

        monkeypatch.setattr(coupling, "_batched_states", None)  # never reached
        code, out = run_cli(args.split())
        assert code == 2
        assert out == ""
        assert f"gexp: exp of the {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["1e-16", "1e-17"])
    @pytest.mark.parametrize("args", [_HARNACK, _COUPLING], ids=["harnack", "coupling"])
    def test_horizon_too_short_exit_2(self, capsys, args, T):
        # 1 - e^{-2 slo^2 K T} rounds to 0: at 1e-17 both printed a
        # ZeroDivisionError traceback (exit 1); at 1e-16 harnack read the
        # exponent 0 and failed (exit 1), and coupling exited 3 on a
        # non-finite state
        code, out = run_cli(args + ["--T", T])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        rate = f"{2 * 0.25 * float(T):.3g}"  # 2 slo^2 K T
        assert err == f"gexp: the horizon {T} is too short: 1 - e^(-{rate}) rounds to 0\n"

    @pytest.mark.parametrize(
        "args, name",
        [("harnack --band 0.5,1 --drift ou --payoff sigmoid --p 2 --T 1 --x 0 --y 1e200",
          "harnack"),
         ("shift-harnack --band 0.5,1 --drift ou --payoff bump --p 2 --T 1 --x 0"
          " --v 1e200", "shift-harnack"),
         ("coupling --band 0.5,1 --x 0 --y 1e200", "Novikov")],
        ids=["harnack", "shift-harnack", "coupling"],
    )
    def test_overflowing_exponent_exit_2(self, capsys, args, name):
        # squaring 1e200 raised an OverflowError: a traceback and exit 1
        code, out = run_cli(args.split())
        assert code == 2
        assert out == ""
        assert f"gexp: the {name} exponent overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, power",
        [("harnack --band 0.5,1 --drift ou --payoff sqclip --p 300 --T 1 --x 0 --y 0.1",
          "300"),
         ("shift-harnack --band 0.5,1 --drift ou --payoff sqclip --p 250 --T 1 --x 0"
          " --v 0.1", "250")],
        ids=["harnack", "shift-harnack"],
    )
    def test_overflowing_payoff_bound_exit_2(self, monkeypatch, capsys, args, power):
        # 25.0**p raised an OverflowError: a traceback and exit 1
        from gexp import harnack

        monkeypatch.setattr(harnack, "solve_batch", None)  # never reached
        code, out = run_cli(args.split())
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"gexp: the bound 25^{power} of sqclip^{power} overflows a float" in err

    @pytest.mark.parametrize(
        "args, message",
        [(_GHEAT + ["--xmin", "0", "--xmax", "1e-300"], "needs inf steps"),
         (_GHEAT + ["--xmin=-1e200", "--xmax=1e200"], "the grid step 5e+197 is too large"),
         (_GHEAT + ["--xmin=-1e308", "--xmax=1e308"], "the width x_max - x_min must be finite"),
         (["pbar", "--kind", "qv", "--drift", "const:1e308", "--band", "0.5,1",
           "--payoff", "sigmoid", "--T", "1", "--x", "0", "--method", "pde"],
          "needs inf steps"),
         (["pbar", "--kind", "qv", "--drift", "const:1e300", "--band", "0.5,1",
           "--payoff", "sigmoid", "--T", "1", "--x", "0", "--method", "pde"],
          "needs 2.22e+301 steps, above the budget of 1000000"),
         (["axioms", "--band", "0.5,1", "--drift", "const:1e308"], "needs inf steps"),
         (_SHIFT[:3] + ["--drift", "const:1e308", "--K", "1"] + _SHIFT[5:],
          "needs inf steps")],
        ids=["dx2-underflows", "dx2-overflows", "width-overflows", "pbar-drift-inf",
             "pbar-drift-huge", "axioms", "shift-harnack"],
    )
    def test_degenerate_march_exit_2(self, capsys, args, message):
        # a ZeroDivisionError, an OverflowError or math.ceil(inf) printed a
        # traceback and exited 1; NaN and 302-digit step counts exited 2
        code, out = run_cli(args)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("gexp: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("count", [["--pieces", "100000000"], ["--levels", "1000000000000"]])
    @pytest.mark.parametrize(
        "command",
        [["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou", "--kind", "qv",
          "--x", "1", "--T", "1", "--method", "mc"], _COUPLING],
        ids=["pbar", "coupling"],
    )
    def test_huge_scenario_lattice_exit_2_at_once(self, capsys, command, count):
        # 2^100000000 was computed exactly before the cap (still running
        # after 100 s), and 10^12 levels were built as a level grid first
        start = time.perf_counter()
        code, out = run_cli(command + count)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"gexp: {count[1]} {count[0][2:]} exceed the cap 4096 on scenarios\n"

    @pytest.mark.parametrize("power", ["219", "220"])
    def test_overflow_in_the_march_exit_3_one_line(self, monkeypatch, capsys, power):
        # the bound 25^p is finite; at 50 times the stable step the march is
        # unstable and overflows (three numpy RuntimeWarnings came before the
        # error line).  At the stable step these powers certify, below
        from gexp import gheat

        monkeypatch.setattr(gheat, "CFL_SAFETY", 50.0)
        code, out = run_cli(
            ["harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "sqclip",
             "--p", power, "--T", "1", "--x", "0", "--y", "0.1"]
        )
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert re.fullmatch(r"gexp: non-finite values at (final )?step \d+\n", err), err

    def test_largest_sqclip_power_certifies(self, capsys):
        # 25^220 < 1.8e308 < 25^221.  The march forms no u/dx^2, so sqclip^220
        # stays finite and certifies; the next power is rejected on its bound
        args = ["harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "sqclip",
                "--T", "1", "--x", "0", "--y", "0.1"]
        code, out = run_cli(args + ["--p", "220"])
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["pass"] and math.isfinite(cert["lhs"]) and math.isfinite(cert["rhs"])
        code, out = run_cli(args + ["--p", "221"])
        assert (code, out) == (2, "")
        assert "gexp: the bound 25^221 of sqclip^221 overflows a float" in capsys.readouterr().err

    def test_axioms_empty_safe_window_exit_2(self, capsys):
        # pad 6 sqrt(3) > 10 left no grid node; numpy's reduction error came out
        code, out = run_cli(["axioms", "--band", "0.5,1", "--T", "3"])
        assert code == 2
        assert out == ""
        assert "is empty at horizon 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out_path", [lambda d: d / "missing" / "x.json", lambda d: d],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_exit_2(self, tmp_path, capsys, out_path):
        # the OSError of the write printed a traceback and exited 1
        code, out = run_cli(
            ["gheat", "--band", "0.5,1", "--payoff", "sigmoid", "--T", "0.25", "--nx", "51",
             "--out", str(out_path(tmp_path))]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("gexp: ")

    @pytest.mark.parametrize("args", [_HARNACK, _SHIFT], ids=["harnack", "shift-harnack"])
    @pytest.mark.parametrize(
        "line, message",
        [(None, "unrecognized arguments: --method mc"),
         ("method = mc", "unknown configuration key 'method'")],
        ids=["flag", "config"],
    )
    def test_certificate_method_exit_2(self, tmp_path, capsys, args, line, message):
        # the certificates have one route, the PDE
        flags = ["--method", "mc"]
        if line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            flags = ["--config", str(cfg)]
        code, out = run_cli(args + flags)
        assert code == 2
        assert out == ""
        assert message in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, capsys):
        # the steppers' overflow is reported by the non-finite check alone:
        # a numpy RuntimeWarning from a worker thread came before the line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(
                ["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "const:1e308",
                 "--kind", "time", "--x", "0", "--T", "4", "--method", "mc",
                 "--npaths", "100", "--nsteps", "8"]
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        err = capsys.readouterr().err
        assert err == "gexp: non-finite state at step 8\n", err

    def test_version_flag(self, capsys):
        import gexp

        with pytest.raises(SystemExit):
            from gexp.cli import build_parser

            build_parser().parse_args(["--version"])
        assert gexp.__version__ == "0.1.0"


_PAYOFFS = ("bump", "cauchy", "one", "sigmoid", "sqclip")
_COMMON = [
    ("format", False, "json", ("json", "csv"), None),
    ("out", False, None, None, None),
    ("config", False, None, None, None),
    ("seed", False, None, None, "parse"),
    ("workers", False, None, None, "parse"),
]
# each subcommand's options in --help order: (dest, required, default,
# choices, type name)
_SURFACE = {
    "gheat": [
        ("band", True, None, None, "_band"),
        ("payoff", True, None, _PAYOFFS, None),
        ("T", True, None, None, "_finite_float"),
        ("xmin", False, -10.0, None, "_finite_float"),
        ("xmax", False, 10.0, None, "_finite_float"),
        ("nx", False, 401, None, "int"),
    ],
    "pbar": [
        ("kind", True, None, ("qv", "time"), None),
        ("drift", True, None, None, None),
        ("band", True, None, None, "_band"),
        ("payoff", True, None, _PAYOFFS, None),
        ("T", True, None, None, "_finite_float"),
        ("x", True, None, None, "_finite_float"),
        ("method", False, "both", ("pde", "mc", "both"), None),
        ("npaths", False, 20000, None, "int"),
        ("nsteps", False, 256, None, "int"),
        ("pieces", False, 2, None, "int"),
        ("levels", False, 3, None, "int"),
        ("nx", False, 401, None, "int"),
    ],
    "harnack": [
        ("drift", True, None, None, None),
        ("K", False, None, None, "_finite_float"),
        ("band", True, None, None, "_band"),
        ("p", True, None, None, "_finite_float"),
        ("T", True, None, None, "_finite_float"),
        ("x", True, None, None, "_finite_float"),
        ("y", True, None, None, "_finite_float"),
        ("payoff", True, None, _PAYOFFS, None),
    ],
    "shift-harnack": [
        ("drift", True, None, None, None),
        ("K", False, None, None, "_finite_float"),
        ("band", True, None, None, "_band"),
        ("p", True, None, None, "_finite_float"),
        ("T", True, None, None, "_finite_float"),
        ("x", True, None, None, "_finite_float"),
        ("v", True, None, None, "_finite_float"),
        ("payoff", True, None, _PAYOFFS, None),
    ],
    "coupling": [
        ("drift", False, "ou", None, None),
        ("band", True, None, None, "_band"),
        ("x", True, None, None, "_finite_float"),
        ("y", True, None, None, "_finite_float"),
        ("T", False, 1.0, None, "_finite_float"),
        ("p", False, 2.0, None, "_finite_float"),
        ("payoff", False, "sigmoid", _PAYOFFS, None),
        ("pieces", False, 2, None, "int"),
        ("levels", False, 3, None, "int"),
        ("npaths", False, 10000, None, "int"),
        ("nsteps", False, 4096, None, "int"),
    ],
    "kernels": [
        ("alpha", False, 2.0, None, "_finite_float"),
    ],
    "axioms": [
        ("drift", False, "zero", None, None),
        ("band", True, None, None, "_band"),
        ("T", False, 1.0, None, "_finite_float"),
    ],
}


class TestOptionSurface:
    """Each subcommand accepts exactly these options, with these parse rules,
    defaults and required flags, in this order."""

    @staticmethod
    def _subparsers():
        from gexp.cli import build_parser

        parser = build_parser()
        assert parser.allow_abbrev is False
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return subs.choices

    def test_subcommands(self):
        assert list(self._subparsers()) == list(_SURFACE)

    @pytest.mark.parametrize("command", list(_SURFACE))
    def test_options(self, command):
        sub = self._subparsers()[command]
        assert sub.allow_abbrev is False
        actions = [a for a in sub._actions if a.dest != "help"]
        assert [a.option_strings for a in actions] == [[f"--{a.dest}"] for a in actions]
        surface = [
            (a.dest, a.required, a.default, None if a.choices is None else tuple(a.choices),
             None if a.type is None else a.type.__name__)
            for a in actions
        ]
        assert surface == _SURFACE[command] + _COMMON


class TestReports:
    def test_gheat_json_schema(self):
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "sigmoid", "--T", "0.25",
             "--nx", "101", "--workers", "1"]
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
                "--nsteps", "16", "--nx", "101", "--workers", "1"]
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
             "--npaths", "4000", "--nsteps", "64", "--workers", "1"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["cross_check"]["pass"] is True
        assert abs(rep["pde_value"] - 0.5) < 2e-3

    def test_harnack_certificate_pass(self):
        code, out = run_cli(
            ["harnack", "--drift", "ou", "--band", "1,1", "--p", "2", "--T", "1",
             "--x", "0", "--y", "0.5", "--payoff", "sigmoid", "--workers", "1"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["pass"] is True

    def test_shift_harnack_certificate_pass(self):
        code, out = run_cli(
            ["shift-harnack", "--drift", "ou", "--band", "0.5,1", "--p", "2",
             "--T", "1", "--x", "0", "--v", "0.5", "--payoff", "bump",
             "--workers", "1"]
        )
        assert code == 0
        assert json.loads(out)["certificate"]["pass"] is True

    def test_coupling_report(self):
        code, out = run_cli(
            ["coupling", "--band", "1,1", "--x", "1", "--y", "0", "--T", "1",
             "--npaths", "500", "--nsteps", "512", "--pieces", "1",
             "--levels", "2", "--workers", "1"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"] is True
        assert len(rep["reports"]) == 1

    def test_axioms_pass(self):
        code, out = run_cli(["axioms", "--band", "0.5,1", "--workers", "1"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True


class TestRulesInOnePlace:
    """Every check reads the PDE error budget from gheat and the level of
    its Monte Carlo test from simulate, so each changes in one place."""

    def test_pde_budget(self, monkeypatch):
        monkeypatch.setattr(gexp.gheat, "PDE_BUDGET", 0.25)
        for args in (_HARNACK, _SHIFT):
            code, out = run_cli(args)
            assert code == 0
            assert json.loads(out)["certificate"]["tolerance_budget"] == 0.25
        code, out = run_cli(["axioms", "--band", "0.5,1", "--drift", "ou", "--workers", "1"])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert {c["limit"] for c in checks if c["check"].startswith("pde:")} == {0.25}
        code, out = run_cli(
            ["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1", "--payoff", "sigmoid",
             "--T", "1", "--x", "1", "--method", "both", "--npaths", "500", "--nsteps", "16",
             "--nx", "101", "--workers", "1"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["cross_check"]["budget"] == 0.25 * max(1.0, abs(rep["pde_value"]))

    def test_se_level(self, monkeypatch):
        # at 0 standard errors of slack, a Girsanov gap above zero fails
        monkeypatch.setattr(gexp.simulate, "SE_LEVEL", 0.0)
        code, out = run_cli(_COUPLING + ["--workers", "1"])
        assert code == 1
        reports = json.loads(out)["reports"]
        assert reports and not any(r["girsanov_pass"] for r in reports)


_PBAR = ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1", "--payoff", "one",
         "--T", "0.25", "--x", "0", "--npaths", "100", "--nsteps", "16", "--nx", "51"]


class TestConfigFile:
    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nnx = 51\nT = 0.25\npayoff = one\n")
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "sigmoid", "--T", "0.25",
             "--config", str(cfg), "--workers", "1"]
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

    def test_unknown_config_key_reported_as_written(self, tmp_path, capsys):
        # the key was reported as 'x_min', a name the user never wrote
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("x-min = 1\n")
        code, out = run_cli(_GHEAT + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "gexp: unknown configuration key 'x-min'\n"

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
        code, out = run_cli(["gheat", "--config", str(cfg), "--workers", "1"])
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
        "line, message",
        [(None, "unrecognized arguments: --sequential"),
         ("sequential = true", "unknown configuration key 'sequential'")],
        ids=["flag", "config"],
    )
    def test_sequential_exit_2(self, tmp_path, capsys, line, message):
        flags = ["--sequential"]
        if line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            flags = ["--config", str(cfg)]
        code, out = run_cli(
            ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25", "--nx", "11",
             *flags]
        )
        assert code == 2
        assert out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, line",
        [(["--workers", "0"], None), (["--workers", "-3"], None), ([], "workers = 0")],
        ids=["zero", "negative", "config"],
    )
    def test_workers_below_one_exit_2(self, tmp_path, capsys, flags, line):
        if line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            flags = ["--config", str(cfg)]
        code, out = run_cli(_PBAR + ["--method", "mc"] + flags)
        assert code == 2
        assert out == ""
        assert "argument --workers: must be at least 1" in capsys.readouterr().err

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
             "--npaths", "100", "--nsteps", "16", "--workers", "1"]
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 777

    @pytest.mark.parametrize("command", [_GHEAT, _PBAR], ids=["gheat", "pbar"])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys, command, source):
        # the seed is checked when it is parsed, before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a PDE solve ran before the seed check")

        # the handlers import these from gheat when they run
        monkeypatch.setattr(gexp.gheat, "solve", no_solve)
        monkeypatch.setattr(gexp.gheat, "pbar_pde", no_solve)
        extra, message = ["--seed", "-1"], "argument --seed: must be at least 0, got -1"
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            extra = ["--config", str(cfg)]
        elif source == "env":
            monkeypatch.setenv("GEXP_SEED", "-5")
            extra, message = [], "gexp: GEXP_SEED: must be at least 0, got -5"
        code, out = run_cli(command + extra)
        assert code == 2
        assert out == ""
        assert message in capsys.readouterr().err

    def test_bad_env_seed_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("GEXP_SEED", "abc")
        code, _ = run_cli(
            ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
             "--payoff", "one", "--T", "0.5", "--x", "0", "--method", "pde"]
        )
        assert code == 2
        assert "gexp: GEXP_SEED" in capsys.readouterr().err

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("GEXP_SEED", "777")
        code, out = run_cli(
            ["pbar", "--kind", "qv", "--drift", "zero", "--band", "1,1",
             "--payoff", "one", "--T", "0.5", "--x", "0", "--method", "mc",
             "--npaths", "100", "--nsteps", "16", "--seed", "5", "--workers", "1"]
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
        code1, _ = run_cli(args + ["--workers", "1", "--out", str(out1)])
        code2, _ = run_cli(args + ["--workers", "1", "--out", str(out2)])
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coupling_reports_independent_of_workers(self):
        # several path blocks, the last one partial, split differently by
        # the two worker counts
        args = ["coupling", "--band", "0.5,1", "--x", "0.5", "--y", "0",
                "--T", "1", "--npaths", str(2 * _BLOCK_PATHS + 123), "--nsteps", "32",
                "--pieces", "2", "--levels", "2"]
        code1, out1 = run_cli(args + ["--workers", "1"])
        code2, out2 = run_cli(args + ["--workers", "2"])
        assert code1 == code2
        assert len(json.loads(out1)["reports"]) == 4
        # the whole report, config block included
        assert out2 == out1

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
        code1, out1 = run_cli(args + ["--workers", "1"])
        code2, out2 = run_cli(args + ["--workers", "2"])
        assert code1 == code2 == 0
        # the whole report, config block included
        assert out2 == out1

    def test_out_file_matches_stdout(self, tmp_path):
        args = ["gheat", "--band", "1,1", "--payoff", "one", "--T", "0.25",
                "--nx", "11", "--workers", "1"]
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
        run as well.  tomllib is new in Python 3.11, so on 3.10 this skips."""
        tomllib = pytest.importorskip("tomllib")
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

    def test_no_command_loads_scipy(self):
        """gexp runs on numpy alone: importing it, running every command and
        the kernel suite leaves no scipy module loaded.  And each module
        loads on first use: the package root loads none, the CLI only core,
        and each command only its own modules, with the thread pool's
        concurrent.futures absent until the coupling runs and numpy.ma
        never loaded."""
        script = """
import contextlib, io, sys

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

import gexp
assert loaded("gexp") == ["gexp"], loaded("gexp")
import gexp.cli
assert loaded("gexp") == ["gexp", "gexp.cli", "gexp.core"], loaded("gexp")
assert not loaded("scipy"), loaded("scipy")[:3]
coupled = False
for argv, added in (
    (["gheat", "--band", "0.5,1", "--payoff", "sigmoid", "--T", "1"], ["gheat"]),
    (["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou",
      "--kind", "qv", "--x", "1", "--T", "1", "--method", "pde"], []),
    (["harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "sigmoid",
      "--p", "2", "--T", "1", "--x", "0", "--y", "0.7"], ["harnack"]),
    (["shift-harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "bump",
      "--p", "2", "--T", "1", "--x", "0", "--v", "0.5"], []),
    (["coupling", "--band", "0.5,1", "--x", "0", "--y", "1", "--npaths", "100",
      "--nsteps", "16"], ["coupling", "simulate"]),
    (["kernels"], ["kernels"]),
    (["axioms", "--band", "0.5,1", "--drift", "ou"], ["axioms"]),
):
    before = set(loaded("gexp"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = gexp.cli.main(argv + ["--workers", "1"])
    assert code == 0, (argv, code)
    new = sorted(set(loaded("gexp")) - before)
    assert new == ["gexp." + m for m in added], (argv[0], new)
    coupled = coupled or argv[0] == "coupling"
    assert ("concurrent.futures" in sys.modules) == coupled, argv[0]
    assert "numpy.ma" not in sys.modules, argv[0]
    assert not loaded("scipy"), (argv[0], loaded("scipy")[:3])
rep = gexp.run_kernel_suite()
assert rep.ex38.sum_dominance_violations == 0
assert not loaded("scipy"), loaded("scipy")[:3]
"""
        src = Path(gexp.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_never_imports_scipy(self):
        root = Path(gexp.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(n.split(".")[0] != "scipy" for n in names), (path.name, node.lineno)
