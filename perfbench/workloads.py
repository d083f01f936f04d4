"""The three benchmark workloads.

Each workload has a ``setup(seed, out_dir)`` that builds its inputs, a pass
function that runs one pass of work as a fixed sequence of calls (the pass's
units), each through ``clock(name, fn, *args)``, which times it and returns
its result, and a check function that counts the outputs it verified.  Checks
use only the pass/fail outcomes of the program's own certificates and
bounds, never particular values of the random stream, so a change of the
stream does not read as a failure.

This module imports ``gexp`` inside ``setup`` only, so that set-up time
includes importing the package.
"""

from __future__ import annotations

import json
import math
import os

BAND = (0.5, 1.0)
HORIZON = 1.0

# pde-sweep: two exponents keep a pass near 4-6 s, so that a run holds five
# or more passes to take medians over
PS = (2.0, 4.0)
N_GRID_POINTS = 6  # distances and shifts linspace(0, 1, 6)

# mc-sweep
COUPLING_X, COUPLING_Y, COUPLING_P = 1.0, 0.0, 2.0
COUPLING_PATHS, GIRSANOV_PATHS, MC_STEPS = 10_000, 40_000, 256
PBAR_X, PBAR_PATHS = 1.0, 20_000
PBAR_PAYOFFS = ("sigmoid", "bump", "sqclip")
# standard errors allowed by the benchmark's statistical checks.  The
# Girsanov statistic is heavy-tailed (importance weights with a second moment
# near 12 in the CLI configuration): over 400 seeds of `gexp coupling
# --nsteps 512`, 25 exceeded 3 standard errors and the largest was 5.01,
# although the estimator is unbiased.  Dropping the weight would miss by
# about 7 standard errors there and about 14 in mc-sweep, so that still fails.
N_SIGMA = 6.0

# cli-session: the README quick-start commands
CLI_COMMANDS = {
    "gheat": ["gheat", "--band", "0.5,1", "--payoff", "sigmoid", "--T", "1"],
    "pbar": ["pbar", "--band", "0.5,1", "--payoff", "sigmoid", "--drift", "ou",
             "--kind", "qv", "--x", "1", "--T", "1"],
    "harnack": ["harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "sigmoid",
                "--p", "2", "--T", "1", "--x", "0", "--y", "0.7"],
    "shift-harnack": ["shift-harnack", "--band", "0.5,1", "--drift", "ou", "--payoff", "bump",
                      "--p", "2", "--T", "1", "--x", "0", "--v", "0.5"],
    "coupling": ["coupling", "--band", "0.5,1", "--drift", "ou", "--x", "0", "--y", "1",
                 "--T", "1", "--p", "2", "--payoff", "sigmoid", "--nsteps", "512"],
    "kernels": ["kernels"],
    "axioms": ["axioms", "--band", "0.5,1", "--drift", "ou"],
}


class Checks:
    """Counts checked operations and records what failed, plus notes on
    program flags that the benchmark re-checks at N_SIGMA."""

    def __init__(self):
        self.total = 0
        self.failures = []
        self.notes = []

    def op(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.failures.append(what)


def coupling_ok(r: dict, moment_ok: bool) -> bool:
    """A coupling report's four checks: the coupling gap, the pathwise
    Novikov ceiling, the Girsanov identity (at N_SIGMA) and the M_T moment."""
    return (
        r["coupling_gap"] <= 1e-2 * abs(r["x"] - r["y"])
        and r["novikov_pathwise_max"] <= r["novikov_bound"] * (1 + 1e-9)
        and r["girsanov_identity_gap"] <= N_SIGMA * r["girsanov_std_error"]
        and moment_ok
    )


def pbar_ok(value: float, argmax_std_error: float, pde: float) -> bool:
    """The CLI's pbar cross-check, at N_SIGMA: a scenario-max value is a
    lower-bound estimate, so only an excess over the PDE value fails."""
    return value - pde <= max(N_SIGMA * argmax_std_error, 2e-3 * max(1.0, abs(pde)))


# -- pde-sweep -----------------------------------------------------------------

def setup_pde_sweep(seed: int, out_dir: str) -> dict:
    """Deterministic: the seed is not used."""
    import gexp
    import numpy as np

    return {
        "gexp": gexp,
        "spec": gexp.make_drift("ou"),
        "band": gexp.VolatilityBand(*BAND),
        "payoffs": list(gexp.catalog().values()),
        "points": np.linspace(0.0, 1.0, N_GRID_POINTS),
    }


def pass_pde_sweep(s: dict, clock) -> list:
    """One grid call per kind and payoff: the same solves as one call over
    all payoffs, because the grids loop over payoffs outside p and points."""
    g = s["gexp"]
    certs = []
    for grid_fn in (g.harnack_grid, g.shift_harnack_grid):
        for f in s["payoffs"]:
            certs += clock(
                f"{grid_fn.__name__}:{f.id}", grid_fn,
                s["spec"], [f], list(PS), [HORIZON], [s["band"]], s["points"],
            )
    return certs


def check_pde_sweep(s: dict, certs: list, checks: Checks) -> None:
    for c in certs:
        checks.op(c.passed, f"{c.kind} {c.payoff_id} p={c.p:g} at {c.y_or_shift:g}")


# -- mc-sweep ------------------------------------------------------------------

def setup_mc_sweep(seed: int, out_dir: str) -> dict:
    import gexp

    spec = gexp.make_drift("ou")
    band = gexp.VolatilityBand(*BAND)
    catalog = gexp.catalog()
    payoffs = {pid: catalog[pid] for pid in PBAR_PAYOFFS}
    return {
        "gexp": gexp,
        "spec": spec,
        "band": band,
        "scenarios": gexp.make_scenario_lattice(band, HORIZON, pieces=2, levels=3),
        "sigmoid": catalog["sigmoid"],
        "payoffs": payoffs,
        "coupling_mc": gexp.McConfig(COUPLING_PATHS, MC_STEPS, seed),
        "pbar_mc": gexp.McConfig(PBAR_PATHS, MC_STEPS, seed),
        # PDE reference values, solved once so that no timed work is PDE
        "pde": {
            pid: gexp.pbar_pde(spec, f, PBAR_X, HORIZON, band)
            for pid, f in payoffs.items()
        },
    }


def mc_sweep_path_steps(s: dict) -> int:
    """Path·step·scenarios of one pass, counted from the configurations."""
    n_sc = len(s["scenarios"])
    coupling = n_sc * (COUPLING_PATHS + GIRSANOV_PATHS) * MC_STEPS
    pbar = len(s["payoffs"]) * n_sc * PBAR_PATHS * MC_STEPS
    return coupling + pbar


def pass_mc_sweep(s: dict, clock) -> tuple:
    g = s["gexp"]
    reports = clock(
        "run_coupling_suite", g.run_coupling_suite,
        s["spec"], COUPLING_X, COUPLING_Y, HORIZON, s["scenarios"], s["coupling_mc"],
        COUPLING_P, s["sigmoid"], girsanov_paths=GIRSANOV_PATHS,
    )
    estimates = {
        pid: clock(
            f"pbar_mc:{pid}", g.pbar_mc,
            s["spec"], f, PBAR_X, HORIZON, s["scenarios"], s["pbar_mc"],
        )
        for pid, f in s["payoffs"].items()
    }
    return reports, estimates


def check_mc_sweep(s: dict, outputs: tuple, checks: Checks) -> None:
    g = s["gexp"]
    reports, estimates = outputs
    for r in reports:
        ok = coupling_ok(r.to_dict(), g.mt_moment_check(r)[0])
        checks.op(ok, f"coupling report {r.scenario}")
    for pid, est in estimates.items():
        ok = pbar_ok(est.value, est.argmax_std_error, s["pde"][pid])
        checks.op(ok, f"pbar_mc {pid}: {est.value} against PDE {s['pde'][pid]}")


# -- cli-session ---------------------------------------------------------------

def setup_cli_session(seed: int, out_dir: str) -> dict:
    from gexp import cli

    argvs = {
        name: argv + ["--seed", str(seed), "--out", os.path.join(out_dir, f"{name}.json")]
        for name, argv in CLI_COMMANDS.items()
    }
    return {"cli": cli, "argvs": argvs}


def _cli_report_ok(name: str, report: dict) -> bool:
    if name == "gheat":
        values = [u for _, u in report["values"]]
        # a monotone scheme keeps the sigmoid solution inside [0, 1]
        return report["n_steps"] >= 1 and all(
            math.isfinite(u) and -1e-12 <= u <= 1.0 + 1e-12 for u in values
        )
    if name == "pbar":
        per = report["mc"]["per_scenario"]
        best = max(per, key=lambda m: m["mean"])
        return pbar_ok(report["mc"]["value"], best["std_error"], report["pde_value"])
    if name == "coupling":
        return all(coupling_ok(r, r["mt_moment_pass"]) for r in report["reports"])
    if name in ("harnack", "shift-harnack"):
        return report["certificate"]["pass"] is True
    return report["all_pass"] is True


def pass_cli_session(s: dict, clock) -> dict:
    """Runs every command once; the outputs are the exit codes per command."""
    return {name: clock(name, s["cli"].main, list(argv)) for name, argv in s["argvs"].items()}


# commands whose exit code 1 may come from a 3-standard-error flag alone;
# their reports are re-checked at N_SIGMA
STATISTICAL = ("pbar", "coupling")


def check_cli_session(s: dict, codes: dict, checks: Checks) -> None:
    for name, code in codes.items():
        ok = code == 0 or (code == 1 and name in STATISTICAL)
        if ok:
            with open(s["argvs"][name][-1]) as fh:
                ok = _cli_report_ok(name, json.load(fh))
        if ok and code == 1:
            checks.notes.append(
                f"gexp {name} exited 1 on its 3-standard-error flag; "
                f"the report passes at {N_SIGMA:g}"
            )
        checks.op(ok, f"gexp {name} exited {code}")


# the reference kernel (reference.KERNELS) that each workload's unit times
# are divided by: the one shaped like the work that dominates the pass
REFERENCE = {
    "pde-sweep": "grid",
    "mc-sweep": "path",
    "cli-session": "path",
}
SETUP = {
    "pde-sweep": setup_pde_sweep,
    "mc-sweep": setup_mc_sweep,
    "cli-session": setup_cli_session,
}
PASS = {
    "pde-sweep": pass_pde_sweep,
    "mc-sweep": pass_mc_sweep,
    "cli-session": pass_cli_session,
}
CHECK = {
    "pde-sweep": check_pde_sweep,
    "mc-sweep": check_mc_sweep,
    "cli-session": check_cli_session,
}
