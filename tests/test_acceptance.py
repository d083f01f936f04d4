"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with its headline numbers.  Tolerances are pinned here and
must not be loosened without a recorded decision.
"""

import dataclasses
import json
import math
import time

import mpmath
import numpy as np
import pytest

from gexp import (
    Grid1D,
    Kind,
    McConfig,
    TestFunction,
    VolatilityBand,
    catalog,
    harnack_exponent,
    harnack_grid,
    make_drift,
    make_scenario_lattice,
    mt_moment_check,
    run_axioms,
    run_coupling_suite,
    run_kernel_suite,
    shift_harnack_exponent,
    shift_harnack_grid,
    solve,
)
from gexp.cli import main as cli_main
from gexp.kernels import ex38_probe, normal_expectation

from conftest import classical_params

mpmath.mp.dps = 50


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


class TestAcceptance:
    def test_1_classical_reduction(self):
        grid = Grid1D(-10.0, 10.0, 401)
        band = VolatilityBand(1.0, 1.0)
        t0 = time.time()
        worst = 0.0
        for did in ("zero", "ou"):
            spec = make_drift(did)
            for pid, f in catalog().items():
                sol = solve(f, band, 1.0, grid, spec)
                for x in (-1.0, 0.0, 1.0):
                    mean, var = classical_params(did, x)
                    oracle = normal_expectation(f, mean, var, 64)
                    rel = abs(sol.value_at(x) - oracle) / max(abs(oracle), 1e-12)
                    worst = max(worst, rel)
        elapsed = time.time() - t0
        ok = worst <= 2e-3 and elapsed < 10.0
        report(
            "1 classical reduction",
            ok,
            f"worst rel err {worst:.2e} (tol 2e-3), runtime {elapsed:.1f}s (< 10s)",
        )

    def test_2_gnormal_moments(self):
        grid = Grid1D(-10.0, 10.0, 401)
        band = VolatilityBand(0.5, 1.0)
        up = solve(catalog()["sqclip"], band, 1.0, grid).value_at(0.0)
        neg = TestFunction(
            "neg-sqclip",
            lambda x: -np.minimum(x**2, 25.0),
            positivity=False,
            bound=25.0,
        )
        dn = solve(neg, band, 1.0, grid).value_at(0.0)
        ok = abs(up - 1.0) <= 1e-2 and abs(dn - (-0.25)) <= 1e-2
        report(
            "2 G-normal moments",
            ok,
            f"upper {up:.4f} (want 1.00), lower {dn:.4f} (want -0.25), tol 1e-2",
        )

    def test_3_axioms_suite(self):
        result = run_axioms(
            make_drift("ou"), VolatilityBand(0.5, 1.0), mc=McConfig(4000, 128, 12345)
        )
        failing = [c["check"] for c in result["checks"] if not c["pass"]]
        report(
            "3 axioms suite",
            result["all_pass"],
            f"{len(result['checks'])} checks, failing: {failing or 'none'}",
        )

    def test_4_harnack_certificate_grid(self):
        bands = [VolatilityBand(1.0, 1.0), VolatilityBand(0.5, 1.0)]
        payoffs = list(catalog().values())
        dists = np.linspace(0.0, 1.0, 11)
        certs = []
        for did in ("ou", "tanh:1"):
            certs += harnack_grid(
                make_drift(did), payoffs, ps=[1.5, 2.0, 4.0],
                horizons=[0.5, 1.0], bands=bands, dists=dists,
            )
        failures = [c for c in certs if not c.passed]
        expo = harnack_exponent(2.0, 1.0, VolatilityBand(1.0, 1.0), 1.0, 1.0)
        oracle = float(2 / (1 - mpmath.e**-2))
        expo_ok = abs(expo - oracle) < 1e-9
        ok = not failures and expo_ok
        report(
            "4 Harnack certificate grid",
            ok,
            f"{len(certs)} certificates, {len(failures)} failures; "
            f"exponent {expo:.12f} vs 2/(1-e^-2) diff {abs(expo - oracle):.1e} (< 1e-9)",
        )

    def test_5_shift_harnack_certificate_grid(self):
        bands = [VolatilityBand(1.0, 1.0), VolatilityBand(0.5, 1.0)]
        payoffs = list(catalog().values())
        shifts = np.linspace(0.0, 1.0, 11)
        certs = []
        for did in ("ou", "tanh:1"):
            certs += shift_harnack_grid(
                make_drift(did), payoffs, ps=[1.5, 2.0, 4.0],
                horizons=[0.5, 1.0], bands=bands, shifts=shifts,
            )
        failures = [c for c in certs if not c.passed]
        expo = shift_harnack_exponent(2.0, 1.0, 1.0, 1.0, 1.0)
        oracle = float(mpmath.mpf(7) / 3)
        expo_ok = abs(expo - oracle) < 1e-12
        ok = not failures and expo_ok
        report(
            "5 shift-Harnack certificate grid",
            ok,
            f"{len(certs)} certificates, {len(failures)} failures; "
            f"exponent {expo:.12f} vs 7/3 diff {abs(expo - oracle):.1e} (< 1e-12)",
        )

    def test_6_coupling_suite(self):
        t0 = time.time()
        spec = make_drift("ou")  # K = 1
        x, y, horizon, p = 1.0, 0.0, 1.0, 2.0
        payoff = catalog()["sigmoid"]
        problems = []
        # both bands' scenarios in one sweep, which draws the normals once
        scenarios = [
            sc
            for band in (VolatilityBand(0.5, 1.0), VolatilityBand(1.0, 1.0))
            for sc in make_scenario_lattice(band, horizon, 2, 3)
        ]
        n_scen = len(scenarios)
        reports = run_coupling_suite(
            spec, x, y, horizon, scenarios,
            McConfig(10_000, 4096, 12345), p, payoff,
            girsanov_paths=100_000,
        )
        for rep in reports:
            if rep.coupling_gap > 1e-2 * abs(x - y):
                problems.append(f"{rep.scenario}: gap {rep.coupling_gap:.2e}")
            if rep.novikov_pathwise_max > rep.novikov_bound * (1 + 1e-9):
                problems.append(f"{rep.scenario}: Novikov overshoot")
            if rep.girsanov_identity_gap > 3.0 * rep.girsanov_std_error:
                problems.append(
                    f"{rep.scenario}: Girsanov gap {rep.girsanov_identity_gap:.2e}"
                    f" > 3se {3 * rep.girsanov_std_error:.2e}"
                )
            if not mt_moment_check(rep)[0]:
                problems.append(f"{rep.scenario}: moment bound")
        elapsed = time.time() - t0
        ok = not problems and elapsed < 120.0
        report(
            "6 coupling suite",
            ok,
            f"{n_scen} scenarios, problems: {problems or 'none'}, "
            f"runtime {elapsed:.0f}s (< 120s)",
        )

    def test_7_kernel_suite(self):
        rep = run_kernel_suite(alpha=2.0)
        problems = []
        if rep.dominance["violations"] != 0:
            problems.append(f"dominance violations {rep.dominance['violations']}")
        for pid, g in rep.quasi_invariance_gaps.items():
            if g > 1e-6:
                problems.append(f"quasi-invariance {pid}: {g:.2e}")
        for key, g in rep.member_invariance_gaps.items():
            if abs(g) > 1e-8:
                problems.append(f"member invariance {key}: {g:.2e}")
        for key, m in rep.lower_bound_margins.items():
            if m < 0.0:
                problems.append(f"lower bound {key}: {m:.2e}")
        report("7 kernel suite", not problems, f"problems: {problems or 'none'}")

    def test_8_ex38_probe(self):
        rep_a = ex38_probe()
        rep_b = ex38_probe()
        deterministic = (
            rep_a.printed_violation_rows == rep_b.printed_violation_rows
            and rep_a.printed_violations == rep_b.printed_violations
        )
        v1, v2 = 1.0 - math.exp(-1.0), 1.0 - math.exp(-2.0)
        lhs = 1.0 / math.sqrt(2.0 * math.pi * v1) + 1.0 / math.sqrt(2.0 * math.pi * v2)
        rhs = 1.0 / math.sqrt(2.0 * math.pi * v1)
        origin_ok = (
            abs(rep_a.origin_lhs - lhs) < 1e-12 and abs(rep_a.origin_rhs - rhs) < 1e-12
        )
        ok = (
            deterministic
            and rep_a.sum_dominance_violations == 0
            and origin_ok
            and len(rep_a.printed_violation_rows) > 0
        )
        report(
            "8 density-bound probe",
            ok,
            f"violation table rows {len(rep_a.printed_violation_rows)} "
            f"(printed-bound failures {rep_a.printed_violations}), "
            f"sum-dominance violations {rep_a.sum_dominance_violations}, "
            f"origin closed-form match {origin_ok}",
        )

    def test_9_reproducibility(self, tmp_path):
        cases = {
            "gheat": ["gheat", "--band", "0.5,1", "--payoff", "sigmoid",
                      "--T", "0.5", "--nx", "101"],
            "pbar": ["pbar", "--kind", "qv", "--drift", "ou", "--band", "0.5,1",
                     "--payoff", "sigmoid", "--T", "0.5", "--x", "0.5",
                     "--npaths", "1000", "--nsteps", "64"],
            "harnack": ["harnack", "--drift", "ou", "--band", "0.5,1",
                        "--p", "2", "--T", "0.5", "--x", "0", "--y", "0.5",
                        "--payoff", "sigmoid"],
            "shift-harnack": ["shift-harnack", "--drift", "ou", "--band",
                              "0.5,1", "--p", "2", "--T", "0.5", "--x", "0",
                              "--v", "0.5", "--payoff", "bump"],
            "coupling": ["coupling", "--band", "0.5,1", "--x", "0.5", "--y",
                         "0", "--T", "1", "--npaths", "200", "--nsteps", "256",
                         "--pieces", "2", "--levels", "2"],
            "kernels": ["kernels"],
            "axioms": ["axioms", "--band", "0.5,1"],
        }
        mismatched = []
        for name, args in cases.items():
            a = tmp_path / f"{name}-a.json"
            b = tmp_path / f"{name}-b.json"
            code_a = cli_main(args + ["--workers", "1", "--out", str(a)])
            code_b = cli_main(args + ["--workers", "1", "--out", str(b)])
            if code_a != code_b or a.read_bytes() != b.read_bytes():
                mismatched.append(name)
        report(
            "9 reproducibility",
            not mismatched,
            f"{len(cases)} subcommands byte-compared, mismatches: {mismatched or 'none'}",
        )
