"""Sublinear-expectation axioms (monotonicity, constant preservation,
subadditivity, positive homogeneity) checked against both backends.

The Monte Carlo estimator shares its normal draws across payoffs, so the
axioms hold exactly (to round-off) there; the PDE backend satisfies them up
to the scheme tolerance.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GsdeSpec,
    McConfig,
    TestFunction,
    VolatilityBand,
    catalog,
    make_scenario_lattice,
)
from .gheat import Grid1D, safe_window, solve_batch
from .simulate import _estimate, _terminal_states

__all__ = ["run_axioms"]

MC_TOL = 1e-11
PDE_TOL = 2e-3


def _window_mask(grid: Grid1D, band, horizon):
    lo, hi = safe_window(grid, band, horizon)
    return (grid.xs >= lo) & (grid.xs <= hi)


_SUMS = (("sigmoid", "bump"), ("cauchy", "sqclip"))
_SCALED = ("sigmoid", "sqclip")
_LAM = 2.5


def _pde_checks(spec, band, horizon, grid, payoffs, tol):
    # one stacked solve: the catalog, then the sums, then the scalings
    rows = [
        *payoffs.values(),
        *(payoffs[a].plus(payoffs[b]) for a, b in _SUMS),
        *(payoffs[pid].scaled(_LAM) for pid in _SCALED),
    ]
    mask = _window_mask(grid, band, horizon)
    sols = iter(solve_batch(rows, band, horizon, grid, spec))
    val = {pid: next(sols).values[mask] for pid in payoffs}
    checks = []

    def record(name, violation, limit):
        checks.append(
            {"check": name, "violation": float(violation), "limit": limit,
             "pass": bool(violation <= limit)}
        )

    # monotonicity: the sub-unit catalog members are dominated by the constant 1
    for pid in ("sigmoid", "cauchy", "bump"):
        record(f"pde:monotone:one>={pid}", np.max(val[pid] - val["one"]), tol)
    # constant preservation
    record("pde:constant", np.max(np.abs(val["one"] - 1.0)), tol)
    # subadditivity and homogeneity on representative pairs
    for a, b in _SUMS:
        s = next(sols).values[mask]
        record(f"pde:subadd:{a}+{b}", np.max(s - (val[a] + val[b])), tol)
    for pid in _SCALED:
        s = next(sols).values[mask]
        scale = max(1.0, float(np.max(np.abs(val[pid]))))
        record(f"pde:homogeneous:{pid}", np.max(np.abs(s - _LAM * val[pid])) / scale, tol)
    return checks


def _mc_checks(spec, band, horizon, payoffs, mc, pieces, levels, tol, workers):
    # one sweep: every payoff, sum and scaling is evaluated on the same states
    scenarios = make_scenario_lattice(band, horizon, pieces, levels)
    states = _terminal_states(spec, 0.0, horizon, scenarios, mc, workers)
    est = {pid: _estimate(f, states, scenarios, mc) for pid, f in payoffs.items()}
    checks = []

    def record(name, violation, limit):
        checks.append(
            {"check": name, "violation": float(violation), "limit": limit,
             "pass": bool(violation <= limit)}
        )

    for pid in ("sigmoid", "cauchy", "bump"):
        record(f"mc:monotone:one>={pid}", est[pid].value - est["one"].value, 0.0)
    record("mc:constant", abs(est["one"].value - 1.0), 0.0)
    for a, b in _SUMS:
        s = _estimate(payoffs[a].plus(payoffs[b]), states, scenarios, mc)
        record(f"mc:subadd:{a}+{b}", s.value - (est[a].value + est[b].value), tol)
    for pid in _SCALED:
        s = _estimate(payoffs[pid].scaled(_LAM), states, scenarios, mc)
        scale = max(1.0, abs(est[pid].value))
        record(f"mc:homogeneous:{pid}", abs(s.value - _LAM * est[pid].value) / scale, tol)
    return checks


def run_axioms(
    spec: GsdeSpec,
    band: VolatilityBand,
    horizon: float = 1.0,
    grid: Grid1D | None = None,
    mc: McConfig | None = None,
    pieces: int = 2,
    levels: int = 2,
    pde_tol: float = PDE_TOL,
    mc_tol: float = MC_TOL,
    workers: int | None = None,
) -> dict:
    """Run the axiom suite on the full payoff catalog for both backends.

    The Monte Carlo checks evaluate every payoff on one scenario-max sweep,
    whose path blocks run on `workers` threads (default os.cpu_count()); the
    result is the same for every worker count."""
    grid = grid or Grid1D()
    mc = mc or McConfig(n_paths=4000, n_steps=128)
    payoffs = catalog()
    checks = _pde_checks(spec, band, horizon, grid, payoffs, pde_tol)
    checks += _mc_checks(
        spec, band, horizon, payoffs, mc, pieces, levels, mc_tol, workers
    )
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
