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
    VolatilityBand,
    catalog,
    make_scenario_lattice,
)
from .gheat import Grid1D, safe_window, solve_batch
from .simulate import _estimate, _terminal_states

__all__ = ["run_axioms"]

MC_TOL = 1e-11
PDE_TOL = 2e-3


_SUMS = (("sigmoid", "bump"), ("cauchy", "sqclip"))
_SCALED = ("sigmoid", "sqclip")
_LAM = 2.5


def _check(name, violation, limit) -> dict:
    return {"check": name, "violation": float(violation), "limit": limit,
            "pass": bool(violation <= limit)}


def _pde_checks(spec, band, horizon, payoffs):
    # one stacked solve on the default grid: the catalog, then the sums, then
    # the scalings
    grid = Grid1D()
    lo, hi = safe_window(grid, band, horizon)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    rows = [
        *payoffs.values(),
        *(payoffs[a].plus(payoffs[b]) for a, b in _SUMS),
        *(payoffs[pid].scaled(_LAM) for pid in _SCALED),
    ]
    sols = iter(solve_batch(rows, band, horizon, grid, spec))
    val = {pid: next(sols).values[mask] for pid in payoffs}
    # monotonicity: the sub-unit catalog members are dominated by the constant 1
    for pid in ("sigmoid", "cauchy", "bump"):
        yield _check(f"pde:monotone:one>={pid}", np.max(val[pid] - val["one"]), PDE_TOL)
    # constant preservation
    yield _check("pde:constant", np.max(np.abs(val["one"] - 1.0)), PDE_TOL)
    # subadditivity and homogeneity on representative pairs
    for a, b in _SUMS:
        s = next(sols).values[mask]
        yield _check(f"pde:subadd:{a}+{b}", np.max(s - (val[a] + val[b])), PDE_TOL)
    for pid in _SCALED:
        s = next(sols).values[mask]
        scale = max(1.0, float(np.max(np.abs(val[pid]))))
        yield _check(
            f"pde:homogeneous:{pid}", np.max(np.abs(s - _LAM * val[pid])) / scale, PDE_TOL
        )


def _mc_checks(spec, band, horizon, payoffs, mc, workers):
    # one sweep: every payoff, sum and scaling is evaluated on the same states
    scenarios = make_scenario_lattice(band, horizon, pieces=2, levels=2)
    states = _terminal_states(spec, 0.0, horizon, scenarios, mc, workers)
    est = {pid: _estimate(f, states, scenarios, mc) for pid, f in payoffs.items()}
    for pid in ("sigmoid", "cauchy", "bump"):
        yield _check(f"mc:monotone:one>={pid}", est[pid].value - est["one"].value, 0.0)
    yield _check("mc:constant", abs(est["one"].value - 1.0), 0.0)
    for a, b in _SUMS:
        s = _estimate(payoffs[a].plus(payoffs[b]), states, scenarios, mc)
        yield _check(f"mc:subadd:{a}+{b}", s.value - (est[a].value + est[b].value), MC_TOL)
    for pid in _SCALED:
        s = _estimate(payoffs[pid].scaled(_LAM), states, scenarios, mc)
        scale = max(1.0, abs(est[pid].value))
        yield _check(
            f"mc:homogeneous:{pid}", abs(s.value - _LAM * est[pid].value) / scale, MC_TOL
        )


def run_axioms(
    spec: GsdeSpec,
    band: VolatilityBand,
    horizon: float = 1.0,
    mc: McConfig | None = None,
    workers: int | None = None,
) -> dict:
    """Run the axiom suite on the full payoff catalog for both backends.

    The Monte Carlo checks evaluate every payoff on one scenario-max sweep,
    whose path blocks run on `workers` threads (default os.cpu_count()); the
    result is the same for every worker count."""
    mc = mc or McConfig(n_paths=4000, n_steps=128)
    payoffs = catalog()
    checks = [
        *_pde_checks(spec, band, horizon, payoffs),
        *_mc_checks(spec, band, horizon, payoffs, mc, workers),
    ]
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
