"""Sublinear-expectation axioms (monotonicity, constant preservation,
subadditivity, positive homogeneity) checked against both backends.

One payoff table, the catalog with a few sums and scalings, is valued by
each backend, and the same rules run over both value tables.  The Monte
Carlo estimator shares its normal draws across payoffs, so the axioms hold
exactly (to round-off) there; the PDE backend satisfies them up to its
error budget, gheat.PDE_BUDGET.
"""

from __future__ import annotations

import numpy as np

from . import gheat
from .core import GsdeSpec, McConfig, VolatilityBand, catalog, make_scenario_lattice
from .gheat import Grid1D, require_safe, safe_window, solve_batch
from .simulate import _estimate, _terminal_states

__all__ = ["run_axioms"]

MC_TOL = 1e-11


_SUMS = (("sigmoid", "bump"), ("cauchy", "sqclip"))
_SCALED = ("sigmoid", "sqclip")
_LAM = 2.5


def _check(name, violation, limit) -> dict:
    return {"check": name, "violation": float(violation), "limit": limit,
            "pass": bool(violation <= limit)}


def _rules(backend, val, exact, tol):
    """The checks of one backend over its value table `val` (payoff id ->
    value: a scalar, or an array over the points checked): monotonicity and
    constant preservation within `exact`, subadditivity and homogeneity on
    representative pairs within `tol`."""
    one = val["one"]
    # the sub-unit catalog members are dominated by the constant 1
    for pid in ("sigmoid", "cauchy", "bump"):
        yield _check(f"{backend}:monotone:one>={pid}", np.max(val[pid] - one), exact)
    yield _check(f"{backend}:constant", np.max(np.abs(one - 1.0)), exact)
    for a, b in _SUMS:
        excess = np.max(val[f"{a}+{b}"] - (val[a] + val[b]))
        yield _check(f"{backend}:subadd:{a}+{b}", excess, tol)
    for pid in _SCALED:
        scale = max(1.0, float(np.max(np.abs(val[pid]))))
        gap = np.max(np.abs(val[f"{_LAM:g}*{pid}"] - _LAM * val[pid])) / scale
        yield _check(f"{backend}:homogeneous:{pid}", gap, tol)


def run_axioms(
    spec: GsdeSpec,
    band: VolatilityBand,
    horizon: float = 1.0,
    *,
    mc: McConfig,
    workers: int | None = None,
) -> dict:
    """Run the axiom suite on the full payoff catalog for both backends.

    The PDE values come from one stacked solve on the default grid, read on
    its safe window.  The Monte Carlo values come from one scenario-max
    sweep, whose path blocks run on `workers` threads (default
    os.cpu_count()); the result is the same for every worker count."""
    # the catalog, then the sums, then the scalings, by payoff id
    cat = catalog()
    sums = (cat[a].plus(cat[b]) for a, b in _SUMS)
    table = {f.id: f for f in (*cat.values(), *sums, *(cat[p].scaled(_LAM) for p in _SCALED))}
    grid = Grid1D()
    require_safe(0.0, grid, band, horizon)  # an empty window is a ValueError
    lo, hi = safe_window(grid, band, horizon)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    sols = solve_batch(list(table.values()), band, horizon, grid, spec)
    pde = {pid: sol.values[mask] for pid, sol in zip(table, sols)}
    scenarios = make_scenario_lattice(band, horizon, pieces=2, levels=2)
    states = _terminal_states(spec, 0.0, horizon, scenarios, mc, workers)
    est = {pid: _estimate(f, states, scenarios, mc).value for pid, f in table.items()}
    budget = gheat.PDE_BUDGET
    checks = [*_rules("pde", pde, budget, budget), *_rules("mc", est, 0.0, MC_TOL)]
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
