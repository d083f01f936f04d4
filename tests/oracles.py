"""Per-scenario Monte Carlo oracles for the batched steppers.

Each oracle advances one scenario with its own allocating per-step
arithmetic, so it shares no stepping code with `simulate._sweep_blocks`:

* `simulate_paths` is the per-scenario reference for `pbar_mc`, whose
  per-scenario terminal states equal it bit for bit;
* `run_coupling` is the per-scenario reference for `run_coupling_suite`,
  which orders its floating-point operations differently and agrees to
  round-off.

`eta_merge_defect` measures how far the discretized forcing schedule of
`coupling.eta_schedule` misses its merge target.
"""

from __future__ import annotations

import math

import numpy as np

from gexp.core import GsdeSpec, Kind, McConfig, Scenario, TestFunction
from gexp.coupling import (
    CouplingReport,
    _mt_moment_bound,
    eta_schedule,
    novikov_pathwise_bound,
)
from gexp.simulate import _generator


def eta_merge_defect(
    scenario: Scenario,
    K: float,
    dist: float,
    horizon: float,
    n_steps: int,
) -> float:
    """Residual of int_0^T e^{-K qv} eta d(qv) - dist for the discretized
    schedule; midpoint quadrature makes this O(1/n_steps^2)."""
    if dist == 0.0:
        return 0.0
    eta = eta_schedule(scenario, K, 0.0, dist, horizon, n_steps)
    ts = np.linspace(0.0, horizon, n_steps + 1)
    qv_nodes = scenario.qv(ts)
    qv_mid = scenario.qv((ts[:-1] + ts[1:]) / 2.0)
    integral = float(np.sum(np.exp(-K * qv_mid) * eta * np.diff(qv_nodes)))
    return integral - dist


def simulate_paths(spec: GsdeSpec, x0: float, scenario: Scenario, mc: McConfig):
    """Terminal values X_T of the Euler-Maruyama ensemble on the uniform grid
    h = T / n_steps.

    Per step with scenario level v the increment is
      qv-driven:   dX = b(X) v h + sqrt(v h) Z
      time-driven: dX = b(X) h   + sqrt(v h) Z
    """
    T = scenario.horizon
    h = T / mc.n_steps
    levels = scenario.step_levels(mc.n_steps)
    rng = _generator(mc.seed)
    x = np.full(mc.n_paths, float(x0))
    for i in range(mc.n_steps):
        v = levels[i]
        z = rng.standard_normal(mc.n_paths)
        if spec.kind is Kind.QV_DRIVEN:
            x = x + spec.b(x) * (v * h) + np.sqrt(v * h) * z
        else:
            x = x + spec.b(x) * h + np.sqrt(v * h) * z
        if (i & 255) == 255 and not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state at step {i}")
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"non-finite state at step {mc.n_steps}")
    return x


def run_coupling(
    spec: GsdeSpec,
    x: float,
    y: float,
    horizon: float,
    scenario: Scenario,
    mc: McConfig,
    p: float,
    payoff: TestFunction,
) -> CouplingReport:
    """Simulate the coupled pair (X, Y) with shared noise, the density M_T,
    and the reference process started at y, then fill every diagnostic.

    The coupling time is detected on the grid as the first step where X - Y
    changes sign or falls below the merge tolerance; Y is slaved to X
    afterwards (the continuous construction merges exactly, on a grid only
    approximate merging is observable).
    """
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the coupling construction targets the qv-driven equation")
    if p <= 1:
        raise ValueError("p must exceed 1")
    K = spec.lipschitz_k

    n, m = mc.n_paths, mc.n_steps
    h = horizon / m
    levels = scenario.step_levels(m)
    eta = eta_schedule(scenario, K, x, y, horizon, m)
    merge_tol = 1e-10 * (1.0 + abs(x - y))

    rng = _generator(mc.seed)
    X = np.full(n, float(x))
    Y = np.full(n, float(y))
    Xref = np.full(n, float(y))  # same equation, started at y, same noise
    log_m = np.zeros(n)
    nov_int = np.zeros(n)
    merged = np.zeros(n, dtype=bool) if x != y else np.ones(n, dtype=bool)

    for i in range(m):
        v = levels[i]
        vh = v * h
        sq = math.sqrt(vh)
        z = rng.standard_normal(n)
        db = sq * z
        u = np.where(merged, 0.0, eta[i] * np.sign(X - Y))
        Xn = X + spec.b(X) * vh + db
        Yn = Y + spec.b(Y) * vh + db + u * vh
        log_m -= u * db + 0.5 * u**2 * vh
        nov_int += u**2 * vh
        gap_old = X - Y
        gap_new = Xn - Yn
        just_merged = (~merged) & (
            (np.sign(gap_new) * np.sign(gap_old) <= 0.0)
            | (np.abs(gap_new) <= merge_tol)
        )
        merged = merged | just_merged
        Y = np.where(merged, Xn, Yn)
        X = Xn
        Xref = Xref + spec.b(Xref) * vh + db
        if (i & 255) == 255 and not (
            np.all(np.isfinite(X)) and np.all(np.isfinite(Y)) and np.all(np.isfinite(Xref))
        ):
            raise RuntimeError(f"non-finite state at step {i}")

    M = np.exp(log_m)
    # the removed-drift identity reads E[M_T f(Y_T)] = E[f(X~_T^y)]; after a
    # successful coupling Y_T coincides with X_T
    fY = np.asarray(payoff(Y), dtype=float)
    fRef = np.asarray(payoff(Xref), dtype=float)
    lhs_vals = M * fY
    lhs_mean = float(np.mean(lhs_vals))
    rhs_mean = float(np.mean(fRef))
    se = lambda a: float(np.std(a, ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    q = p / (p - 1.0)
    mt_vals = np.exp(q * log_m)

    return CouplingReport(
        scenario=scenario.label,
        x=x,
        y=y,
        horizon=horizon,
        p=p,
        payoff_id=payoff.id,
        n_paths=n,
        n_steps=m,
        seed=mc.seed,
        coupling_gap=float(np.max(np.abs(X - Y))),
        novikov_pathwise_max=float(np.exp(np.max(nov_int))),
        novikov_bound=novikov_pathwise_bound(K, scenario.band, horizon, abs(x - y)),
        girsanov_identity_gap=abs(lhs_mean - rhs_mean),
        girsanov_std_error=math.hypot(se(lhs_vals), se(fRef)),
        mt_moment=float(np.mean(mt_vals)),
        mt_moment_std_error=se(mt_vals),
        mt_moment_bound=_mt_moment_bound(
            p, K, scenario.band, horizon, abs(x - y)
        ),
        m_mean=float(np.mean(M)),
        m_std_error=se(M),
    )
