"""Executable coupling-by-change-of-measure: the second process Y is forced
onto X by an added drift before the horizon, the forcing is removed by a
Girsanov density M_T, and the Novikov / moment bounds are checked pathwise
and in expectation, scenario by scenario.

The coupling time is detected on the grid as the first step where X - Y
changes sign or falls below the merge tolerance; Y is slaved to X afterwards
(the continuous construction merges exactly, on a grid only approximate
merging is observable).  Until then X - Y keeps the sign s0 of x - y, so the
forcing u = eta s0 is one number per scenario and step (see _advance_block).

The drift schedule eta is deterministic given a scenario (the quadratic
variation is then a known function of time), so the Novikov integral is a
deterministic quantity; paths only differ through the detected coupling
time, which can only shrink it.  eta is evaluated at step midpoints: for
the convex integrand exp(-2K qv(t)) the midpoint rule under-estimates, so
the discrete Novikov sum never exceeds the continuous closed-form bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulate
from .core import GsdeSpec, Kind, McConfig, Scenario, TestFunction
from .gheat import _runs
from .harnack import _decay, _exp, _novikov_envelope, _require_coupling_k, harnack_exponent
from .simulate import _check_horizon, _se, _step_table, _sweep_blocks

__all__ = [
    "CouplingReport",
    "eta_schedule",
    "novikov_pathwise_bound",
    "run_coupling_suite",
    "mt_moment_check",
]


def _mt_moment_bound(
    p: float, K: float, band, horizon: float, dist: float
) -> float:
    """Closed-form ceiling e^{H/(p-1)} for E[M_T^{p/(p-1)}], H the Harnack
    exponent (see harnack._novikov_envelope)."""
    expo = harnack_exponent(p, K, band, horizon, dist) / (p - 1.0)
    return _exp("moment-bound", expo)


def eta_schedule(
    scenario: Scenario,
    K: float,
    x: float,
    y: float,
    horizon: float,
    n_steps: int,
) -> np.ndarray:
    """Deterministic forcing magnitude on the simulation grid,

        eta(t) = |x - y| e^{-K qv(t)} / int_0^T e^{-2K qv(s)} d qv(s),

    evaluated at step midpoints.  The denominator has the exact closed form
    (1 - e^{-2K qv(T)}) / (2K) because qv is continuous and increasing; a
    horizon too short for it (harnack._decay) is a ValueError.
    """
    _require_coupling_k(K)  # before the decay, which would call K = 0 a short horizon
    _check_horizon(scenario, horizon)
    h = horizon / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * h
    qv_mid = scenario.qv(t_mid)
    qv_T = float(scenario.qv(horizon))
    denom = _decay(2.0 * K * qv_T, horizon) / (2.0 * K)
    return abs(x - y) * np.exp(-K * qv_mid) / denom


def novikov_pathwise_bound(K: float, band, horizon: float, dist: float) -> float:
    """Closed-form ceiling e^N for exp{int_0^T |u|^2 d qv} along every path,
    N the envelope of harnack._novikov_envelope (with its input rules); a
    ceiling or exponent too large for a float is a ValueError.
    """
    return _exp("Novikov", _novikov_envelope(K, band, horizon, dist))


@dataclass(frozen=True)
class CouplingReport:
    """Per-scenario coupling and change-of-measure diagnostics, and the
    verdicts of its checks: the Novikov maximum within its ceiling up to
    round-off, the Girsanov gap and the M_T moment within simulate.SE_LEVEL
    standard errors."""

    scenario: str
    x: float
    y: float
    horizon: float
    p: float
    payoff_id: str
    n_paths: int
    n_steps: int
    seed: int
    coupling_gap: float            # max over paths of |X_T - Y_T|
    novikov_pathwise_max: float    # max over paths of exp{int |u|^2 dqv}
    novikov_bound: float
    girsanov_identity_gap: float   # |E[M_T f(X_T^x)] - E[f(X~_T^y)]|
    girsanov_std_error: float      # combined std error of the two estimates
    mt_moment: float               # sample mean of M_T^{p/(p-1)}
    mt_moment_std_error: float
    mt_moment_bound: float
    m_mean: float                  # sample mean of M_T (unit in expectation)
    m_std_error: float

    def to_dict(self) -> dict:
        """Every field and the three verdicts."""
        verdicts = ("novikov_pass", "girsanov_pass", "mt_moment_pass")
        return {k: getattr(self, k) for k in (*self.__dataclass_fields__, *verdicts)}

    @property
    def novikov_pass(self) -> bool:
        return self.novikov_pathwise_max <= self.novikov_bound * (1 + 1e-9)

    @property
    def girsanov_pass(self) -> bool:
        return self.girsanov_identity_gap <= simulate.SE_LEVEL * self.girsanov_std_error

    @property
    def mt_moment_pass(self) -> bool:
        return mt_moment_check(self)[0]

    @property
    def passed(self) -> bool:
        return self.novikov_pass and self.girsanov_pass and self.mt_moment_pass


def _force_rows(spec, rows, bX, i, k, reached, tol, masked):
    """Step i, the k-th of its batch, of the forcing on a run of scenario
    rows, with one forcing number per row.  `rows` holds the run's views of
    the state, the scratch, vh and the batch's tables of u, u vh and
    u vh / 2 (see _advance_block).  With `masked` set, only the paths whose
    gap is nonzero take the update.  A path that merges at this step gets
    gap zero and the merge step count i + 1; return whether one did."""
    X, gap, log_m, steps, db, t, Y, merged, live, vh, u, uvh, half = rows
    where = np.not_equal(gap, 0.0, out=live) if masked else True
    # Y gets a scratch array of its own: b may hand back its argument
    bY = spec.b(np.subtract(X, gap, out=Y))
    # log M -= u (db + uvh / 2)
    np.add(db, half[:, k : k + 1], out=t)
    np.multiply(u[:, k : k + 1], t, out=t)
    np.subtract(log_m, t, out=log_m, where=where)
    # gap += (bX - bY) vh - uvh, then the merge test gap * s0 <= merge_tol
    np.subtract(bX, bY, out=t)
    np.multiply(t, vh[:, i : i + 1], out=t)
    np.subtract(t, uvh[:, k : k + 1], out=t)
    np.add(gap, t, out=gap, where=where)
    reached(gap, tol, out=merged)
    if masked:
        np.logical_and(merged, live, out=merged)
    if not merged.any():
        return False
    np.copyto(gap, 0.0, where=merged)
    np.copyto(steps, i + 1, where=merged)
    return True


def _advance_block(spec, state, tmp, Z, lo, i0, vh, sqv, eta, s0, merge_tol):
    """Advance one path block's (S, b) state views in place over the steps
    i0, i0+1, ... whose normals are the rows of Z, columns lo:lo+b; `tmp`
    holds the worker's (S, size >= b) scratch arrays.

    A step makes 9 (S, b) passes over every row, counting a drift call as
    one: the normals, X and Xref.  The forcing, _force_rows, adds 11 on a
    row with no merged path and 13 on a row with some, masked to the paths
    with gap != 0; a row with no unmerged path skips it.  On a merged path
    (gap == +0.0) the forcing would add exact zeros, so neither the skip
    nor the mask changes a bit.  np.count_nonzero(gap) sorts the rows at
    the start of the batch and after each step with a merge.

    The merge test zeroes a gap at the first step where its sign flips or it
    falls below merge_tol, so every unmerged path has sign(gap) = s0 =
    sign(x - y).  Then u = eta_i s0, u vh and u vh / 2 are one number per
    row, made in the per-path order of operations for the same bits, and
    the merge test is gap <= merge_tol (gap >= -merge_tol when s0 = -1).
    The step count of the merge is the only trace the forcing leaves for
    the Novikov integral, which _batched_states reads off it.
    """
    X, gap, log_m, steps, Xref = state
    b = X.shape[1]
    db, t, Y, merged, live = (a[:, :b] for a in tmp)
    reached, tol = (
        (np.less_equal, merge_tol) if s0 > 0 else (np.greater_equal, -merge_tol)
    )
    batch = slice(i0, i0 + Z.shape[0])
    row_u = eta[:, batch] * s0
    row_uvh = row_u * vh[:, batch]
    by_row = (X, gap, log_m, steps, db, t, Y, merged, live, vh, row_u, row_uvh, row_uvh * 0.5)

    def groups():
        """The runs of rows with no merged path, and of those with some but not all."""
        unmerged = np.count_nonzero(gap, axis=1)
        return [
            [(slice(r0, r1), tuple(a[r0:r1] for a in by_row)) for r0, r1 in _runs(mask)]
            for mask in (unmerged == b, (unmerged > 0) & (unmerged < b))
        ]

    whole_runs, part_runs = groups()
    for k in range(Z.shape[0]):
        i = i0 + k
        vhc = vh[:, i : i + 1]
        np.multiply(sqv[:, i : i + 1], Z[k, lo : lo + b], out=db)
        bX = spec.b(X)
        merges = [
            _force_rows(spec, rows, bX[run], i, k, reached, tol, masked)
            for masked, group in ((True, part_runs), (False, whole_runs))
            for run, rows in group
        ]
        if any(merges):
            whole_runs, part_runs = groups()
        # X += bX vh + db
        np.multiply(bX, vhc, out=t)
        np.add(t, db, out=t)
        np.add(X, t, out=X)
        # Xref += b(Xref) vh + db
        np.multiply(spec.b(Xref), vhc, out=t)
        np.add(t, db, out=t)
        np.add(Xref, t, out=Xref)


def _batched_states(spec, x, y, horizon, scenarios, n, m, seed, workers=1):
    """Evolve (X, gap, log M), the reference process Xref (the same equation
    started at y, on the same noise) and each path's merge step count for
    every scenario at once over n paths.  Return X, Y, log M, Xref and the
    Novikov integral, each an (S, n) array.

    Common random numbers make the per-step draw identical across scenarios,
    so one shared normal vector per step drives all of them.  The forced
    process is carried as gap = X - Y (exactly +0.0 after slaving), which
    also makes the forcing vanish once paths merge.  The forcing is one
    number per scenario row and step, masked to the unmerged paths, with
    every bit of a per-path forcing (see _advance_block).

    The Novikov integral is deterministic up to the merge: a path forced
    for its first j steps has the sum of u_i^2 vh_i over i < j, read after
    the sweep from one cumulative sum per row.  j is m for a path that never
    merges, and 0 when x = y, where nothing is forced.

    simulate._sweep_blocks splits the paths into blocks, so that each step
    works on (S, block) arrays instead of the whole (S, n) state, and runs
    the blocks on `workers` threads, each with one set of scratch arrays for
    the whole sweep.  Every element goes through the same arithmetic
    whatever the block partition, worker count or batch length, so the
    results are bit-identical across all three.  Agreement with a
    per-scenario loop that steps X and Y themselves, which orders its
    floating-point operations differently, holds to round-off.
    """
    K = spec.lipschitz_k
    S = len(scenarios)
    vh = _step_table(scenarios, horizon, m)
    sqv = np.sqrt(vh)
    eta = np.stack([eta_schedule(sc, K, x, y, horizon, m) for sc in scenarios])  # (S, m)
    merge_tol = 1e-10 * (1.0 + abs(x - y))
    s0 = 1.0 if x > y else -1.0

    X = np.full((S, n), float(x))
    # + 0.0 turns the -0.0 of x = -0.0, y = 0.0 into the +0.0 of a merged path
    gap = np.full((S, n), float(x) - float(y) + 0.0)
    log_m = np.zeros((S, n))
    steps = np.full((S, n), 0 if x == y else m, dtype=np.int64)
    Xref = np.full((S, n), float(y))
    _sweep_blocks(
        (X, gap, log_m, steps, Xref), m, seed, workers,
        lambda views, tmp, Z, lo, i0: _advance_block(
            spec, views, tmp, Z, lo, i0, vh, sqv, eta, s0, merge_tol
        ),
        lambda shape: tuple(np.empty(shape, d) for d in (float,) * 3 + (bool,) * 2),
    )
    u = eta * s0
    sums = np.zeros((S, m + 1))
    np.cumsum(u * (u * vh), axis=1, out=sums[:, 1:])
    nov_int = np.take_along_axis(sums, steps, axis=1)
    return X, np.subtract(X, gap, out=gap), log_m, Xref, nov_int


def run_coupling_suite(
    spec: GsdeSpec,
    x: float,
    y: float,
    horizon: float,
    scenarios: list[Scenario],
    mc: McConfig,
    p: float,
    payoff: TestFunction,
    girsanov_paths: int | None = None,
    workers: int | None = None,
) -> list[CouplingReport]:
    """Coupling diagnostics for a whole scenario list in one batched sweep.

    Equivalent to one coupling run per scenario under the shared seed, up
    to floating-point round-off, but amortizes the random-number stream across
    scenarios.  The sweep runs N = max(mc.n_paths, girsanov_paths) paths
    (mc.n_paths when girsanov_paths is None) and carries all five arrays.
    The Girsanov-identity fields read its first girsanov_paths paths, every
    other diagnostic its first mc.n_paths paths.  The path blocks run on
    `workers` threads (default os.cpu_count(); fewer than 1 is a
    ValueError), each with its own scratch arrays for the whole sweep; the
    reports are bit-identical for every worker count.  A closed-form ceiling
    too large for a float, and p <= 1 (harnack_exponent's check), are
    ValueErrors raised before the sweep.
    """
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the coupling construction targets the qv-driven equation")
    if girsanov_paths is not None and girsanov_paths < 2:
        raise ValueError(f"girsanov_paths must be at least 2, got {girsanov_paths}")
    K = spec.lipschitz_k
    dist = abs(x - y)
    # the closed-form ceilings first: one that overflows, or p <= 1, fails
    # before the sweep
    ceilings = [
        (novikov_pathwise_bound(K, sc.band, horizon, dist),
         _mt_moment_bound(p, K, sc.band, horizon, dist))
        for sc in scenarios
    ]

    n, m = mc.n_paths, mc.n_steps
    g = n if girsanov_paths is None else girsanov_paths
    X, Y, log_m, Xref, nov_int = _batched_states(
        spec, x, y, horizon, scenarios, max(n, g), m, mc.seed, workers=workers
    )
    gY, glog_m, gXref = Y[:, :g], log_m[:, :g], Xref[:, :g]
    X, Y, log_m, nov_int = X[:, :n], Y[:, :n], log_m[:, :n], nov_int[:, :n]

    q = p / (p - 1.0)
    reports = []
    for s, (sc, (nov_bound, mt_bound)) in enumerate(zip(scenarios, ceilings)):
        M = np.exp(log_m[s])
        lhs_vals = np.exp(glog_m[s]) * np.asarray(payoff(gY[s]), dtype=float)
        fRef = np.asarray(payoff(gXref[s]), dtype=float)
        mt_vals = np.exp(q * log_m[s])
        reports.append(
            CouplingReport(
                scenario=sc.label,
                x=x,
                y=y,
                horizon=horizon,
                p=p,
                payoff_id=payoff.id,
                n_paths=n,
                n_steps=m,
                seed=mc.seed,
                coupling_gap=float(np.max(np.abs(X[s] - Y[s]))),
                novikov_pathwise_max=float(np.exp(np.max(nov_int[s]))),
                novikov_bound=nov_bound,
                girsanov_identity_gap=abs(
                    float(np.mean(lhs_vals)) - float(np.mean(fRef))
                ),
                girsanov_std_error=math.hypot(_se(lhs_vals), _se(fRef)),
                mt_moment=float(np.mean(mt_vals)),
                mt_moment_std_error=_se(mt_vals),
                mt_moment_bound=mt_bound,
                m_mean=float(np.mean(M)),
                m_std_error=_se(M),
            )
        )
    return reports


def mt_moment_check(report: CouplingReport) -> tuple[bool, dict]:
    """Sample mean of M_T^{p/(p-1)} against the closed-form ceiling, allowing
    simulate.SE_LEVEL relative standard errors of slack."""
    rel_se = report.mt_moment_std_error / max(report.mt_moment, 1e-300)
    limit = report.mt_moment_bound * (1.0 + simulate.SE_LEVEL * rel_se)
    return report.mt_moment <= limit, {
        "mt_moment": report.mt_moment,
        "mt_moment_bound": report.mt_moment_bound,
        "relative_std_error": rel_se,
        "limit": limit,
    }
