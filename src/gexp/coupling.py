"""Executable coupling-by-change-of-measure: the second process Y is forced
onto X by an added drift before the horizon, the forcing is removed by a
Girsanov density M_T, and the Novikov / moment bounds are checked pathwise
and in expectation, scenario by scenario.

The coupling time is detected on the grid as the first step where X - Y
changes sign or falls below the merge tolerance; Y is slaved to X afterwards
(the continuous construction merges exactly, on a grid only approximate
merging is observable).  Until then X - Y keeps the sign s0 of x - y, so the
forcing u = eta s0 is one number per scenario and step: a scenario row none
of whose paths has merged applies it as such, and a row takes the per-path
forcing from the step after its first merge on (see _advance_block).

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

from .core import GsdeSpec, Kind, McConfig, Scenario, TestFunction
from .gheat import _runs
from .harnack import _exp, harnack_exponent
from .simulate import _se, _sweep_blocks

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
    """Closed-form ceiling for E[M_T^{p/(p-1)}],

        exp{ p K shi^4 (1-e^{-2 slo^2 KT}) dist^2
             / ((p-1)^2 slo^6 (1-e^{-2 shi^2 KT})^2) }.

    With q = p/(p-1) this is exp{q(q-1)/2 * N} for the Novikov envelope N;
    the Harnack exponent is (p-1) times its logarithm.
    """
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
    (1 - e^{-2K qv(T)}) / (2K) because qv is continuous and increasing.
    """
    if K <= 0:
        raise ValueError("the coupling drift formula requires K > 0")
    if abs(scenario.horizon - horizon) > 1e-12:
        raise ValueError("scenario horizon differs from the requested horizon")
    h = horizon / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * h
    qv_mid = scenario.qv(t_mid)
    qv_T = float(scenario.qv(horizon))
    denom = (1.0 - math.exp(-2.0 * K * qv_T)) / (2.0 * K)
    return abs(x - y) * np.exp(-K * qv_mid) / denom


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


def novikov_pathwise_bound(K: float, band, horizon: float, dist: float) -> float:
    """Closed-form ceiling for exp{int_0^T |u|^2 d qv} along every path:
    exp{2K shi^4 (1-e^{-2 slo^2 K T}) dist^2 / (slo^6 (1-e^{-2 shi^2 K T})^2)};
    a ceiling or exponent too large for a float is a ValueError.
    """
    if K <= 0:
        raise ValueError("the coupling drift formula requires K > 0")
    a = math.exp(-2.0 * band.v_lo * K * horizon)
    b = math.exp(-2.0 * band.v_hi * K * horizon)
    try:
        expo = (
            2.0
            * K
            * band.sigma_hi**4
            * (1.0 - a)
            * dist**2
            / (band.sigma_lo**6 * (1.0 - b) ** 2)
        )
    except OverflowError:  # dist**2 is beyond the float range
        expo = math.inf
    return _exp("Novikov", expo)


@dataclass(frozen=True)
class CouplingReport:
    """Per-scenario coupling and change-of-measure diagnostics."""

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
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _force(spec, rows, bX, i, merge_tol):
    """Step i of the per-path forcing on a run of scenario rows: u, log M,
    the Novikov integral and gap = X - Y with its merge reset.  `rows` holds
    the run's views of the state, the scratch and the (S, m) coefficients;
    bX is b(X) on the run, X not yet advanced."""
    X, gap, log_m, nov_int, db, t, Y, sgn, u, uvh, merged, vh, eta = rows
    vhc = vh[:, i : i + 1]
    np.sign(gap, out=sgn)
    np.multiply(eta[:, i : i + 1], sgn, out=u)
    # Y gets a scratch array of its own: b may hand back its argument
    bY = spec.b(np.subtract(X, gap, out=Y))
    np.multiply(u, vhc, out=uvh)
    # log M -= u (db + uvh / 2)
    np.multiply(uvh, 0.5, out=t)
    np.add(db, t, out=t)
    np.multiply(u, t, out=t)
    np.subtract(log_m, t, out=log_m)
    np.multiply(u, uvh, out=t)
    np.add(nov_int, t, out=nov_int)
    # gap += (bX - bY) vh - uvh, then zero where the sign flipped or the gap
    # fell below the merge tolerance
    np.subtract(bX, bY, out=t)
    np.multiply(t, vhc, out=t)
    np.subtract(t, uvh, out=t)
    np.add(gap, t, out=gap)
    np.multiply(gap, sgn, out=t)
    np.less_equal(t, merge_tol, out=merged)
    np.copyto(gap, 0.0, where=merged)


def _force_rows(spec, rows, bX, i, k, reached, tol):
    """Step i, the k-th of its batch, of the forcing on a run of scenario
    rows none of whose paths has merged, with one forcing number per row.
    `rows` holds the run's views of the state, the scratch, vh, the rows'
    running Novikov sums and the batch's tables of u, u vh, u vh / 2 and
    u^2 vh (see _advance_block).  Return whether a path merged at this step
    (its gap is then zero)."""
    X, gap, log_m, db, t, Y, merged, vh, nov, u, uvh, half, uuvh = rows
    # Y gets a scratch array of its own: b may hand back its argument
    bY = spec.b(np.subtract(X, gap, out=Y))
    # log M -= u (db + uvh / 2)
    np.add(db, half[:, k : k + 1], out=t)
    np.multiply(u[:, k : k + 1], t, out=t)
    np.subtract(log_m, t, out=log_m)
    np.add(nov, uuvh[:, k : k + 1], out=nov)
    # gap += (bX - bY) vh - uvh, then the merge test gap * s0 <= merge_tol
    np.subtract(bX, bY, out=t)
    np.multiply(t, vh[:, i : i + 1], out=t)
    np.subtract(t, uvh[:, k : k + 1], out=t)
    np.add(gap, t, out=gap)
    reached(gap, tol, out=merged)
    if not merged.any():
        return False
    np.copyto(gap, 0.0, where=merged)
    return True


def _advance_block(spec, state, tmp, Z, lo, i0, vh, sqv, eta, s0, merge_tol):
    """Advance one path block's (S, b) state views in place over the steps
    i0, i0+1, ... whose normals are the rows of Z, columns lo:lo+b; `tmp`
    holds the worker's (S, size >= b) scratch arrays.

    A step makes 9 (S, b) passes over every row, counting a drift call as
    one: the normals, X and Xref.  The forcing adds more, by the group that
    np.count_nonzero(gap) puts a row in at the start of the batch:
    - no path unmerged: gap == +0.0 on every path, so each forcing update
      would add an exact zero, and the row skips it, bit-exactly;
    - some paths merged: _force, per path, 18 passes;
    - no path merged: _force_rows, one forcing number per row, 11 passes
      with the merge test's `any`.  The merge test zeroes a gap at the
      first step where its sign flips or it falls below merge_tol, so every
      unmerged path has sign(gap) = s0 = sign(x - y).  Then u = eta_i s0,
      u vh, u vh / 2 and u^2 vh are one number per row, made in the
      per-path order of operations for the same bits; the merge test is
      gap <= merge_tol, or gap >= -merge_tol when s0 = -1; and the Novikov
      sum, equal on all paths of the row, is one running number, written
      into nov_int when the row leaves the group and at the end of the
      batch.  A row leaves at the step where its first path merges and
      takes the per-path forcing from the next step on.
    """
    X, gap, log_m, nov_int, Xref = state
    b = X.shape[1]
    db, t, Y, sgn, u, uvh, merged = (a[:, :b] for a in tmp)
    unmerged = np.count_nonzero(gap, axis=1)
    per_path = (unmerged > 0) & (unmerged < b)
    per_row = unmerged == b
    reached, tol = (
        (np.less_equal, merge_tol) if s0 > 0 else (np.greater_equal, -merge_tol)
    )
    steps = slice(i0, i0 + Z.shape[0])
    row_u = eta[:, steps] * s0
    row_uvh = row_u * vh[:, steps]
    nov = nov_int[:, :1].copy()
    by_path = (X, gap, log_m, nov_int, db, t, Y, sgn, u, uvh, merged, vh, eta)
    by_row = (
        X, gap, log_m, db, t, Y, merged, vh, nov,
        row_u, row_uvh, row_uvh * 0.5, row_u * row_uvh,
    )

    def runs(mask, arrays):
        return [
            (slice(r0, r1), tuple(a[r0:r1] for a in arrays))
            for r0, r1 in _runs(mask)
        ]

    path_runs, row_runs = runs(per_path, by_path), runs(per_row, by_row)
    for k in range(Z.shape[0]):
        i = i0 + k
        vhc = vh[:, i : i + 1]
        np.multiply(sqv[:, i : i + 1], Z[k, lo : lo + b], out=db)
        bX = spec.b(X)
        for run, rows in path_runs:
            _force(spec, rows, bX[run], i, merge_tol)
        left = [
            run for run, rows in row_runs
            if _force_rows(spec, rows, bX[run], i, k, reached, tol)
        ]
        for run in left:
            np.copyto(nov_int[run], nov[run])
            moved = merged[run].any(axis=1)
            per_row[run][moved] = False
            per_path[run][moved] = True
        if left:
            path_runs, row_runs = runs(per_path, by_path), runs(per_row, by_row)
        # X += bX vh + db
        np.multiply(bX, vhc, out=t)
        np.add(t, db, out=t)
        np.add(X, t, out=X)
        # Xref += b(Xref) vh + db
        np.multiply(spec.b(Xref), vhc, out=t)
        np.add(t, db, out=t)
        np.add(Xref, t, out=Xref)
    for run, _ in row_runs:
        np.copyto(nov_int[run], nov[run])


def _batched_states(spec, x, y, horizon, scenarios, n, m, seed, workers=1):
    """Evolve (X, gap, log M), the reference process Xref (the same equation
    started at y, on the same noise) and the Novikov integral for every
    scenario at once over n paths.  Return X, Y, log M, Xref and the Novikov
    integral, each an (S, n) array.

    Common random numbers make the per-step draw identical across scenarios,
    so one shared normal vector per step drives all of them.  The forced
    process is carried as gap = X - Y (exactly +0.0 after slaving), which
    also makes the forcing vanish once paths merge.  An unmerged path has
    sign(gap) = s0 = sign(x - y), so a scenario row with no merged path
    applies the forcing as one number per row, in the per-path order of
    operations; it switches to the per-path forcing at the step where its
    first path merges, and a row whose paths have all merged skips the
    forcing update.  Both forms keep every bit of the per-path forcing (see
    _advance_block).

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
    h = horizon / m
    vh = np.stack([sc.step_levels(m) for sc in scenarios]) * h  # (S, m)
    sqv = np.sqrt(vh)
    eta = np.stack(
        [eta_schedule(sc, K, x, y, horizon, m) for sc in scenarios]
    )  # (S, m)
    merge_tol = 1e-10 * (1.0 + abs(x - y))
    s0 = 1.0 if x > y else -1.0

    X = np.full((S, n), float(x))
    # + 0.0 turns the -0.0 of x = -0.0, y = 0.0 into the +0.0 of a merged path
    gap = np.full((S, n), float(x) - float(y) + 0.0)
    log_m = np.zeros((S, n))
    nov_int = np.zeros((S, n))
    Xref = np.full((S, n), float(y))
    _sweep_blocks(
        (X, gap, log_m, nov_int, Xref), m, seed, workers,
        lambda views, tmp, Z, lo, i0: _advance_block(
            spec, views, tmp, Z, lo, i0, vh, sqv, eta, s0, merge_tol
        ),
        lambda shape: (*(np.empty(shape) for _ in range(6)), np.empty(shape, bool)),
    )
    return X, X - gap, log_m, Xref, nov_int


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
    other diagnostic its first mc.n_paths paths.  A scenario row with no
    merged path takes one forcing number per step, and a row whose paths
    have all merged skips the forcing update, both bit-exactly.  The path blocks
    run on `workers` threads (default os.cpu_count(); fewer than 1 is a
    ValueError), each with its own scratch arrays for the whole sweep; the
    reports are bit-identical for every worker count.  A closed-form ceiling
    too large for a float is a ValueError, raised before the sweep.
    """
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the coupling construction targets the qv-driven equation")
    if p <= 1:
        raise ValueError("p must exceed 1")
    if not scenarios:
        raise ValueError("scenario list is empty")
    if girsanov_paths is not None and girsanov_paths < 1:
        raise ValueError("girsanov_paths must be positive")
    K = spec.lipschitz_k
    dist = abs(x - y)
    # the closed-form ceilings first: one that overflows fails before the sweep
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
    3 relative standard errors of slack."""
    rel_se = report.mt_moment_std_error / max(report.mt_moment, 1e-300)
    limit = report.mt_moment_bound * (1.0 + 3.0 * rel_se)
    return report.mt_moment <= limit, {
        "mt_moment": report.mt_moment,
        "mt_moment_bound": report.mt_moment_bound,
        "relative_std_error": rel_se,
        "limit": limit,
    }
