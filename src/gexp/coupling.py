"""Executable coupling-by-change-of-measure: the second process Y is forced
onto X by an added drift before the horizon, the forcing is removed by a
Girsanov density M_T, and the Novikov / moment bounds are checked pathwise
and in expectation, scenario by scenario.

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
from .harnack import harnack_exponent
from .simulate import _generator, _sweep_blocks

__all__ = [
    "CouplingReport",
    "eta_schedule",
    "eta_merge_defect",
    "novikov_pathwise_bound",
    "run_coupling",
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
    return math.exp(harnack_exponent(p, K, band, horizon, dist) / (p - 1.0))


def _check_coupling_args(K: float, scenario: Scenario, horizon: float) -> None:
    if K <= 0:
        raise ValueError("the coupling drift formula requires K > 0")
    if abs(scenario.horizon - horizon) > 1e-12:
        raise ValueError("scenario horizon differs from the requested horizon")


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
    _check_coupling_args(K, scenario, horizon)
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
    exp{2K shi^4 (1-e^{-2 slo^2 K T}) dist^2 / (slo^6 (1-e^{-2 shi^2 K T})^2)}.
    """
    a = math.exp(-2.0 * band.v_lo * K * horizon)
    b = math.exp(-2.0 * band.v_hi * K * horizon)
    return math.exp(
        2.0
        * K
        * band.sigma_hi**4
        * (1.0 - a)
        * dist**2
        / (band.sigma_lo**6 * (1.0 - b) ** 2)
    )


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
    _check_coupling_args(K, scenario, horizon)

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
    a = math.exp(-2.0 * scenario.band.v_lo * K * horizon)
    b_ = math.exp(-2.0 * scenario.band.v_hi * K * horizon)

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


def _advance_block(spec, state, Z, lo, i0, vh, sqv, eta, merge_tol):
    """Advance one path block's (S, b) state views in place over the steps
    i0, i0+1, ... whose normals are the rows of Z, columns lo:lo+b."""
    X, gap, Xref, log_m, nov_int = state
    b = X.shape[1]
    db, sgn, u, uvh, t = (np.empty_like(X) for _ in range(5))
    merged = np.empty(X.shape, dtype=bool)
    for k in range(Z.shape[0]):
        i = i0 + k
        vhc = vh[:, i : i + 1]
        np.multiply(sqv[:, i : i + 1], Z[k, lo : lo + b], out=db)
        np.sign(gap, out=sgn)
        np.multiply(eta[:, i : i + 1], sgn, out=u)
        bX = spec.b(X)
        bY = spec.b(np.subtract(X, gap, out=t))
        np.multiply(u, vhc, out=uvh)
        # log M -= u (db + uvh / 2)
        np.multiply(uvh, 0.5, out=t)
        np.add(db, t, out=t)
        np.multiply(u, t, out=t)
        np.subtract(log_m, t, out=log_m)
        if nov_int is not None:
            np.multiply(u, uvh, out=t)
            np.add(nov_int, t, out=nov_int)
        # X += bX vh + db
        np.multiply(bX, vhc, out=t)
        np.add(t, db, out=t)
        np.add(X, t, out=X)
        # gap += (bX - bY) vh - uvh, then zero where the sign flipped or
        # the gap fell below the merge tolerance
        np.subtract(bX, bY, out=t)
        np.multiply(t, vhc, out=t)
        np.subtract(t, uvh, out=t)
        np.add(gap, t, out=gap)
        np.multiply(gap, sgn, out=t)
        np.less_equal(t, merge_tol, out=merged)
        gap[merged] = 0.0
        # Xref += b(Xref) vh + db
        np.multiply(spec.b(Xref), vhc, out=t)
        np.add(t, db, out=t)
        np.add(Xref, t, out=Xref)


def _batched_states(
    spec, x, y, horizon, scenarios, n, m, seed, want_novikov, workers=1
):
    """Evolve (X, gap, log M, Xref) for every scenario at once.

    Common random numbers make the per-step draw identical across scenarios,
    so one shared normal vector per step drives all of them.  The forced
    process is carried as gap = X - Y (exactly zero after slaving), which
    also makes the forcing vanish automatically once paths merge.

    simulate._sweep_blocks splits the paths into blocks, so that each step
    works on (S, block) arrays instead of the whole (S, n) state, and runs
    the blocks on `workers` threads.  Every
    element goes through the same arithmetic whatever the block partition
    or worker count, so the results are bit-identical across both.
    Agreement with run_coupling, which orders its floating-point operations
    differently, holds to round-off.
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

    X = np.full((S, n), float(x))
    gap = np.full((S, n), float(x) - float(y))
    Xref = np.full((S, n), float(y))
    log_m = np.zeros((S, n))
    nov_int = np.zeros((S, n)) if want_novikov else None
    _sweep_blocks(
        (X, gap, Xref, log_m, nov_int), (0, 1), m, seed, workers,
        lambda views, Z, lo, i0: _advance_block(
            spec, views, Z, lo, i0, vh, sqv, eta, merge_tol
        ),
    )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xref))):
        raise RuntimeError(f"non-finite state at step {m}")
    return X, X - gap, log_m, Xref, nov_int


def _se(a: np.ndarray) -> float:
    n = a.shape[-1]
    return float(np.std(a, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


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

    Equivalent to run_coupling per scenario under the shared seed, up to
    floating-point round-off, but amortizes the random-number stream across
    scenarios.  When girsanov_paths differs from mc.n_paths, a second lean
    sweep at that path count supplies the Girsanov-identity fields; every
    other diagnostic comes from the mc.n_paths sweep.  The path blocks of
    each sweep run on `workers` threads (default os.cpu_count()); the reports
    are bit-identical for every worker count.
    """
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the coupling construction targets the qv-driven equation")
    if p <= 1:
        raise ValueError("p must exceed 1")
    if not scenarios:
        raise ValueError("scenario list is empty")
    K = spec.lipschitz_k
    for sc in scenarios:
        _check_coupling_args(K, sc, horizon)

    n, m = mc.n_paths, mc.n_steps
    X, Y, log_m, Xref, nov_int = _batched_states(
        spec, x, y, horizon, scenarios, n, m, mc.seed, want_novikov=True,
        workers=workers,
    )
    if girsanov_paths is None or girsanov_paths == n:
        gY, glog_m, gXref = Y, log_m, Xref
    else:
        _, gY, glog_m, gXref, _ = _batched_states(
            spec, x, y, horizon, scenarios, girsanov_paths, m, mc.seed,
            want_novikov=False, workers=workers,
        )

    q = p / (p - 1.0)
    dist = abs(x - y)
    reports = []
    for s, sc in enumerate(scenarios):
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
                novikov_bound=novikov_pathwise_bound(K, sc.band, horizon, dist),
                girsanov_identity_gap=abs(
                    float(np.mean(lhs_vals)) - float(np.mean(fRef))
                ),
                girsanov_std_error=math.hypot(_se(lhs_vals), _se(fRef)),
                mt_moment=float(np.mean(mt_vals)),
                mt_moment_std_error=_se(mt_vals),
                mt_moment_bound=_mt_moment_bound(p, K, sc.band, horizon, dist),
                m_mean=float(np.mean(M)),
                m_std_error=_se(M),
            )
        )
    return reports


def mt_moment_check(report: CouplingReport, n_sigma: float = 3.0) -> tuple[bool, dict]:
    """Sample mean of M_T^{p/(p-1)} against the closed-form ceiling, allowing
    n_sigma relative standard errors of slack."""
    rel_se = report.mt_moment_std_error / max(report.mt_moment, 1e-300)
    limit = report.mt_moment_bound * (1.0 + n_sigma * rel_se)
    return report.mt_moment <= limit, {
        "mt_moment": report.mt_moment,
        "mt_moment_bound": report.mt_moment_bound,
        "relative_std_error": rel_se,
        "limit": limit,
    }
