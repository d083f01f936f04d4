"""Closed-form constants of the two Harnack-type inequalities and their
certificates on the PDE backend.

Each certificate reads both sides of its inequality off one stacked
`gheat.solve_batch` march and passes when lhs <= rhs * (1 + gheat.PDE_BUDGET).
The march runs on the default Grid1D cut to its reads' dependence interval
(`gheat.dependence_grid`): the read points padded by 6*sigma_hi*sqrt(T) and
by the drift's transport, so the far nodes whose values cannot reach a read
take no step.  Every read point is still checked against the safe window
of the whole default grid first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, product

import numpy as np

from . import gheat
from .core import GsdeSpec, Kind, TestFunction, VolatilityBand, _require_horizon
from .gheat import Grid1D, dependence_grid, require_safe, solve_batch

__all__ = [
    "HarnackCertificate",
    "harnack_exponent",
    "shift_harnack_exponent",
    "verify_harnack",
    "verify_shift_harnack",
    "harnack_grid",
    "shift_harnack_grid",
]


def _novikov_envelope(K: float, band: VolatilityBand, horizon: float, dist: float) -> float:
    """Quadratic-variation envelope of the coupling control,

        N = 2K shi^4 (1 - e^{-2 slo^2 K T}) dist^2 / (slo^6 (1 - e^{-2 shi^2 K T})^2)

    with slo, shi the band edges; +inf when it overflows a float.  K <= 0, a
    horizon that is not finite and positive, one too short for the decays
    (_decay), and a NaN dist are ValueErrors.

    N bounds int_0^T |u|^2 d qv along every path, so e^N is the Novikov
    ceiling (coupling.novikov_pathwise_bound).  The Harnack exponent is
    H = p N / (2(p-1)) and the Girsanov moment ceiling is e^{H/(p-1)}: with
    q = p/(p-1), Holder gives (Pbar_T f(y))^p <= E[M^q]^{p-1} Pbar_T f^p(x),
    and the density moment satisfies log E[M^q] <= q(q-1)/2 * N;
    multiplying q(q-1)/2 * N by (p-1) leaves the single (p-1) of H.  A
    (p-1)^2 variant of H is too small: already in the classical
    degenerate-band case it drops below the sharp Ornstein-Uhlenbeck
    exponent p e^{-2KT} d^2 / ((p-1)(1-e^{-2KT})) for large p and small T,
    and the inequality then fails numerically (e.g. p=4, T=0.5).  H
    dominates that sharp exponent for every p > 1, K > 0, T > 0.
    """
    _require_coupling_k(K)
    _require_horizon(horizon)
    if math.isnan(dist):
        raise ValueError("the distance is NaN")
    lo = _decay(2.0 * band.v_lo * K * horizon, horizon)
    hi = _decay(2.0 * band.v_hi * K * horizon, horizon)
    try:
        return 2.0 * K * band.sigma_hi**4 * lo * dist**2 / (band.sigma_lo**6 * hi**2)
    except OverflowError:  # dist**2 is beyond the float range
        return math.inf


def _require_coupling_k(K: float) -> None:
    """The coupling drift's rule K > 0, a ValueError otherwise."""
    if not K > 0:
        raise ValueError("the coupling drift formula requires K > 0")


def _decay(rate: float, horizon: float) -> float:
    """1 - e^{-rate} for a rate proportional to the horizon; a horizon so
    short that it rounds to 0 (a closed form would then read 0 or divide by
    0) is a ValueError."""
    decay = 1.0 - math.exp(-rate)
    if decay == 0.0:
        raise ValueError(f"the horizon {horizon:g} is too short: 1 - e^(-{rate:.3g}) rounds to 0")
    return decay


def harnack_exponent(
    p: float, K: float, band: VolatilityBand, horizon: float, dist: float
) -> float:
    """Exponent p N / (2(p-1)) of the two-point Harnack inequality, N the
    Novikov envelope of _novikov_envelope (which also holds its input rules
    and derivation).  Continuous in all arguments and -> 0 as dist -> 0; an
    exponent too large for a float is a ValueError."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must exceed 1 and be finite, got {p}")
    return _finite("harnack", p * _novikov_envelope(K, band, horizon, dist) / (2.0 * (p - 1.0)))


def shift_harnack_exponent(
    p: float, K: float, sigma_lo: float, horizon: float, v: float
) -> float:
    """Exponent of the shift Harnack inequality,
    p v^2 / (2 slo^2 (p-1)) * (1/T + K + K^2 T / 3); a NaN shift and an
    exponent too large for a float are ValueErrors."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must exceed 1 and be finite, got {p}")
    _require_horizon(horizon)
    if not sigma_lo > 0:
        raise ValueError("sigma_lo must be positive")
    if not K >= 0:
        raise ValueError("K must be nonnegative")
    if math.isnan(v):
        raise ValueError("the shift is NaN")
    try:
        expo = (
            p
            * v**2
            / (2.0 * sigma_lo**2 * (p - 1.0))
            * (1.0 / horizon + K + K**2 * horizon / 3.0)
        )
    except OverflowError:  # v**2 is beyond the float range
        expo = math.inf
    return _finite("shift-harnack", expo)


@dataclass(frozen=True)
class HarnackCertificate:
    """One verified instance of a Harnack-type inequality."""

    kind: str  # "harnack" | "shift-harnack"
    p: float
    horizon: float
    x: float
    y_or_shift: float
    payoff_id: str
    lhs: float
    rhs: float
    exponent: float
    tolerance_budget: float
    passed: bool

    def to_dict(self) -> dict:
        """Every field, payoff_id under "payoff" and passed under "pass"."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["payoff"], d["pass"] = d.pop("payoff_id"), d.pop("passed")
        return d


def _finite(name: str, exponent: float) -> float:
    """The exponent, unless it overflowed to +inf: a ValueError names it."""
    if exponent == math.inf:
        raise ValueError(f"the {name} exponent overflows a float")
    return exponent


def _exp(name: str, exponent: float) -> float:
    """e^exponent; a ValueError names an exponent too large for a float."""
    try:
        return math.exp(_finite(name, exponent))
    except OverflowError:
        raise ValueError(f"exp of the {name} exponent {exponent:.6g} overflows") from None


def verify_harnack(
    spec: GsdeSpec,
    payoff: TestFunction,
    x: float,
    y: float,
    p: float,
    horizon: float,
    band: VolatilityBand,
) -> HarnackCertificate:
    """Check (Pbar_T f)^p(y) <= Pbar_T f^p(x) * exp(exponent) for the
    qv-driven equation: the grid sweep at the one point y, marched on the
    default Grid1D cut to the dependence interval of x and y."""
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the two-point Harnack inequality targets the qv-driven equation")
    return _certs(_HARNACK, spec, [payoff], [p], [horizon], [band], x, [y])[0]


def verify_shift_harnack(
    spec: GsdeSpec,
    payoff: TestFunction,
    x: float,
    v: float,
    p: float,
    horizon: float,
    band: VolatilityBand,
) -> HarnackCertificate:
    """Check (Pbar_T f(x))^p <= Pbar_T [f^p(v + .)](x) * exp(exponent) for
    the time-driven equation: the grid sweep at the one shift v, marched on
    the default Grid1D cut to the dependence interval of x."""
    if spec.kind is not Kind.TIME_DRIVEN:
        raise ValueError("the shift Harnack inequality targets the time-driven equation")
    return _certs(_SHIFT, spec, [payoff], [p], [horizon], [band], x, [v])[0]


# The parts in which the two inequalities differ, for _certs: the kind, the
# exponent of (p, t) at (K, band, T, x0), the point where lhs reads Pbar_T f,
# and the base rows of (f, p), one per t.  t is a point y for the two-point
# inequality, whose rows repeat the one f^p, and a shift v for the shift one.
_HARNACK = (
    "harnack",
    lambda p, K, band, T, x0, y: harnack_exponent(p, K, band, T, abs(y - x0)),
    lambda x0, y: y,
    lambda f, p, ys: [f.power(p)] * len(ys),
)
_SHIFT = (
    "shift-harnack",
    lambda p, K, band, T, x0, v: shift_harnack_exponent(p, K, band.sigma_lo, T, v),
    lambda x0, v: x0,
    lambda f, p, shifts: [f.power(p).shifted(v) for v in shifts],
)


def _certs(inequality, spec, payoffs, ps, horizons, bands, x0, ts):
    """Certificates of every band, horizon, payoff, p and t of `ts`:
    (Pbar_T f)^p at the read point <= Pbar_T g(x0) e^exponent, g the base
    row of (f, p) at t.  Per (band, horizon), every factor e^exponent comes
    first: an invalid p, K or horizon, or a factor too large for a float,
    fails before the solve.  Then x0 and every read point must lie in the
    safe window, and a payoff that is not nonnegative fails as its rows are
    made (TestFunction.power).  One solve stacks, payoff by payoff, f and
    then its base rows for each p, and the solutions are read back in that
    order; solve_batch marches each distinct row once, on the default grid
    cut to the dependence interval of x0 and the read points."""
    kind, exponent, read_at, base_rows = inequality
    K, budget, grid = spec.lipschitz_k, gheat.PDE_BUDGET, Grid1D()
    certs = []
    for band, T in product(bands, horizons):
        factors = [
            [(e := exponent(p, K, band, T, x0, t), _exp(kind, e)) for t in ts] for p in ps
        ]
        reads = (x0, *(read_at(x0, t) for t in ts))
        for point in reads:
            require_safe(point, grid, band, T)
        rows = [g for f in payoffs for g in (f, *chain(*(base_rows(f, p, ts) for p in ps)))]
        # zip takes ts first, so each inner loop reads exactly len(ts) solutions
        sols = iter(solve_batch(rows, band, T, dependence_grid(grid, band, T, spec, reads), spec))
        for f, u in zip(payoffs, sols):
            for p, factor_row in zip(ps, factors):
                for t, (expo, scale), g in zip(ts, factor_row, sols):
                    lhs = u.value_at(read_at(x0, t)) ** p
                    rhs = g.value_at(x0) * scale
                    certs.append(HarnackCertificate(
                        kind=kind, p=p, horizon=T, x=x0, y_or_shift=t, payoff_id=f.id,
                        lhs=lhs, rhs=rhs, exponent=expo, tolerance_budget=budget,
                        passed=lhs <= rhs * (1.0 + budget),
                    ))
    return certs


def harnack_grid(
    drift_spec: GsdeSpec,
    payoffs: list[TestFunction],
    ps: list[float],
    horizons: list[float],
    bands: list[VolatilityBand],
    dists: np.ndarray,
    x0: float = 0.0,
) -> list[HarnackCertificate]:
    """PDE-backend certificate sweep on the default Grid1D cut to the
    dependence interval of x0 and every x0 + d, each certificate with the
    gheat.PDE_BUDGET relative tolerance: one stacked solve per (band,
    horizon) over f and, for each p, f^p once per distance; solve_batch
    marches each f^p once."""
    spec = replace(drift_spec, kind=Kind.QV_DRIVEN)
    return _certs(_HARNACK, spec, payoffs, ps, horizons, bands, x0, [x0 + float(d) for d in dists])


def shift_harnack_grid(
    drift_spec: GsdeSpec,
    payoffs: list[TestFunction],
    ps: list[float],
    horizons: list[float],
    bands: list[VolatilityBand],
    shifts: np.ndarray,
    x0: float = 0.0,
) -> list[HarnackCertificate]:
    """PDE-backend shift-Harnack sweep on the default Grid1D cut to the
    dependence interval of x0, each certificate with the gheat.PDE_BUDGET
    relative tolerance: one stacked solve per (band, horizon) over f and,
    for each p, every f^p(v + .); the unshifted solution is shared across
    the shift grid."""
    spec = replace(drift_spec, kind=Kind.TIME_DRIVEN)
    return _certs(_SHIFT, spec, payoffs, ps, horizons, bands, x0, [float(v) for v in shifts])
