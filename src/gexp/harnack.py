"""Closed-form constants of the two Harnack-type inequalities and their
certificates on the PDE backend.

Each certificate reads both sides of its inequality off one stacked
`gheat.solve_batch` march and passes when lhs <= rhs * (1 + gheat.PDE_BUDGET).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gheat
from .core import GsdeSpec, Kind, TestFunction, VolatilityBand, _require_horizon
from .gheat import Grid1D, require_safe, solve_batch

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
    horizon that is not finite and positive, and one too short for the
    decays (_decay) are ValueErrors.

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
    if K <= 0:
        raise ValueError("the coupling drift formula requires K > 0")
    _require_horizon(horizon)
    lo = _decay(2.0 * band.v_lo * K * horizon, horizon)
    hi = _decay(2.0 * band.v_hi * K * horizon, horizon)
    try:
        return 2.0 * K * band.sigma_hi**4 * lo * dist**2 / (band.sigma_lo**6 * hi**2)
    except OverflowError:  # dist**2 is beyond the float range
        return math.inf


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
    if p <= 1:
        raise ValueError("p must exceed 1")
    return _finite("harnack", p * _novikov_envelope(K, band, horizon, dist) / (2.0 * (p - 1.0)))


def shift_harnack_exponent(
    p: float, K: float, sigma_lo: float, horizon: float, v: float
) -> float:
    """Exponent of the shift Harnack inequality,
    p v^2 / (2 slo^2 (p-1)) * (1/T + K + K^2 T / 3); an exponent too large
    for a float is a ValueError."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    _require_horizon(horizon)
    if sigma_lo <= 0:
        raise ValueError("sigma_lo must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
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
        return {
            "kind": self.kind,
            "p": self.p,
            "horizon": self.horizon,
            "x": self.x,
            "y_or_shift": self.y_or_shift,
            "payoff": self.payoff_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "exponent": self.exponent,
            "tolerance_budget": self.tolerance_budget,
            "pass": self.passed,
        }


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


def _certificate(kind, p, horizon, x, y_or_shift, payoff_id, lhs, base, factor):
    expo, scale = factor
    rhs = base * scale
    budget = gheat.PDE_BUDGET
    return HarnackCertificate(
        kind=kind,
        p=p,
        horizon=horizon,
        x=x,
        y_or_shift=y_or_shift,
        payoff_id=payoff_id,
        lhs=lhs,
        rhs=rhs,
        exponent=expo,
        tolerance_budget=budget,
        passed=lhs <= rhs * (1.0 + budget),
    )


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
    qv-driven equation: the grid sweep at the one point y."""
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the two-point Harnack inequality targets the qv-driven equation")
    return _harnack_certs(spec, [payoff], [p], band, horizon, x, [y])[0]


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
    the time-driven equation: the grid sweep at the one shift v."""
    if spec.kind is not Kind.TIME_DRIVEN:
        raise ValueError("the shift Harnack inequality targets the time-driven equation")
    return _shift_certs(spec, [payoff], [p], band, horizon, x, [v])[0]


def _harnack_certs(spec, payoffs, ps, band, T, x0, ys):
    """Certificates of every payoff, p and point of `ys` at one (band, T):
    one stacked solve over f and every f^p of each payoff.  Every factor
    e^exponent comes first: an invalid p, K or horizon, or a factor too
    large for a float, fails before the solve, and so does a payoff that is
    not nonnegative (TestFunction.power)."""
    K = spec.lipschitz_k
    factors = [
        [(e := harnack_exponent(p, K, band, T, abs(y - x0)), _exp("harnack", e)) for y in ys]
        for p in ps
    ]
    grid = Grid1D()
    for point in (x0, *ys):  # every point a solution is read at
        require_safe(point, grid, band, T)
    rows = [g for f in payoffs for g in (f, *(f.power(p) for p in ps))]
    sols = iter(solve_batch(rows, band, T, grid, spec))
    certs = []
    for payoff in payoffs:
        sol_f = next(sols)
        for p, row in zip(ps, factors):
            base = next(sols).value_at(x0)
            for y, factor in zip(ys, row):
                certs.append(
                    _certificate(
                        "harnack", p, T, x0, y, payoff.id, sol_f.value_at(y) ** p, base, factor
                    )
                )
    return certs


def _shift_certs(spec, payoffs, ps, band, T, x0, shifts):
    """Certificates of every payoff, p and shift at one (band, T): one
    stacked solve over f and every f^p(v + .) of each payoff, every factor
    e^exponent first (see _harnack_certs)."""
    K = spec.lipschitz_k
    factors = [
        [(e := shift_harnack_exponent(p, K, band.sigma_lo, T, v), _exp("shift-harnack", e))
         for v in shifts]
        for p in ps
    ]
    grid = Grid1D()
    require_safe(x0, grid, band, T)
    rows = [
        g for f in payoffs for g in (f, *(f.power(p).shifted(v) for p in ps for v in shifts))
    ]
    sols = iter(solve_batch(rows, band, T, grid, spec))
    certs = []
    for payoff in payoffs:
        sol_f = next(sols)
        for p, row in zip(ps, factors):
            lhs = sol_f.value_at(x0) ** p
            for v, factor in zip(shifts, row):
                base = next(sols).value_at(x0)
                certs.append(
                    _certificate("shift-harnack", p, T, x0, v, payoff.id, lhs, base, factor)
                )
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
    """PDE-backend certificate sweep on the default Grid1D, each certificate
    with the gheat.PDE_BUDGET relative tolerance: one stacked solve per (band,
    horizon) over f and every f^p of each payoff, reused across the distance
    grid."""
    spec = replace(drift_spec, kind=Kind.QV_DRIVEN)
    ys = [x0 + float(d) for d in dists]
    return [
        cert
        for band in bands
        for T in horizons
        for cert in _harnack_certs(spec, payoffs, ps, band, T, x0, ys)
    ]


def shift_harnack_grid(
    drift_spec: GsdeSpec,
    payoffs: list[TestFunction],
    ps: list[float],
    horizons: list[float],
    bands: list[VolatilityBand],
    shifts: np.ndarray,
    x0: float = 0.0,
) -> list[HarnackCertificate]:
    """PDE-backend shift-Harnack sweep on the default Grid1D, each
    certificate with the gheat.PDE_BUDGET relative tolerance: one stacked
    solve per (band, horizon) over f and every f^p(v + .) of each payoff; the
    unshifted solution is shared across the shift grid."""
    spec = replace(drift_spec, kind=Kind.TIME_DRIVEN)
    shifts = [float(v) for v in shifts]
    return [
        cert
        for band in bands
        for T in horizons
        for cert in _shift_certs(spec, payoffs, ps, band, T, x0, shifts)
    ]
