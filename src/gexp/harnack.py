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
from .core import GsdeSpec, Kind, TestFunction, VolatilityBand
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


def harnack_exponent(
    p: float, K: float, band: VolatilityBand, horizon: float, dist: float
) -> float:
    """Exponent of the two-point Harnack inequality,

        p K shi^4 (1 - e^{-2 slo^2 K T})
        ------------------------------------  * dist^2
        (p-1) slo^6 (1 - e^{-2 shi^2 K T})^2

    with slo, shi the band edges.  Continuous in all arguments and -> 0 as
    dist -> 0; an exponent too large for a float is a ValueError.

    The (p-1) power is the one the coupling argument yields: with
    q = p/(p-1), Holder gives (Pbar_T f(y))^p <= E[M^q]^{p-1} Pbar_T f^p(x),
    and the density moment satisfies log E[M^q] <= q(q-1)/2 * N where N is
    the quadratic-variation envelope of the control, the exponent of
    coupling.novikov_pathwise_bound: N = 2K shi^4 (1-e^{-2 slo^2 KT}) dist^2
    / (slo^6 (1-e^{-2 shi^2 KT})^2).  The exponent above is p N / (2(p-1)):
    multiplying q(q-1)/2 * N by (p-1) leaves a single (p-1) in the
    denominator.  A (p-1)^2 variant is too small: already in
    the classical degenerate-band case it drops below the sharp
    Ornstein-Uhlenbeck exponent p e^{-2KT} d^2 / ((p-1)(1-e^{-2KT})) for
    large p and small T, and the inequality then fails numerically
    (e.g. p=4, T=0.5).  The form used here dominates that sharp exponent
    for every p > 1, K > 0, T > 0.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if K <= 0:
        raise ValueError("K must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    lo, hi = _decays(K, band, horizon)
    try:
        expo = p * K * band.sigma_hi**4 * lo / ((p - 1.0) * band.sigma_lo**6 * hi**2) * dist**2
    except OverflowError:  # dist**2 is beyond the float range
        expo = math.inf
    return _finite("harnack", expo)


def _decays(K: float, band: VolatilityBand, horizon: float) -> tuple[float, float]:
    """1 - e^{-2 slo^2 K T} and 1 - e^{-2 shi^2 K T}, the factors of the
    Harnack and Novikov exponents; a horizon so short that the first rounds
    to 0 (the exponents then read 0 or divide by 0) is a ValueError."""
    lo = 1.0 - math.exp(-2.0 * band.v_lo * K * horizon)
    if lo == 0.0:
        raise ValueError(f"the horizon {horizon:g} is too short: 1 - e^(-2 slo^2 K T) rounds to 0")
    return lo, 1.0 - math.exp(-2.0 * band.v_hi * K * horizon)


def shift_harnack_exponent(
    p: float, K: float, sigma_lo: float, horizon: float, v: float
) -> float:
    """Exponent of the shift Harnack inequality,
    p v^2 / (2 slo^2 (p-1)) * (1/T + K + K^2 T / 3); an exponent too large
    for a float is a ValueError."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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


def _factor(kind: str, exponent: float) -> tuple[float, float]:
    """The exponent and e^exponent, computed before any solve."""
    return exponent, _exp(kind, exponent)


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
    if not payoff.positivity:
        raise ValueError("Harnack certificates require a nonnegative payoff")
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
    if not payoff.positivity:
        raise ValueError("Harnack certificates require a nonnegative payoff")
    if spec.kind is not Kind.TIME_DRIVEN:
        raise ValueError("the shift Harnack inequality targets the time-driven equation")
    return _shift_certs(spec, [payoff], [p], band, horizon, x, [v])[0]


def _harnack_certs(spec, payoffs, ps, band, T, x0, ys):
    """Certificates of every payoff, p and point of `ys` at one (band, T):
    one stacked solve over f and every f^p of each payoff.  Every factor
    e^exponent comes first: an invalid p, K or horizon, or a factor too
    large for a float, fails before the solve."""
    factors = [
        [_factor("harnack", harnack_exponent(p, spec.lipschitz_k, band, T, abs(y - x0)))
         for y in ys]
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
        [_factor("shift-harnack", shift_harnack_exponent(p, K, band.sigma_lo, T, v))
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
