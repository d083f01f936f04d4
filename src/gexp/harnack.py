"""Closed-form constants of the two Harnack-type inequalities and
certificate-grade verification against the PDE and Monte Carlo backends.

PDE-backend certificates are the acceptance authority; Monte Carlo
certificates are advisory because both sides are lower-bound estimates of a
sup, so the comparison is one-sided-noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GsdeSpec,
    Kind,
    McConfig,
    TestFunction,
    VolatilityBand,
    make_scenario_lattice,
)
from .gheat import Grid1D, require_safe, solve_batch
from .simulate import _estimate, _terminal_states

__all__ = [
    "HarnackCertificate",
    "harnack_exponent",
    "shift_harnack_exponent",
    "verify_harnack",
    "verify_shift_harnack",
    "harnack_grid",
    "shift_harnack_grid",
]

PDE_BUDGET = 2e-3  # relative tolerance of every PDE-backend certificate


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
    the quadratic-variation envelope of the control (the dist^2 expression
    above divided by pK/ ... i.e. N = 2K shi^4 (1-e^{-2 slo^2 KT}) dist^2 /
    (slo^6 (1-e^{-2 shi^2 KT})^2)).  Multiplying by (p-1) leaves a single
    (p-1) in the denominator.  A (p-1)^2 variant is too small: already in
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
    a = math.exp(-2.0 * band.v_lo * K * horizon)
    b = math.exp(-2.0 * band.v_hi * K * horizon)
    try:
        expo = (
            p
            * K
            * band.sigma_hi**4
            * (1.0 - a)
            / ((p - 1.0) * band.sigma_lo**6 * (1.0 - b) ** 2)
            * dist**2
        )
    except OverflowError:  # dist**2 is beyond the float range
        expo = math.inf
    return _finite("harnack", expo)


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
    method: str  # "pde" | "mc"
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
            "method": self.method,
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


def _certificate(kind, p, horizon, x, y_or_shift, payoff_id, method, lhs, base, expo, budget):
    rhs = base * _exp(kind, expo)
    return HarnackCertificate(
        kind=kind,
        p=p,
        horizon=horizon,
        x=x,
        y_or_shift=y_or_shift,
        payoff_id=payoff_id,
        method=method,
        lhs=lhs,
        rhs=rhs,
        exponent=expo,
        tolerance_budget=budget,
        passed=lhs <= rhs * (1.0 + budget),
    )


def _mc_values(spec, payoffs, x0, horizon, band, mc, workers):
    """(value, argmax standard error) of each payoff, all evaluated on one
    scenario-max sweep started at x0."""
    scenarios = make_scenario_lattice(band, horizon, pieces=2, levels=3)
    states = _terminal_states(spec, x0, horizon, scenarios, mc, workers)
    return [
        (est.value, est.argmax_std_error)
        for est in (_estimate(f, states, scenarios, mc) for f in payoffs)
    ]


def _mc_certificate(kind, p, horizon, x, y_or_shift, payoff_id, at_f, at_base, expo):
    """MC certificate from the (value, standard error) pairs of f and of the
    base; its budget is 3 standard errors of lhs - base, relative to the base
    (the delta method on value^p plus the base's own error)."""
    (v, s), (base, sb) = at_f, at_base
    budget = 3.0 * (p * max(v, 0.0) ** (p - 1) * s + sb) / max(abs(base), 1e-12)
    return _certificate(
        kind, p, horizon, x, y_or_shift, payoff_id, "mc", v**p, base, expo, budget
    )


def verify_harnack(
    spec: GsdeSpec,
    payoff: TestFunction,
    x: float,
    y: float,
    p: float,
    horizon: float,
    band: VolatilityBand,
    method: str = "pde",
    mc: McConfig | None = None,
    workers: int | None = None,
) -> HarnackCertificate:
    """Check (Pbar_T f)^p(y) <= Pbar_T f^p(x) * exp(exponent) for the
    qv-driven equation.  The PDE method is the grid sweep at the one point y;
    the MC method makes one scenario-max sweep from y and one from x, on
    `workers` threads (default os.cpu_count())."""
    if not payoff.positivity:
        raise ValueError("Harnack certificates require a nonnegative payoff")
    if spec.kind is not Kind.QV_DRIVEN:
        raise ValueError("the two-point Harnack inequality targets the qv-driven equation")
    # the exponent first: it checks p, K and the horizon before any solve
    expo = harnack_exponent(p, spec.lipschitz_k, band, horizon, abs(x - y))
    if method == "pde":
        return _harnack_certs(spec, [payoff], [p], band, horizon, x, [y])[0]
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    args = (horizon, band, mc or McConfig(), workers)
    [at_y] = _mc_values(spec, [payoff], y, *args)
    [at_x] = _mc_values(spec, [payoff.power(p)], x, *args)
    return _mc_certificate("harnack", p, horizon, x, y, payoff.id, at_y, at_x, expo)


def verify_shift_harnack(
    spec: GsdeSpec,
    payoff: TestFunction,
    x: float,
    v: float,
    p: float,
    horizon: float,
    band: VolatilityBand,
    method: str = "pde",
    mc: McConfig | None = None,
    workers: int | None = None,
) -> HarnackCertificate:
    """Check (Pbar_T f(x))^p <= Pbar_T [f^p(v + .)](x) * exp(exponent) for
    the time-driven equation.  The PDE method is the grid sweep at the one
    shift v; the MC method evaluates f and f^p(v + .) on one scenario-max
    sweep from x, on `workers` threads (default os.cpu_count())."""
    if not payoff.positivity:
        raise ValueError("Harnack certificates require a nonnegative payoff")
    if spec.kind is not Kind.TIME_DRIVEN:
        raise ValueError("the shift Harnack inequality targets the time-driven equation")
    # the exponent first: it checks p, K, sigma_lo and the horizon before any solve
    expo = shift_harnack_exponent(p, spec.lipschitz_k, band.sigma_lo, horizon, v)
    if method == "pde":
        return _shift_certs(spec, [payoff], [p], band, horizon, x, [v])[0]
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    payoffs = [payoff, payoff.power(p).shifted(v)]
    at_x, at_shifted = _mc_values(spec, payoffs, x, horizon, band, mc or McConfig(), workers)
    return _mc_certificate(
        "shift-harnack", p, horizon, x, v, payoff.id, at_x, at_shifted, expo
    )


def _harnack_certs(spec, payoffs, ps, band, T, x0, ys):
    """Certificates of every payoff, p and point of `ys` at one (band, T):
    one stacked solve over f and every f^p of each payoff."""
    grid = Grid1D()
    for point in (x0, *ys):  # every point a solution is read at
        require_safe(point, grid, band, T)
    rows = [g for f in payoffs for g in (f, *(f.power(p) for p in ps))]
    sols = iter(solve_batch(rows, band, T, grid, spec))
    certs = []
    for payoff in payoffs:
        sol_f = next(sols)
        for p in ps:
            base = next(sols).value_at(x0)
            for y in ys:
                expo = harnack_exponent(p, spec.lipschitz_k, band, T, abs(y - x0))
                certs.append(
                    _certificate(
                        "harnack", p, T, x0, y, payoff.id, "pde",
                        sol_f.value_at(y) ** p, base, expo, PDE_BUDGET,
                    )
                )
    return certs


def _shift_certs(spec, payoffs, ps, band, T, x0, shifts):
    """Certificates of every payoff, p and shift at one (band, T): one
    stacked solve over f and every f^p(v + .) of each payoff."""
    grid = Grid1D()
    require_safe(x0, grid, band, T)
    rows = [
        g for f in payoffs for g in (f, *(f.power(p).shifted(v) for p in ps for v in shifts))
    ]
    sols = iter(solve_batch(rows, band, T, grid, spec))
    certs = []
    for payoff in payoffs:
        sol_f = next(sols)
        for p in ps:
            lhs = sol_f.value_at(x0) ** p
            for v in shifts:
                expo = shift_harnack_exponent(p, spec.lipschitz_k, band.sigma_lo, T, v)
                base = next(sols).value_at(x0)
                certs.append(
                    _certificate(
                        "shift-harnack", p, T, x0, v, payoff.id, "pde",
                        lhs, base, expo, PDE_BUDGET,
                    )
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
    with the PDE_BUDGET relative tolerance: one stacked solve per (band,
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
    certificate with the PDE_BUDGET relative tolerance: one stacked solve per
    (band, horizon) over f and every f^p(v + .) of each payoff; the unshifted
    solution is shared across the shift grid."""
    spec = replace(drift_spec, kind=Kind.TIME_DRIVEN)
    shifts = [float(v) for v in shifts]
    return [
        cert
        for band in bands
        for T in horizons
        for cert in _shift_certs(spec, payoffs, ps, band, T, x0, shifts)
    ]
