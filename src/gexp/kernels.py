"""Ornstein-Uhlenbeck family under volatility-parameter uncertainty:
one-dimensional semigroup quadratures, the explicit sup-kernel, quasi-
invariant expectation checks, the kernel lower bound, and the probe of the
printed two-member transition-density bound.

Means: the printed kernel mean e^{theta} x contradicts the time-1 OU
solution and would break stationarity of N(0,1); the OU-consistent mean
e^{-theta} x is the default, with the printed form kept behind a flag for
fidelity experiments.  Quadratures against the unbounded sup-kernel are
defined as truncated integrals on [-Z, Z] with the radius reported; the
exact integral diverges and the truncation exposes rather than hides that.

scipy is imported inside the two quadratures that use it (Gauss-Hermite
nodes and adaptive `quad`), so importing gexp, and every command but
`gexp kernels`, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import warnings

import numpy as np

from .core import TestFunction, catalog

__all__ = [
    "MeanMode",
    "OuFamily",
    "KernelReport",
    "Ex38Report",
    "normal_expectation",
    "ou_semigroup",
    "ou_kernel",
    "sup_kernel_ex34",
    "dominance_check",
    "quasi_invariance_check",
    "member_invariance_gap",
    "kernel_lower_bound_check",
    "ex38_probe",
    "run_kernel_suite",
]

THETA_LO = 0.5
THETA_HI = 1.0
SUP_KERNEL_NORM = math.sqrt(1.0 - math.exp(-1.0))
TRUNCATION_RADIUS = 8.0
# most failing points ex38_probe lists in printed_violation_rows
EX38_MAX_ROWS = 200


class MeanMode(Enum):
    AS_PRINTED = "as_printed"      # kernel mean e^{theta} x
    OU_CONSISTENT = "ou_consistent"  # kernel mean e^{-theta} x


@dataclass(frozen=True)
class OuFamily:
    """Finite or sampled set of OU volatility parameters with a mean mode."""

    thetas: tuple[float, ...] = (0.5, 1.0)
    mean_mode: MeanMode = MeanMode.OU_CONSISTENT

    def __post_init__(self):
        for th in self.thetas:
            if not THETA_LO <= th <= THETA_HI:
                raise ValueError(f"theta={th} outside [{THETA_LO}, {THETA_HI}]")


@lru_cache(maxsize=None)
def _hermgauss(order: int):
    # scipy's recurrence-based nodes stay finite at high orders where the
    # companion-matrix route overflows
    from scipy.special import roots_hermite

    t, w = roots_hermite(order)
    return t, w


def normal_expectation(f, mean: float, var: float, order: int = 64) -> float:
    """Gauss-Hermite quadrature of f against N(mean, var)."""
    t, w = _hermgauss(order)
    return float(w @ np.asarray(f(mean + math.sqrt(2.0 * var) * t), dtype=float)) / math.sqrt(math.pi)


def _kernel_mean(theta: float, x, mean_mode: MeanMode):
    """Kernel mean e^{theta} x as printed, e^{-theta} x OU-consistently;
    x may be a float or an array."""
    return math.exp(theta) * x if mean_mode is MeanMode.AS_PRINTED else math.exp(-theta) * x


def ou_semigroup(
    theta: float,
    payoff: TestFunction,
    x: float,
    mean_mode: MeanMode = MeanMode.OU_CONSISTENT,
    tol: float = 1e-10,
) -> float:
    """Time-1 OU semigroup value by Gauss-Hermite quadrature against the
    normal law with variance 1 - e^{-2 theta}; the order is doubled until
    the result moves by less than tol."""
    if not THETA_LO <= theta <= THETA_HI:
        raise ValueError(f"theta={theta} outside [{THETA_LO}, {THETA_HI}]")
    var = 1.0 - math.exp(-2.0 * theta)
    mean = _kernel_mean(theta, x, mean_mode)
    order = 64
    val = normal_expectation(payoff, mean, var, order)
    while order < 1024:
        order *= 2
        nxt = normal_expectation(payoff, mean, var, order)
        if abs(nxt - val) < tol:
            return nxt
        val = nxt
    return val


def ou_kernel(theta: float, x, z, mean_mode: MeanMode = MeanMode.OU_CONSISTENT):
    """Transition density of the time-1 OU kernel."""
    var = 1.0 - math.exp(-2.0 * theta)
    m = _kernel_mean(theta, np.asarray(x), mean_mode)
    z = np.asarray(z, dtype=float)
    return np.exp(-((z - m) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def sup_kernel_ex34(x, z):
    """Dominating density e^{z^2/2} / sqrt(1 - e^{-1}); independent of x."""
    z = np.asarray(z, dtype=float)
    out = np.exp(z**2 / 2.0) / SUP_KERNEL_NORM
    return float(out) if out.ndim == 0 else out


def _standard_normal_pdf(z):
    return np.exp(-np.asarray(z, dtype=float) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)


def dominance_check(
    thetas=None,
    xs=None,
    zs=None,
    mean_mode: MeanMode = MeanMode.OU_CONSISTENT,
    slack: float = 1e-12,
) -> dict:
    """Kernel-to-reference ratio against the explicit dominating density on
    a grid; the inequality is exact, so the allowed slack is round-off only.
    """
    thetas = np.linspace(THETA_LO, THETA_HI, 11) if thetas is None else np.asarray(thetas)
    xs = np.linspace(-2.0, 2.0, 9) if xs is None else np.asarray(xs)
    zs = np.linspace(-4.0, 4.0, 17) if zs is None else np.asarray(zs)
    worst = -np.inf
    worst_at = None
    violations = 0
    for th in thetas:
        for x in xs:
            ratio = ou_kernel(th, x, zs, mean_mode) / _standard_normal_pdf(zs)
            cap = sup_kernel_ex34(x, zs) * (1.0 + slack)
            bad = ratio > cap
            violations += int(np.sum(bad))
            excess = ratio - sup_kernel_ex34(x, zs)
            k = int(np.argmax(excess))
            if excess[k] > worst:
                worst = float(excess[k])
                worst_at = (float(th), float(x), float(zs[k]))
    return {"violations": violations, "worst_excess": worst, "worst_at": worst_at}


def _pbar_pointwise(payoff, x, family: OuFamily):
    return max(ou_semigroup(th, payoff, x, family.mean_mode) for th in family.thetas)


def quasi_invariance_check(
    payoff: TestFunction,
    family: OuFamily | None = None,
    outer_order: int = 128,
) -> float:
    """Gap E0[max_theta P_theta f] - 2 E0[f] under N(0,1); required <= 0 up
    to quadrature tolerance."""
    if not payoff.positivity:
        raise ValueError("quasi-invariance check requires a nonnegative payoff")
    family = family or OuFamily()
    t, w = _hermgauss(outer_order)
    xs = math.sqrt(2.0) * t
    pbar_vals = np.array([_pbar_pointwise(payoff, float(x), family) for x in xs])
    lhs = float(w @ pbar_vals) / math.sqrt(math.pi)
    rhs = 2.0 * normal_expectation(payoff, 0.0, 1.0, outer_order)
    return lhs - rhs


def member_invariance_gap(theta: float, payoff: TestFunction) -> float:
    """E0[P_theta f] - E0[f] in the OU-consistent mode; N(0,1) is stationary
    for each member, so the gap is quadrature error only.

    Adaptive quadrature is used on both sides so that non-smooth catalog
    payoffs do not leak fixed-order quadrature error into the gap.
    """
    from scipy.integrate import IntegrationWarning, quad

    def lhs_integrand(x):
        return ou_semigroup(theta, payoff, x, MeanMode.OU_CONSISTENT) * float(
            _standard_normal_pdf(x)
        )

    def rhs_integrand(x):
        return float(payoff(x)) * float(_standard_normal_pdf(x))

    lim = TRUNCATION_RADIUS + 2.0
    with warnings.catch_warnings():
        # near machine precision quadpack flags round-off; best effort is fine
        warnings.simplefilter("ignore", IntegrationWarning)
        lhs, _ = quad(lhs_integrand, -lim, lim, epsabs=1e-11, epsrel=1e-11, limit=200)
        rhs, _ = quad(rhs_integrand, -lim, lim, epsabs=1e-11, epsrel=1e-11, limit=200)
    return lhs - rhs


def classical_ou_harnack_exponent(alpha: float, theta: float, dist: float) -> float:
    """Two-point Harnack exponent of the classical time-1 OU kernel:
    alpha e^{-2 theta} dist^2 / (2 (alpha-1) (1 - e^{-2 theta}))."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    e2 = math.exp(-2.0 * theta)
    return alpha * e2 * dist**2 / (2.0 * (alpha - 1.0) * (1.0 - e2))


def kernel_lower_bound_check(
    x: float,
    y: float,
    alpha: float,
    family: OuFamily | None = None,
    trunc: float = TRUNCATION_RADIUS,
    n: int = 16001,
) -> float:
    """Margin E0[p(x,.) p(y,.)] - e^{-Psi(x,y)} with the explicit sup-kernel.

    The exact expectation diverges (the integrand grows like e^{z^2/2}), so
    the left side is a truncated integral on [-trunc, trunc]; Psi is the
    classical OU Harnack exponent maximized over the family.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    family = family or OuFamily()
    zs = np.linspace(-trunc, trunc, n)
    integrand = sup_kernel_ex34(x, zs) * sup_kernel_ex34(y, zs) * _standard_normal_pdf(zs)
    lhs = float(np.trapezoid(integrand, zs))
    psi = max(
        classical_ou_harnack_exponent(alpha, th, abs(x - y)) for th in family.thetas
    )
    return lhs - math.exp(-psi)


def sup_kernel_definition_margin(
    payoff: TestFunction,
    x: float,
    family: OuFamily | None = None,
    trunc: float = TRUNCATION_RADIUS,
    n: int = 16001,
) -> float:
    """Margin E0[p(x,.) f] - max_theta P_theta f(x) (truncated outer
    integral); nonnegative margins realize the sup-kernel property."""
    family = family or OuFamily(thetas=tuple(np.linspace(THETA_LO, THETA_HI, 11)))
    zs = np.linspace(-trunc, trunc, n)
    rhs = float(
        np.trapezoid(
            sup_kernel_ex34(x, zs) * np.asarray(payoff(zs)) * _standard_normal_pdf(zs),
            zs,
        )
    )
    return rhs - _pbar_pointwise(payoff, x, family)


@dataclass(frozen=True)
class Ex38Report:
    """Evaluation of the printed two-member density bound on a grid, plus the
    safe-sum dominance check."""

    xs: np.ndarray
    ys: np.ndarray
    printed_violations: int          # points where the printed bound fails
    printed_violation_rows: tuple    # (x, y, lhs, rhs) where it fails
    sum_dominance_violations: int    # points where p_half+p_one < max(...)
    origin_lhs: float
    origin_rhs: float

    def to_dict(self) -> dict:
        return {
            "x_grid": [float(v) for v in self.xs],
            "y_grid": [float(v) for v in self.ys],
            "printed_violations": self.printed_violations,
            "printed_violation_rows": [
                {"x": r[0], "y": r[1], "lhs": r[2], "rhs": r[3]}
                for r in self.printed_violation_rows
            ],
            "sum_dominance_violations": self.sum_dominance_violations,
            "origin_lhs": self.origin_lhs,
            "origin_rhs": self.origin_rhs,
        }


def ex38_probe(
    xs: np.ndarray | None = None,
    ys: np.ndarray | None = None,
) -> Ex38Report:
    """Evaluate both sides of the printed product-form bound

        p_half(x,y) + p_one(x,y) <= (2 pi (1-e^{-1}))^{-1/2} exp{A + B}

    on a grid (the printed kernel means are used verbatim) and record where
    it fails.  Separately verify that the plain sum dominates the pointwise
    max of the two members, which is what the sup-density property needs.
    """
    xs = np.linspace(-2.0, 2.0, 41) if xs is None else np.asarray(xs, dtype=float)
    ys = np.linspace(-6.0, 6.0, 121) if ys is None else np.asarray(ys, dtype=float)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    v1 = 1.0 - math.exp(-1.0)
    v2 = 1.0 - math.exp(-2.0)
    m1 = math.exp(0.5) * X
    m2 = math.e * X
    p_half = np.exp(-((Y - m1) ** 2) / (2.0 * v1)) / math.sqrt(2.0 * math.pi * v1)
    p_one = np.exp(-((Y - m2) ** 2) / (2.0 * v2)) / math.sqrt(2.0 * math.pi * v2)
    lhs = p_half + p_one
    rhs = np.exp(
        -((Y - m1) ** 2) / (2.0 * v1) - ((Y - m2) ** 2) / (2.0 * v2)
    ) / math.sqrt(2.0 * math.pi * v1)
    bad = lhs > rhs
    idx = np.argwhere(bad)
    rows = tuple(
        (float(X[i, j]), float(Y[i, j]), float(lhs[i, j]), float(rhs[i, j]))
        for i, j in idx[:EX38_MAX_ROWS]
    )
    sum_dom_bad = int(np.sum(lhs < np.maximum(p_half, p_one)))
    # closed-form values at the origin, independent of the grid
    origin_lhs = 1.0 / math.sqrt(2.0 * math.pi * v1) + 1.0 / math.sqrt(2.0 * math.pi * v2)
    origin_rhs = 1.0 / math.sqrt(2.0 * math.pi * v1)
    return Ex38Report(
        xs=xs,
        ys=ys,
        printed_violations=int(np.sum(bad)),
        printed_violation_rows=rows,
        sum_dominance_violations=sum_dom_bad,
        origin_lhs=origin_lhs,
        origin_rhs=origin_rhs,
    )


@dataclass(frozen=True)
class KernelReport:
    dominance: dict
    quasi_invariance_gaps: dict
    member_invariance_gaps: dict
    lower_bound_margins: dict
    sup_kernel_margins: dict
    ex38: Ex38Report
    truncation_radius: float = TRUNCATION_RADIUS

    def to_dict(self) -> dict:
        return {
            "dominance": self.dominance,
            "quasi_invariance_gaps": self.quasi_invariance_gaps,
            "member_invariance_gaps": self.member_invariance_gaps,
            "lower_bound_margins": self.lower_bound_margins,
            "sup_kernel_margins": self.sup_kernel_margins,
            "ex38": self.ex38.to_dict(),
            "truncation_radius": self.truncation_radius,
        }


def run_kernel_suite(alpha: float = 2.0) -> KernelReport:
    """Run every kernel-level check on the shipped payoff catalog."""
    payoffs = catalog()
    family = OuFamily()
    quasi = {pid: quasi_invariance_check(f, family) for pid, f in payoffs.items()}
    member = {
        f"{pid}@theta={th:g}": member_invariance_gap(th, f)
        for pid, f in payoffs.items()
        for th in family.thetas
    }
    lower = {
        f"x={x:g},y={y:g}": kernel_lower_bound_check(x, y, alpha, family)
        for x in (-1.0, 0.0, 1.0)
        for y in (-1.0, 0.0, 1.0)
    }
    supmargins = {
        f"{pid}@x={x:g}": sup_kernel_definition_margin(f, x)
        for pid, f in payoffs.items()
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0)
    }
    return KernelReport(
        dominance=dominance_check(),
        quasi_invariance_gaps=quasi,
        member_invariance_gaps=member,
        lower_bound_margins=lower,
        sup_kernel_margins=supmargins,
        ex38=ex38_probe(),
    )
