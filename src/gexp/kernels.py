"""Ornstein-Uhlenbeck family under volatility-parameter uncertainty:
one-dimensional semigroup quadratures, the explicit sup-kernel, quasi-
invariant expectation checks, the kernel lower bound, and the probe of the
printed two-member transition-density bound.

Means: the kernels and semigroups use the OU-consistent mean e^{-theta} x.
The printed kernel mean e^{theta} x contradicts the time-1 OU solution and
would break stationarity of N(0,1); only ex38_probe uses it, because it
tests the printed bound as printed.  Quadratures against the unbounded
sup-kernel are defined as truncated integrals on [-Z, Z] with the radius
reported; the exact integral diverges and the truncation exposes rather
than hides that.

The module runs on numpy alone.  Gauss-Hermite nodes come from Tricomi's
asymptotic formula polished by Newton on the orthonormal three-term
recurrence, in O(n) memory (Townsend, Trogdon & Olver, IMA J. Numer. Anal.
36, 2016), with Christoffel-Darboux weights; the member-invariance
integrals use 15-point Gauss-Kronrod panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import TestFunction, catalog

__all__ = [
    "KernelReport",
    "Ex38Report",
    "normal_expectation",
    "ou_semigroup",
    "ou_kernel",
    "sup_kernel_ex34",
    "dominance_check",
    "quasi_invariance_check",
    "member_invariance_gap",
    "classical_ou_harnack_exponent",
    "kernel_lower_bound_check",
    "ex38_probe",
    "run_kernel_suite",
]

THETA_LO = 0.5
THETA_HI = 1.0
# the two-member family, and the finer theta grid on which the sup-kernel's
# dominance and definition margins are checked
THETAS = (THETA_LO, THETA_HI)
THETA_GRID = tuple(np.linspace(THETA_LO, THETA_HI, 11))
SUP_KERNEL_NORM = math.sqrt(1.0 - math.exp(-1.0))
TRUNCATION_RADIUS = 8.0
# trapezoid nodes on [-TRUNCATION_RADIUS, TRUNCATION_RADIUS]
TRAPEZOID_NODES = 16001
# ou_semigroup doubles its order at a point until the value there moves by
# less than this
SEMIGROUP_TOL = 1e-10
# Gauss-Hermite order of the outer N(0, 1) integral of quasi_invariance_check
OUTER_ORDER = 128
# most failing points ex38_probe lists in printed_violation_rows
EX38_MAX_ROWS = 200
# Gauss-Kronrod panels on [-10, 10] in member_invariance_gap.  300 nodes keep
# the order-1024 semigroup matrix at 2.4 MB: glibc raises its mmap threshold
# to the size of each freed mapped block, so one larger transient would
# change how every later array up to that size is allocated in the process.
MEMBER_PANELS = 20


# Gauss-Kronrod 15-point rule on [-1, 1] (QUADPACK qk15): the nonnegative
# nodes, their Kronrod weights, and the Gauss-7 weights of every other node
_KRONROD_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GAUSS7_HALF_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_KRONROD_NODES = np.concatenate([-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_KRONROD_HALF_WEIGHTS[:-1], _KRONROD_HALF_WEIGHTS[::-1]])
_GAUSS7_WEIGHTS = np.concatenate([_GAUSS7_HALF_WEIGHTS[:-1], _GAUSS7_HALF_WEIGHTS[::-1]])
# rescaling period of the Hermite recurrence: at order 1024, 32 steps grow a
# value by at most ~1e40, far from overflow
_RESCALE_EVERY = 32


def _hermite_ratio(x: np.ndarray, n: int):
    """p_n(x) / p_{n-1}(x) and log|p_{n-1}(x)| for the orthonormal Hermite
    polynomials (weight e^{-t^2}); the recurrence is rescaled every
    _RESCALE_EVERY steps and the scale kept as a logarithm, so it never
    overflows where p_n grows like e^{x^2/2}."""
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi**-0.25)
    log_scale = np.zeros_like(x)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            s = np.abs(prev) + np.abs(cur)
            prev /= s
            cur /= s
            log_scale += np.log(s)
    return cur / prev, np.log(np.abs(prev)) + log_scale


@lru_cache(maxsize=None)
def _hermgauss(order: int):
    """Gauss-Hermite nodes and weights for the weight e^{-t^2}, in O(order)
    memory: Tricomi's asymptotic nodes, then Newton on the recurrence.  The
    weights are 1 / (n p_{n-1}(t)^2); they underflow to 0 where e^{-t^2} does.
    """
    m = order // 2  # positive nodes; an odd order adds the node 0
    nu = 2 * order + 1
    # Tricomi: x_k^2 ~ nu cos^2(s_k / 2) - correction, s_k - sin s_k = r_k
    r = (4 * m - 4 * np.arange(1, m + 1) + 3) * math.pi / nu
    s = np.full(m, math.pi / 2)
    for _ in range(7):
        s -= (s - np.sin(s) - r) / (1.0 - np.cos(s))
    c = np.cos(s / 2) ** 2
    x = np.sqrt(nu * c - (5.0 / (4.0 * (1.0 - c) ** 2) - 1.0 / (1.0 - c) - 0.25) / (3.0 * nu))
    x = np.concatenate([np.zeros(order % 2), x])
    for _ in range(10):
        ratio, log_prev = _hermite_ratio(x, order)
        # Newton step p_n / p_n' with p_n' = sqrt(2n) p_{n-1}
        step = ratio / math.sqrt(2.0 * order)
        x -= step
        if np.all(np.abs(step) <= 1e-15 * x):
            break
    # the last step moved no node by more than round-off, so log_prev holds
    w = np.exp(-math.log(order) - 2.0 * log_prev)
    return np.concatenate([-x[::-1][:m], x]), np.concatenate([w[::-1][:m], w])


def normal_expectation(f, mean, var: float, order: int = 64):
    """Gauss-Hermite quadrature of f against N(mean, var); mean may be a
    float (a float is returned) or an array (one value per mean)."""
    t, w = _hermgauss(order)
    mean = np.asarray(mean, dtype=float)
    vals = np.asarray(f(mean[..., None] + math.sqrt(2.0 * var) * t), dtype=float)
    out = vals @ w / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


def _gauss_kronrod(f, lo: float, hi: float, panels: int, tol: float = math.inf) -> float:
    """Integral of f on [lo, hi] by the 15-point Gauss-Kronrod rule on equal
    panels, f evaluated on all nodes at once.  With a finite tol, a panel on
    which the Kronrod and embedded Gauss-7 values differ by more than tol is
    bisected until none does."""
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1], edges[1:]
    total = 0.0
    while a.size:
        half = (b - a) / 2.0
        vals = f((a + half)[:, None] + half[:, None] * _KRONROD_NODES)
        kronrod = half * (vals @ _KRONROD_WEIGHTS)
        # a NaN difference counts as done, so a NaN payoff ends the loop
        done = ~(np.abs(kronrod - half * (vals @ _GAUSS7_WEIGHTS)) > tol)
        total += float(kronrod[done].sum())
        a, b, half = a[~done], b[~done], half[~done]
        a, b = np.concatenate([a, a + half]), np.concatenate([a + half, b])
    return total


def _normal_pdf(z, mean, var: float):
    """Density of N(mean, var) at z; z and mean may be floats or arrays."""
    return np.exp(-((z - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _ou_variance(theta: float) -> float:
    """Variance 1 - e^{-2 theta} of the time-1 OU kernel."""
    return 1.0 - math.exp(-2.0 * theta)


def ou_semigroup(theta: float, payoff: TestFunction, x):
    """Time-1 OU semigroup value by Gauss-Hermite quadrature against the
    normal law with variance 1 - e^{-2 theta}; at each point the order is
    doubled until the value there moves by less than SEMIGROUP_TOL.  x may be
    a float (a float is returned) or an array (an array of its shape is
    returned)."""
    if not THETA_LO <= theta <= THETA_HI:
        raise ValueError(f"theta={theta} outside [{THETA_LO}, {THETA_HI}]")
    var = _ou_variance(theta)
    mean = (math.exp(-theta) * np.asarray(x, dtype=float)).ravel()
    order = 64
    val = normal_expectation(payoff, mean, var, order)
    live = np.arange(mean.size)
    while order < 1024 and live.size:
        order *= 2
        nxt = normal_expectation(payoff, mean[live], var, order)
        moved = ~(np.abs(nxt - val[live]) < SEMIGROUP_TOL)
        val[live] = nxt
        live = live[moved]
    return float(val[0]) if np.ndim(x) == 0 else val.reshape(np.shape(x))


def ou_kernel(theta: float, x, z):
    """Transition density of the time-1 OU kernel."""
    return _normal_pdf(
        np.asarray(z, dtype=float), math.exp(-theta) * np.asarray(x), _ou_variance(theta)
    )


def sup_kernel_ex34(x, z):
    """Dominating density e^{z^2/2} / sqrt(1 - e^{-1}); independent of x."""
    z = np.asarray(z, dtype=float)
    out = np.exp(z**2 / 2.0) / SUP_KERNEL_NORM
    return float(out) if out.ndim == 0 else out


def dominance_check() -> dict:
    """Kernel-to-reference ratio against the explicit dominating density on
    THETA_GRID x [-2, 2] x [-4, 4]; the inequality is exact, so the allowed
    slack is round-off only (1e-12 relative).
    """
    zs = np.linspace(-4.0, 4.0, 17)
    phi = _normal_pdf(zs, 0.0, 1.0)
    # the envelope does not depend on x
    envelope = sup_kernel_ex34(0.0, zs)
    cap = envelope * (1.0 + 1e-12)
    worst = -np.inf
    worst_at = None
    violations = 0
    for th in THETA_GRID:
        for x in np.linspace(-2.0, 2.0, 9):
            ratio = ou_kernel(th, x, zs) / phi
            violations += int(np.sum(ratio > cap))
            excess = ratio - envelope
            k = int(np.argmax(excess))
            if excess[k] > worst:
                worst = float(excess[k])
                worst_at = (float(th), float(x), float(zs[k]))
    return {"violations": violations, "worst_excess": worst, "worst_at": worst_at}


def _pbar(payoff, x, thetas):
    """max over thetas of P_theta f at x (a float or an array)."""
    return np.max([ou_semigroup(th, payoff, x) for th in thetas], axis=0)


def quasi_invariance_check(payoff: TestFunction) -> float:
    """Gap E0[max_theta P_theta f] - 2 E0[f] under N(0,1), the max over the
    two-member family; required <= 0 up to quadrature tolerance."""
    if not payoff.positivity:
        raise ValueError("quasi-invariance check requires a nonnegative payoff")
    lhs = normal_expectation(lambda z: _pbar(payoff, z, THETAS), 0.0, 1.0, OUTER_ORDER)
    rhs = 2.0 * normal_expectation(payoff, 0.0, 1.0, OUTER_ORDER)
    return lhs - rhs


def member_invariance_gap(theta: float, payoff: TestFunction) -> float:
    """E0[P_theta f] - E0[f]; N(0,1) is stationary for each member, so the
    gap is quadrature error only.

    Both sides are integrals on [-10, 10].  P_theta f is smooth, so its side
    takes a fixed rule: an adaptive one would chase the ~1e-10 noise of the
    order doubling in ou_semigroup.  f may have kinks, so its side bisects
    panels until the Kronrod error estimate is below 1e-13.
    """
    lim = TRUNCATION_RADIUS + 2.0
    lhs = _gauss_kronrod(
        lambda x: ou_semigroup(theta, payoff, x) * _normal_pdf(x, 0.0, 1.0),
        -lim, lim, MEMBER_PANELS,
    )
    rhs = _gauss_kronrod(
        lambda x: payoff(x) * _normal_pdf(x, 0.0, 1.0), -lim, lim, MEMBER_PANELS, tol=1e-13
    )
    return lhs - rhs


def classical_ou_harnack_exponent(alpha: float, theta: float, dist: float) -> float:
    """Two-point Harnack exponent of the classical time-1 OU kernel:
    alpha e^{-2 theta} dist^2 / (2 (alpha-1) (1 - e^{-2 theta}))."""
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite, got {alpha}")
    return alpha * math.exp(-2.0 * theta) * dist**2 / (2.0 * (alpha - 1.0) * _ou_variance(theta))


def _truncated_sup_integral(x: float, g) -> float:
    """E0[p(x,.) g] with the explicit sup-kernel p, as a TRAPEZOID_NODES
    trapezoid integral on [-TRUNCATION_RADIUS, TRUNCATION_RADIUS]."""
    zs = np.linspace(-TRUNCATION_RADIUS, TRUNCATION_RADIUS, TRAPEZOID_NODES)
    integrand = sup_kernel_ex34(x, zs) * np.asarray(g(zs)) * _normal_pdf(zs, 0.0, 1.0)
    return float(np.trapezoid(integrand, zs))


def kernel_lower_bound_check(x: float, y: float, alpha: float) -> float:
    """Margin E0[p(x,.) p(y,.)] - e^{-Psi(x,y)} with the explicit sup-kernel.

    The exact expectation diverges (the integrand grows like e^{z^2/2}), so
    the left side is truncated (see _truncated_sup_integral); Psi is the
    classical OU Harnack exponent maximized over the two-member family.
    """
    psi = max(classical_ou_harnack_exponent(alpha, th, abs(x - y)) for th in THETAS)
    return _truncated_sup_integral(x, lambda z: sup_kernel_ex34(y, z)) - math.exp(-psi)


def sup_kernel_definition_margin(payoff: TestFunction, x: float) -> float:
    """Margin E0[p(x,.) f] - max_theta P_theta f(x), the max over THETA_GRID
    and the outer integral truncated like kernel_lower_bound_check's;
    nonnegative margins realize the sup-kernel property."""
    return _truncated_sup_integral(x, payoff) - float(_pbar(payoff, x, THETA_GRID))


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
        """Every field, the grids as x_grid and y_grid, each row as a dict."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["x_grid"], d["y_grid"] = d.pop("xs").tolist(), d.pop("ys").tolist()
        keys = ("x", "y", "lhs", "rhs")
        d["printed_violation_rows"] = [dict(zip(keys, r)) for r in self.printed_violation_rows]
        return d


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
    v1, v2 = _ou_variance(0.5), _ou_variance(1.0)
    m1 = math.exp(0.5) * X
    m2 = math.e * X
    p_half = _normal_pdf(Y, m1, v1)
    p_one = _normal_pdf(Y, m2, v2)
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

    def to_dict(self) -> dict:
        """Every field, ex38 as its dict, and the truncation radius."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["ex38"], d["truncation_radius"] = self.ex38.to_dict(), TRUNCATION_RADIUS
        return d

    @property
    def passed(self) -> bool:
        """Every check within its quadrature tolerance."""
        return (
            self.dominance["violations"] == 0
            and all(g <= 1e-6 for g in self.quasi_invariance_gaps.values())
            and all(abs(g) <= 1e-6 for g in self.member_invariance_gaps.values())
            and all(m >= 0.0 for m in self.lower_bound_margins.values())
            and all(m >= -1e-9 for m in self.sup_kernel_margins.values())
            and self.ex38.sum_dominance_violations == 0
        )


def run_kernel_suite(alpha: float = 2.0) -> KernelReport:
    """Run every kernel-level check on the shipped payoff catalog.  The
    lower-bound margins come first, so an alpha that is not finite and
    above 1 fails before any quadrature (classical_ou_harnack_exponent)."""
    lower = {
        f"x={x:g},y={y:g}": kernel_lower_bound_check(x, y, alpha)
        for x in (-1.0, 0.0, 1.0)
        for y in (-1.0, 0.0, 1.0)
    }
    payoffs = catalog()
    quasi = {pid: quasi_invariance_check(f) for pid, f in payoffs.items()}
    member = {
        f"{pid}@theta={th:g}": member_invariance_gap(th, f)
        for pid, f in payoffs.items()
        for th in THETAS
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
