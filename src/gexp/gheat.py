"""Monotone explicit finite-difference solver for the fully nonlinear
parabolic equations that define the worst-case semigroup:

  * pure second-order case     u_t = G(u_xx),  G(a) = (vhi*a+ - vlo*a-)/2
  * qv-driven drift            u_t = sup_{v in [vlo,vhi]} v*(b(x)u_x + u_xx/2)
  * time-driven drift          u_t = b(x)u_x + G(u_xx)

The scheme is explicit with Heun (two-stage) time stepping and a hybrid
centered/upwind first derivative: centered wherever the cell Peclet number
permits a monotone stencil, one-sided otherwise.  Monotonicity gives the
comparison principle that the property suite checks.  Boundaries use
zero-curvature (second derivative = 0) extrapolation; values within the
6*sigma_hi*sqrt(T) padding zone of the boundary are treated as contaminated.

One time-marcher, `solve_batch`, advances a (P, nx) stack of payoffs at
once: every row shares the grid, the drift values, the upwind choice, the
CFL step and the step count, and each step works in preallocated buffers,
so the per-call numpy overhead of a Heun step is paid once per stack rather
than once per payoff.  The per-element arithmetic is that of a single row,
so each row is bit-identical to solving its payoff alone; `solve` is the
one-row case.  Certificate sweeps and axiom checks stack every payoff they
need at one (band, horizon, drift) into one call.

At nx = 401 a step costs numpy call overhead, not arithmetic: a Heun step
is 26 calls for the G-heat equation, 42 (qv-driven) or 44 (time-driven)
with one upwinded run per side, and 4 more per extra run, whatever P is.
The max forms G(a) = (max(vhi*a, vlo*a) + 0.0) / 2 and v* q =
max(vlo*q, vhi*q) give the bits of (vhi*a+ - vlo*a-)/2 and of the masked
choice of v*: each product has the sign of its factor, rounding is
monotone and a sign flip is exact, so the larger product is the one the
masked form takes; + 0.0 maps the -0.0 of a = -0.0 (or of an underflowing
vlo*a) to the +0.0 that the two-sided form gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import GsdeSpec, Kind, TestFunction, VolatilityBand

__all__ = [
    "Grid1D", "PdeSolution", "g_operator", "solve", "solve_batch", "pbar_pde",
]


# fraction of the stability bound taken as the time step
CFL_SAFETY = 0.9
# most Heun steps solve_batch marches; a longer march is a ValueError
MAX_STEPS = 10**6


@dataclass(frozen=True)
class Grid1D:
    x_min: float = -10.0
    x_max: float = 10.0
    nx: int = 401

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError("nx must be at least 3")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("x_min and x_max must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass(frozen=True)
class PdeSolution:
    grid: Grid1D
    horizon: float
    values: np.ndarray  # u(T, x_j)
    dt: float
    n_steps: int
    kind: str

    def value_at(self, x) -> float:
        x = float(x)
        g = self.grid
        if not g.x_min <= x <= g.x_max:
            raise ValueError(f"x={x} outside the grid")
        return float(np.interp(x, g.xs, self.values))


def _g_into(a, v_lo, v_hi, out, tmp) -> None:
    """out = G(a) = (max(vhi*a, vlo*a) + 0.0) / 2; out, tmp must not overlap a."""
    np.multiply(a, v_hi, out=out)
    np.multiply(a, v_lo, out=tmp)
    np.maximum(out, tmp, out=out)
    np.add(out, 0.0, out=out)
    np.multiply(out, 0.5, out=out)


def g_operator(a, band: VolatilityBand):
    """1-D nonlinear generator G(a) = (vhi*max(a,0) - vlo*max(-a,0)) / 2.

    Positively homogeneous and subadditive in a.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    _g_into(a, band.v_lo, band.v_hi, out, np.empty_like(a))
    return float(out) if out.ndim == 0 else out


def _stable_dt(grid: Grid1D, band: VolatilityBand, bmax: float, kind: Kind | None) -> float:
    # advective coefficient: v*b for the qv-driven equation, b otherwise
    adv = band.v_hi * bmax if kind is Kind.QV_DRIVEN else bmax
    return grid.dx**2 / (band.v_hi + grid.dx * adv)


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of every run of True in a 1-D mask."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return [(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2])]


def solve(
    payoff: TestFunction,
    band: VolatilityBand,
    horizon: float,
    grid: Grid1D,
    spec: GsdeSpec | None = None,
) -> PdeSolution:
    """March u(0,.) = payoff forward to u(horizon,.): a one-row solve_batch."""
    return solve_batch([payoff], band, horizon, grid, spec)[0]


def solve_batch(
    payoffs: Sequence[TestFunction],
    band: VolatilityBand,
    horizon: float,
    grid: Grid1D,
    spec: GsdeSpec | None = None,
) -> list[PdeSolution]:
    """March the stack u(0,.) = payoffs[i] forward to u(horizon,.), one
    solution per payoff, each holding its row of the stack.

    With spec=None the pure G-heat equation is solved; otherwise spec.kind
    selects the qv-driven or time-driven drift equation.  The per-node
    bang-bang optimum of the qv-driven equation takes the upper level on
    ties (q = 0), which changes no flux but keeps runs reproducible.  Each
    row depends only on its own payoff, bit for bit.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    xs, dx = grid.xs, grid.dx
    kind = None if spec is None else spec.kind
    b = None if spec is None else spec.b(xs)
    if b is not None and not np.all(np.isfinite(b)):
        x_bad = xs[~np.isfinite(b)][0]
        raise ValueError(f"drift is not finite on the grid, first at x = {x_bad:.6g}")
    bmax = 0.0 if b is None else float(np.max(np.abs(b)))
    dt_max = _stable_dt(grid, band, bmax, kind)
    n_steps = max(1, math.ceil(horizon / (CFL_SAFETY * dt_max)))
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"the march needs {n_steps} steps, above the budget of {MAX_STEPS}"
        )
    dt = horizon / n_steps
    u = np.empty((len(payoffs), grid.nx))
    for row, payoff in zip(u, payoffs):
        row[:] = payoff(xs)

    v_lo, v_hi = band.v_lo, band.v_hi
    inv_dx2, inv_2dx, inv_dx = 1.0 / dx**2, 0.5 / dx, 1.0 / dx

    # work buffers.  The difference stencils run over each buffer as one flat
    # array, so the first and last node of every row come out mixed with the
    # neighbouring row; those columns are set by the boundary rules below.
    u1, k, wxx, t1, t2 = (np.empty_like(u) for _ in range(5))
    wxx_in, wxx_edges = wxx.reshape(-1)[1:-1], wxx[:, ::grid.nx - 1]
    runs = []

    if b is not None:
        # centered first differences are monotone iff |b|*dx stays below the
        # diffusion scale: 1 for the qv-driven equation (v cancels), vlo else;
        # elsewhere the one-sided difference that follows the flow is used,
        # and boundary nodes take it only when the flow enters the domain
        pe_limit = 1.0 if kind is Kind.QV_DRIVEN else band.v_lo
        upwind = np.abs(b) * dx > pe_limit
        fwd = upwind & (b > 0.0)
        fwd[0], fwd[-1] = b[0] > 0.0, False
        bwd = upwind & (b < 0.0)
        bwd[0], bwd[-1] = False, b[-1] < 0.0
        wx = np.empty_like(u)
        wx_in, wx_edges = wx.reshape(-1)[1:-1], wx[:, ::grid.nx - 1]
        # (first shift, second shift) of every run: forward runs take
        # (w_{j+1} - w_j) / dx, backward runs (w_j - w_{j-1}) / dx
        runs = [(lo, hi, 1, 0) for lo, hi in _runs(fwd)]
        runs += [(lo, hi, 0, -1) for lo, hi in _runs(bwd)]

    def stencil(w):
        # the views rhs reads from w, built once for each of the two buffers
        wf = w.reshape(-1)
        return wf[1:-1], wf[2:], wf[:-2], [
            (w[:, lo + s1:hi + s1], w[:, lo + s2:hi + s2], wx[:, lo:hi])
            for lo, hi, s1, s2 in runs
        ]

    def rhs(views, out):
        w_in, w_up, w_dn, w_runs = views
        np.multiply(w_in, 2.0, out=wxx_in)
        np.subtract(w_up, wxx_in, out=wxx_in)
        np.add(wxx_in, w_dn, out=wxx_in)
        np.multiply(wxx_in, inv_dx2, out=wxx_in)
        wxx_edges.fill(0.0)  # zero-curvature boundary
        if b is None:
            _g_into(wxx, v_lo, v_hi, out, t2)
            return
        np.subtract(w_up, w_dn, out=wx_in)
        np.multiply(wx_in, inv_2dx, out=wx_in)
        wx_edges.fill(0.0)
        for ahead, behind, wx_run in w_runs:
            np.subtract(ahead, behind, out=wx_run)
            np.multiply(wx_run, inv_dx, out=wx_run)
        if kind is Kind.QV_DRIVEN:
            # q = b*wx + wxx/2, times v* = vhi where q >= 0, vlo elsewhere
            np.multiply(b, wx, out=t1)
            np.multiply(wxx, 0.5, out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(t1, v_lo, out=out)
            np.multiply(t1, v_hi, out=t2)
            np.maximum(out, t2, out=out)
            return
        _g_into(wxx, v_lo, v_hi, out, t2)
        np.multiply(b, wx, out=t1)
        np.add(t1, out, out=out)

    u_views, u1_views = stencil(u), stencil(u1)
    for step in range(n_steps):
        # Heun: u1 = u + dt*rhs(u);  u <- ((u + u1) + dt*rhs(u1)) / 2
        rhs(u_views, k)
        np.multiply(k, dt, out=k)
        np.add(u, k, out=u1)
        rhs(u1_views, k)
        np.add(u, u1, out=u)
        np.multiply(k, dt, out=k)
        np.add(u, k, out=u)
        np.multiply(u, 0.5, out=u)
        if step % 128 == 0 and not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite values at step {step}")
    if not np.all(np.isfinite(u)):
        raise RuntimeError(f"non-finite values at final step {n_steps}")

    label = "gheat" if kind is None else kind.value
    return [PdeSolution(grid, horizon, row, dt, n_steps, label) for row in u]


def safe_window(grid: Grid1D, band: VolatilityBand, horizon: float) -> tuple[float, float]:
    """Interval where boundary truncation is negligible for bounded payoffs."""
    pad = 6.0 * band.sigma_hi * math.sqrt(horizon)
    return grid.x_min + pad, grid.x_max - pad


def require_safe(x: float, grid: Grid1D, band: VolatilityBand, horizon: float) -> None:
    lo, hi = safe_window(grid, band, horizon)
    if not lo <= x <= hi:
        raise ValueError(
            f"x={x} lies in the boundary-contaminated zone outside [{lo}, {hi}]"
        )


def pbar_pde(
    spec: GsdeSpec,
    payoff: TestFunction,
    x: float,
    horizon: float,
    band: VolatilityBand,
    grid: Grid1D | None = None,
) -> float:
    """Worst-case semigroup value at a single point via the PDE solver."""
    grid = grid or Grid1D()
    require_safe(x, grid, band, horizon)
    return solve(payoff, band, horizon, grid, spec).value_at(x)
