"""Monotone explicit finite-difference solver for the two fully nonlinear
parabolic equations that define the worst-case semigroup:

  * qv-driven drift            u_t = sup_{v in [vlo,vhi]} v*(b(x)u_x + u_xx/2)
  * time-driven drift          u_t = b(x)u_x + G(u_xx),  G(a) = (vhi*a+ - vlo*a-)/2

The G-heat equation u_t = G(u_xx) is the time-driven equation with b = 0.

The scheme takes one forward-Euler stage per time step, with a hybrid
centered/upwind first derivative: centered wherever the cell Peclet number
permits a monotone stencil, one-sided otherwise.  At the CFL step
dt <= dx^2 / (vhi + dx*adv) a step is a maximum of linear maps with
nonnegative weights, hence monotone: the comparison principle that the
property suite checks.  Heun's two-stage SSP scheme has SSP coefficient 1,
so its monotone step is Euler's, and with dt ~ dx^2 Euler's O(dt) time
error matches the O(dx^2) space error.  Boundaries use
zero-curvature (second derivative = 0) extrapolation; values within the
6*sigma_hi*sqrt(T) padding zone of the boundary are treated as contaminated.

One time-marcher, `solve_batch`, advances a (P, nx) stack of payoffs at
once: every row shares the grid, the drift values, the upwind choice, the
CFL step and the step count, and each step works in preallocated buffers,
so the per-call numpy overhead of a step is paid once per stack rather
than once per payoff.  The per-element arithmetic is that of a single row,
so each row is bit-identical to solving its payoff alone; `solve` is the
one-row case.  Certificate sweeps and axiom checks stack every payoff they
need at one (band, horizon, drift) into one call.  Identical initial rows
(byte for byte, such as the repeats of f^p in a Harnack stack, or the
powers and shifts of a constant payoff) end identical, so each is marched
once and copied back to every payoff.

Each step is, node by node, a fixed three-point linear map under the max
over the band (Oberman, SIAM J. Numer. Anal. 44, 2006): dt*b*u_x and
dt*u_xx/2 are the node's forward and backward differences times
coefficients built once per solve, and one subtraction over the flat
stack gives both differences.  At nx = 401 a step costs about 4-6 us
fixed, plus about 1.1-1.7 us per marched row (lines fitted to the min of
21 solves at P = 1..32, ou drift, three runs, on a 2-core x86-64 box).
The fixed part is numpy call overhead: a step is 9 calls (qv-driven) or
11 (time-driven) on flat contiguous operands, whatever P is and wherever
the march upwinds.
The max forms G(a) = (max(vhi*a, vlo*a) + 0.0) / 2 of g_operator and
v* q = max(vlo*q, vhi*q) give the bits of (vhi*a+ - vlo*a-)/2 and of the
masked choice of v*: each product has the sign of its factor, rounding is
monotone and a sign flip is exact, so the larger product is the one the
masked form takes; + 0.0 maps the -0.0 of a = -0.0 (or of an underflowing
vlo*a) to the +0.0 that the two-sided form gives.  The march takes
dt*G(u_xx) as max(g_hi*D, g_lo*D), D = dx^2 u_xx and g = v*dt/(2dx^2),
the same choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import GsdeSpec, Kind, TestFunction, VolatilityBand, _require_horizon, make_drift

__all__ = [
    "Grid1D", "PdeSolution", "g_operator", "solve", "solve_batch", "pbar_pde",
]


# fraction of the stability bound taken as the time step
CFL_SAFETY = 0.9
# most forward-Euler steps solve_batch marches; a longer march is a ValueError
MAX_STEPS = 10**6
# relative error allowed to this scheme's values by every check that reads them
PDE_BUDGET = 2e-3


@dataclass(frozen=True)
class Grid1D:
    x_min: float = -10.0
    x_max: float = 10.0
    nx: int = 401

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError("nx must be at least 3")
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError("x_min, x_max and the width x_max - x_min must be finite")
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
    values: np.ndarray  # u(T, x_j)
    dt: float
    n_steps: int

    def value_at(self, x) -> float:
        x = float(x)
        g = self.grid
        if not g.x_min <= x <= g.x_max:
            raise ValueError(f"x={x} outside the grid")
        return float(np.interp(x, g.xs, self.values))


def _operand(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array: a ufunc takes it with the bits of
    the float, but without the scalar conversion that a Python float operand
    costs every call."""
    a = np.array(x, dtype=np.float64)
    a.flags.writeable = False
    return a


_ZERO, _HALF = _operand(0.0), _operand(0.5)


def _g_into(a, v_lo, v_hi, out, tmp) -> None:
    """out = G(a) = (max(vhi*a, vlo*a) + 0.0) / 2; out, tmp must not overlap a."""
    np.multiply(a, v_hi, out=out)
    np.multiply(a, v_lo, out=tmp)
    np.maximum(out, tmp, out=out)
    np.add(out, _ZERO, out=out)
    np.multiply(out, _HALF, out=out)


def g_operator(a, band: VolatilityBand):
    """1-D nonlinear generator G(a) = (vhi*max(a,0) - vlo*max(-a,0)) / 2.

    Positively homogeneous and subadditive in a.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    _g_into(a, band.v_lo, band.v_hi, out, np.empty_like(a))
    return float(out) if out.ndim == 0 else out


def _stable_dt(grid: Grid1D, band: VolatilityBand, bmax: float, kind: Kind) -> float:
    # advective coefficient: v*b for the qv-driven equation, b otherwise
    adv = band.v_hi * bmax if kind is Kind.QV_DRIVEN else bmax
    try:
        dx2 = grid.dx**2
    except OverflowError:  # a grid step above 1e154
        dx2 = math.inf
    return dx2 / (band.v_hi + grid.dx * adv)


def _march_steps(grid: Grid1D, band: VolatilityBand, horizon: float, bmax, kind) -> float:
    """Forward-Euler steps at the CFL step; a ValueError unless finite and within MAX_STEPS."""
    dt_max = _stable_dt(grid, band, bmax, kind)
    # dt_max is 0 if dx^2 underflows or dx*b overflows, inf or nan if dx^2 does
    if not math.isfinite(dt_max):
        raise ValueError(f"the grid step {grid.dx:.3g} is too large: its square overflows")
    steps = horizon / (CFL_SAFETY * dt_max) if dt_max > 0.0 else math.inf
    if steps > MAX_STEPS:
        raise ValueError(f"the march needs {steps:.3g} steps, above the budget of {MAX_STEPS}")
    return steps


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

    spec.kind selects the qv-driven or time-driven drift equation; spec=None
    solves the G-heat equation as the time-driven equation with zero drift,
    whose b*u_x adds an exact +-0 to G(u_xx).  The per-node bang-bang
    optimum of the qv-driven equation takes the upper level on ties (q = 0),
    which changes no flux but keeps runs reproducible.  Each row depends
    only on its own payoff, bit for bit, so payoffs whose initial rows are
    byte-identical share one marched row; each solution still holds its own
    copy of it.
    """
    _require_horizon(horizon)
    if spec is None:
        spec = replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
    kind = spec.kind
    # the drift-free count first, before grid.xs exists: a drift only
    # shortens the step, so this rejects no march the full count would pass
    steps = _march_steps(grid, band, horizon, 0.0, kind)
    xs, dx = grid.xs, grid.dx
    b = spec.b(xs)
    if not np.all(np.isfinite(b)):
        x_bad = xs[~np.isfinite(b)][0]
        raise ValueError(f"drift is not finite on the grid, first at x = {x_bad:.6g}")
    steps = _march_steps(grid, band, horizon, float(np.max(np.abs(b))), kind)
    n_steps = max(1, math.ceil(steps))
    dt = horizon / n_steps
    init = np.empty((len(payoffs), grid.nx))
    for row, payoff in zip(init, payoffs):
        row[:] = payoff(xs)
    # rows with the same initial bytes end with the same bytes, so the march
    # takes the first row of each group; slot[i] is payoff i's marched row
    marched: dict[bytes, int] = {}
    slot = [marched.setdefault(row.tobytes(), len(marched)) for row in init]
    u = init[[slot.index(j) for j in range(len(marched))]]

    # Each step reads every node's forward and backward differences d_f and
    # d_b, times per-node coefficients built here with dt folded in.
    # Centered first differences are monotone iff |b|*dx stays below the
    # diffusion scale: 1 for the qv-driven equation (v cancels), vlo else;
    # elsewhere the one-sided difference that follows the flow is used,
    # and boundary nodes take it only when the flow enters the domain.
    # Then dt*b*u_x = cf*d_f + cb*d_b, and dt*u_xx/2 = c2*(d_f - d_b)
    # inside the domain, 0 on its zero-curvature boundary.
    pe_limit = 1.0 if kind is Kind.QV_DRIVEN else band.v_lo
    upwind = np.abs(b) * dx > pe_limit
    full, half = b * (dt / dx), b * (0.5 * dt / dx)
    cf = np.where(upwind, np.where(b > 0.0, full, 0.0), half)
    cb = np.where(upwind, np.where(b < 0.0, full, 0.0), half)
    cf[0], cb[0] = full[0] if b[0] > 0.0 else 0.0, 0.0
    cf[-1], cb[-1] = 0.0, full[-1] if b[-1] < 0.0 else 0.0
    c2 = np.full(grid.nx, 0.5 * dt / dx**2)
    c2[::grid.nx - 1] = 0.0
    if kind is Kind.QV_DRIVEN:
        # dt*q = (cf + c2)*d_f + (cb - c2)*d_b, q = b*u_x + u_xx/2
        cf, cb = cf + c2, cb - c2
        v_lo, v_hi = _operand(band.v_lo), _operand(band.v_hi)
    else:
        # dt*G(u_xx) = max(g_hi*D, g_lo*D), D = d_f - d_b, g = c2*v
        g_lo, g_hi = np.tile(c2 * band.v_lo, len(u)), np.tile(c2 * band.v_hi, len(u))
    # one coefficient per node of the stack: a ufunc over contiguous flat
    # operands costs less than one that broadcasts a row over the stack
    cf, cb = np.tile(cf, len(u)), np.tile(cb, len(u))

    # The march works on u as one flat array, where one subtraction gives
    # both differences: with fp[1:-1] = u_{i+1} - u_i, fp[1:] is every
    # node's d_f and fp[:-1] its d_b.  The differences across a seam between
    # two rows, and the pads fp[0] and fp[-1], are set to 0, so every row
    # reads only its own nodes.
    u_flat = u.reshape(-1)
    u_ahead, u_behind = u_flat[1:], u_flat[:-1]
    fp = np.zeros(u.size + 1)
    fp_in, seams, d_f, d_b = fp[1:-1], fp[::grid.nx], fp[1:], fp[:-1]
    k, t = np.empty_like(u).reshape(-1), np.empty_like(u).reshape(-1)

    # an overflow surfaces as a non-finite u, which the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            # forward Euler: u <- u + dt*rhs(u)
            np.subtract(u_ahead, u_behind, out=fp_in)
            seams.fill(0.0)
            if kind is Kind.QV_DRIVEN:
                np.multiply(d_f, cf, out=k)
                np.multiply(d_b, cb, out=t)
                np.add(k, t, out=k)
                # times v* = vhi where q >= 0, vlo elsewhere
                np.multiply(k, v_lo, out=t)
                np.multiply(k, v_hi, out=k)
                np.maximum(k, t, out=k)
            else:
                np.subtract(d_f, d_b, out=t)
                np.multiply(t, g_hi, out=k)
                np.multiply(t, g_lo, out=t)
                np.maximum(k, t, out=k)
                np.multiply(d_f, cf, out=t)
                np.add(k, t, out=k)
                np.multiply(d_b, cb, out=t)
                np.add(k, t, out=k)
            np.add(u_flat, k, out=u_flat)
            if step % 128 == 0 and not np.all(np.isfinite(u)):
                raise RuntimeError(f"non-finite values at step {step}")
    if not np.all(np.isfinite(u)):
        raise RuntimeError(f"non-finite values at final step {n_steps}")
    return [PdeSolution(grid, row, dt, n_steps) for row in u[slot]]


def safe_window(grid: Grid1D, band: VolatilityBand, horizon: float) -> tuple[float, float]:
    """Interval where boundary truncation is negligible for bounded payoffs."""
    _require_horizon(horizon)
    pad = 6.0 * band.sigma_hi * math.sqrt(horizon)
    return grid.x_min + pad, grid.x_max - pad


def require_safe(x: float, grid: Grid1D, band: VolatilityBand, horizon: float) -> None:
    lo, hi = safe_window(grid, band, horizon)
    if lo > hi:
        raise ValueError(
            f"the safe window [{lo:.6g}, {hi:.6g}] of the grid [{grid.x_min:g}, "
            f"{grid.x_max:g}] is empty at horizon {horizon:g}"
        )
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
