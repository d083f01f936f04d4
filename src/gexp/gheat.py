"""Monotone explicit finite-difference solver for the two fully nonlinear
parabolic equations that define the worst-case semigroup:

  * qv-driven drift            u_t = sup_{v in [vlo,vhi]} v*(b(x)u_x + u_xx/2)
  * time-driven drift          u_t = b(x)u_x + G(u_xx),  G(a) = (vhi*a+ - vlo*a-)/2

The G-heat equation u_t = G(u_xx) is the time-driven equation with b = 0.

Both equations are u_t = max over v in {vlo, vhi} of beta*u_x + v*u_xx/2,
with beta = v*b for the qv-driven equation and beta = b for the
time-driven one: the sup of a linear expression in v is taken at a band
edge.  The scheme takes one forward-Euler stage per time step, and a step
is the max of two three-point linear maps, one per band edge (Oberman,
SIAM J. Numer. Anal. 44, 2006).  Each map takes the centered first
difference where that keeps both neighbour weights nonnegative,
|beta|*dx <= v, and the one-sided difference that follows the flow
elsewhere.  A map's weight on its own node is 1 - dt*(a - c), a and c its
coefficients on the forward and backward differences, so the step
dt_max = 1 / max(a - c) over both maps and every node is the largest at
which every weight is nonnegative and the step monotone: the comparison
principle that the property suite checks.  The march takes CFL_SAFETY
times it.  Heun's two-stage SSP scheme has SSP coefficient 1, so its
monotone step is Euler's, and with dt ~ dx^2 Euler's O(dt) time error
matches the O(dx^2) space error.  Boundaries use zero-curvature (second
derivative = 0) extrapolation, with the one-sided first difference only
where the flow enters; values within the 6*sigma_hi*sqrt(T) padding zone
of the boundary are treated as contaminated.  Conversely, a value read at x
depends, beyond a Gaussian tail, only on the nodes within that pad of x
plus the drift's transport, so a caller that reads a few points marches
the grid cut to them (`dependence_grid`, which the Harnack certificates
use) at the same grid step.

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
once and copied back to every payoff.  A finite row whose nodes all
equal its first is a fixed point of the step, up to the sign of a zero.
Its differences are zeros, a map's coefficients have a >= +0 and c <= 0,
so each map's sum at a node is +0 (at a -0.0 node d_f = +0 and a*d_f = +0),
and a step adds +0 to every node: the march's result is the row + 0.0,
which turns -0.0 into +0.0.  So a stack whose distinct rows are all such
constant rows comes back as the rows + 0.0, with the march's dt and step
count, and takes no step and no buffer; a constant NaN or inf row is
still marched, and fails at step 0.

The maps' coefficient rows are built once per solve with dt folded in,
and one subtraction over the flat stack gives every node's forward and
backward differences.  Every array a step stores into or streams from
starts on a 64-byte boundary: numpy aligns data to 16 bytes only, and a
SIMD load or store that straddles two cache lines costs more, so at
numpy's alignment a step's speed depended on what the process had
allocated before (steps at P = 16 and 32 took about 1.4 times as long).
At nx = 401 a step costs about 3.2-3.7 us fixed, plus about 0.84-0.90 us
per marched row (lines fitted to the min of 21 solves at P = 1, 2, 4, ...,
32, ou drift, both kinds, six runs, on a 2-core x86-64 box with AVX-512).
The fixed part is numpy call overhead: a step is 10 calls for either
equation on flat contiguous operands, whatever P is and wherever a map
upwinds.  The march binds its four ufuncs to local names once per solve,
so a call skips the global and attribute lookups, and passes out= as a
keyword, which numpy parses faster than a positional output.
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


def g_operator(a, band: VolatilityBand):
    """1-D nonlinear generator G(a) = (vhi*max(a,0) - vlo*max(-a,0)) / 2.

    Positively homogeneous and subadditive in a.  The max form
    (max(vhi*a, vlo*a) + 0.0) / 2 gives the bits of the two-sided one: each
    product has the sign of its factor, rounding is monotone and a sign flip
    is exact, so the larger product is the one the two-sided form takes;
    + 0.0 maps the -0.0 of a = -0.0 (or of an underflowing vlo*a) to the
    +0.0 that the two-sided form gives.
    """
    a = np.asarray(a, dtype=float)
    out = (np.maximum(a * band.v_hi, a * band.v_lo) + 0.0) * 0.5
    return float(out) if out.ndim == 0 else out


def _march_steps(grid: Grid1D, horizon: float, dt_max: float) -> float:
    """Forward-Euler steps at CFL_SAFETY times the monotone step dt_max; a
    ValueError unless finite and within MAX_STEPS."""
    # dt_max is 0 if dx^2 underflows or a drift overflows, inf if dx^2 overflows
    if not math.isfinite(dt_max):
        raise ValueError(f"the grid step {grid.dx:.3g} is too large: its square overflows")
    steps = horizon / (CFL_SAFETY * dt_max) if dt_max > 0.0 else math.inf
    if steps > MAX_STEPS:
        raise ValueError(f"the march needs {steps:.3g} steps, above the budget of {MAX_STEPS}")
    return steps


def _aligned(n: int, lead: int = 0) -> np.ndarray:
    """A writable length-n float64 view whose element `lead` starts on a
    64-byte boundary, cut from a buffer 7 elements longer (numpy aligns
    its data to 16 bytes only)."""
    buf = np.empty(n + 7)
    skip = (-(buf.ctypes.data + 8 * lead) % 64) // 8
    return buf[skip:skip + n]


def _map_rows(beta: np.ndarray, v: float, dx: float, dx2: float):
    """Rows a, c with beta*u_x + v*u_xx/2 = a*d_f + c*d_b at every node,
    d_f and d_b the node's forward and backward differences.

    u_x is centered where that keeps both neighbour weights nonnegative,
    |beta|*dx <= v, and elsewhere the one-sided difference that follows the
    flow; a boundary node takes that difference only when the flow enters
    the domain, and has zero curvature.
    """
    upwind = np.abs(beta) * dx > v
    full, half = beta / dx, beta * (0.5 / dx)
    a = np.where(upwind, np.where(beta > 0.0, full, 0.0), half)
    c = np.where(upwind, np.where(beta < 0.0, full, 0.0), half)
    a[0], c[0] = full[0] if beta[0] > 0.0 else 0.0, 0.0
    a[-1], c[-1] = 0.0, full[-1] if beta[-1] < 0.0 else 0.0
    diffusion = np.full_like(beta, 0.5 * v / dx2)
    diffusion[::len(beta) - 1] = 0.0
    return a + diffusion, c - diffusion


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
    solves the G-heat equation as the time-driven equation with zero drift.
    Each row depends only on its own payoff, bit for bit, so payoffs whose
    initial rows are byte-identical share one marched row; each solution
    still holds its own copy of it.  A finite constant row ends as itself
    + 0.0 (a step adds +0 to each of its nodes), so when every distinct row
    is one, the march's result is known without a step and none is taken;
    dt, n_steps and the step budget are as for any stack.  The step loop
    looks its ufuncs up once per solve and keeps out= a keyword.
    """
    _require_horizon(horizon)
    if spec is None:
        spec = replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
    try:
        dx2 = grid.dx**2
    except OverflowError:  # a grid step above 1e154
        dx2 = math.inf
    # the drift-free count first, before grid.xs exists: a drift only
    # shortens the step, so this rejects no march the full count would pass
    _march_steps(grid, horizon, dx2 / band.v_hi)
    xs, dx = grid.xs, grid.dx
    b = spec.b(xs)
    if not np.all(np.isfinite(b)):
        x_bad = xs[~np.isfinite(b)][0]
        raise ValueError(f"drift is not finite on the grid, first at x = {x_bad:.6g}")

    # each band edge's map as rows per unit dt, v_lo first; a map keeps the
    # weight 1 - dt*(a - c) on its own node, so the largest monotone step is
    # 1 / max(a - c), which a drift that overflows makes 0
    with np.errstate(over="ignore"):
        maps = [
            _map_rows(v * b if spec.kind is Kind.QV_DRIVEN else b, v, dx, dx2)
            for v in (band.v_lo, band.v_hi)
        ]
        dt_max = 1.0 / max(float(np.max(a - c)) for a, c in maps)
    n_steps = max(1, math.ceil(_march_steps(grid, horizon, dt_max)))
    dt = horizon / n_steps
    init = np.empty((len(payoffs), grid.nx))
    for row, payoff in zip(init, payoffs):
        row[:] = payoff(xs)
    # a finite constant row is a fixed point of the step, up to the sign of
    # a zero (see the module docstring): a stack of such rows takes no step
    if np.all(np.isfinite(init[:, 0])) and np.all(init == init[:, :1]):
        return [PdeSolution(grid, row, dt, n_steps) for row in init + 0.0]
    # rows with the same initial bytes end with the same bytes, so the march
    # takes the first row of each group; slot[i] is payoff i's marched row
    marched: dict[bytes, int] = {}
    slot = [marched.setdefault(row.tobytes(), len(marched)) for row in init]
    # u, the coefficient rows, fp, k and t start on 64-byte boundaries (see
    # the module docstring)
    u = _aligned(len(marched) * grid.nx).reshape(len(marched), grid.nx)
    u[:] = init[[slot.index(j) for j in range(len(marched))]]

    def stacked(row):
        # one coefficient per node of the stack: a ufunc over contiguous flat
        # operands costs less than one that broadcasts a row over the stack
        out = _aligned(u.size)
        out.reshape(u.shape)[:] = row * dt
        return out

    (a_lo, c_lo), (a_hi, c_hi) = [(stacked(a), stacked(c)) for a, c in maps]

    # The march works on u as one flat array, where one subtraction gives
    # both differences: with fp[1:-1] = u_{i+1} - u_i, fp[1:] is every
    # node's d_f and fp[:-1] its d_b.  The differences across a seam between
    # two rows, and the pads fp[0] and fp[-1], are set to 0, so every row
    # reads only its own nodes.  fp[1] is the aligned element: fp[1:] is
    # both the subtraction's store and d_f.
    u_flat = u.reshape(-1)
    u_ahead, u_behind = u_flat[1:], u_flat[:-1]
    fp = _aligned(u.size + 1, lead=1)
    fp_in, seams, d_f, d_b = fp[1:-1], fp[::grid.nx], fp[1:], fp[:-1]
    k, t = _aligned(u.size), _aligned(u.size)
    # looked up once per solve, with out= kept a keyword (see the module docstring)
    subtract, multiply, add, maximum = np.subtract, np.multiply, np.add, np.maximum

    # an overflow surfaces as a non-finite u, which the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            # forward Euler: u <- u + max(a_hi*d_f + c_hi*d_b, a_lo*d_f + c_lo*d_b)
            subtract(u_ahead, u_behind, out=fp_in)
            seams.fill(0.0)
            multiply(d_f, a_hi, out=k)
            multiply(d_b, c_hi, out=t)
            add(k, t, out=k)
            multiply(d_f, a_lo, out=t)
            # d_b is read for the last time: the next step refills all of fp
            multiply(d_b, c_lo, out=d_b)
            add(t, d_b, out=t)
            maximum(k, t, out=k)
            add(u_flat, k, out=u_flat)
            if step % 128 == 0 and not np.all(np.isfinite(u)):
                raise RuntimeError(f"non-finite values at step {step}")
    if not np.all(np.isfinite(u)):
        raise RuntimeError(f"non-finite values at final step {n_steps}")
    return [PdeSolution(grid, row, dt, n_steps) for row in u[slot]]


def _pad(band: VolatilityBand, horizon: float) -> float:
    """6*sigma_hi*sqrt(horizon): how far diffusion carries a value in a march
    to the horizon, beyond a Gaussian tail.  A value this close to the
    grid's boundary feels it (safe_window), and a node this far from every
    read point, past the drift's transport, does not reach them
    (dependence_grid)."""
    _require_horizon(horizon)
    return 6.0 * band.sigma_hi * math.sqrt(horizon)


def safe_window(grid: Grid1D, band: VolatilityBand, horizon: float) -> tuple[float, float]:
    """Interval where boundary truncation is negligible for bounded payoffs."""
    pad = _pad(band, horizon)
    return grid.x_min + pad, grid.x_max - pad


def dependence_grid(
    grid: Grid1D,
    band: VolatilityBand,
    horizon: float,
    spec: GsdeSpec,
    reads: Sequence[float],
) -> Grid1D:
    """The part of `grid` that holds the domain of dependence of the values
    at the points `reads` after a march to `horizon`.

    That is [min(reads) - L, max(reads) + R], where L is _pad plus the
    farthest the drift carries a path leftward, T*s*max(0, -b) over the
    nodes at or left of min(reads), and R is _pad plus T*s*max(0, b) over
    the nodes at or right of max(reads); s is v_hi for the qv-driven
    equation, whose drift runs on the quadratic-variation clock, and 1 for
    the time-driven one.  Its ends are snapped outward to grid nodes with
    one node of slack and clipped to the grid, so it has the grid's step
    up to rounding.  The far boundary's error in a read decays like a
    Gaussian tail in its distance (Kangro & Nicolaides, SIAM J. Numer.
    Anal. 38, 2000).  A drift that is not finite on the grid gives `grid`
    itself, so that solve_batch reports it as it would on `grid`, and so
    does a transport term that overflows.
    """
    xs = grid.xs
    b = spec.b(xs)
    if not np.all(np.isfinite(b)):
        return grid
    lo, hi = min(reads), max(reads)
    pad, speed = _pad(band, horizon), band.v_hi if spec.kind is Kind.QV_DRIVEN else 1.0
    # initial=0.0: a drift toward the reads carries nothing out to them
    left = lo - pad - horizon * speed * float(np.max(-b[xs <= lo], initial=0.0))
    right = hi + pad + horizon * speed * float(np.max(b[xs >= hi], initial=0.0))
    if not (math.isfinite(left) and math.isfinite(right)):
        return grid
    # the last node at or left of `left` and the first at or right of
    # `right`, each moved out by one node
    first = max(0, int(np.searchsorted(xs, left, side="right")) - 2)
    last = min(grid.nx - 1, int(np.searchsorted(xs, right)) + 1)
    return Grid1D(float(xs[first]), float(xs[last]), last - first + 1)


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
