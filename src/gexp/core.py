"""Domain types shared by every other module: the volatility band, the
piecewise-constant volatility scenarios that realize the uncertainty class,
G-SDE specifications, bounded test functions and Monte Carlo configuration.

All types are immutable after construction; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "VolatilityBand",
    "Scenario",
    "Kind",
    "GsdeSpec",
    "TestFunction",
    "McConfig",
    "make_scenario_lattice",
    "catalog",
    "make_drift",
]


@dataclass(frozen=True)
class VolatilityBand:
    """Uncertainty interval [sigma_lo, sigma_hi] for the volatility.

    The quadratic variation of the driving noise accrues at a squared rate
    confined to [sigma_lo**2, sigma_hi**2], and both squares must be
    positive floats short of overflow.  A degenerate band
    sigma_lo == sigma_hi recovers the classical (single-measure) setting.
    """

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_lo) and math.isfinite(self.sigma_hi)):
            raise ValueError(
                f"need finite sigmas, got ({self.sigma_lo}, {self.sigma_hi})"
            )
        if not (0.0 < self.sigma_lo <= self.sigma_hi):
            raise ValueError(
                f"need 0 < sigma_lo <= sigma_hi, got ({self.sigma_lo}, {self.sigma_hi})"
            )
        try:
            squares_in_range = self.sigma_lo**2 > 0.0 and math.isfinite(self.sigma_hi**2)
        except OverflowError:  # a float's ** raises where the square overflows
            squares_in_range = False
        if not squares_in_range:
            raise ValueError(
                f"need sigma_lo**2 > 0 and a finite sigma_hi**2, "
                f"got ({self.sigma_lo}, {self.sigma_hi})"
            )

    @property
    def v_lo(self) -> float:
        """Lower squared-volatility bound."""
        return self.sigma_lo**2

    @property
    def v_hi(self) -> float:
        """Upper squared-volatility bound."""
        return self.sigma_hi**2


@dataclass(frozen=True)
class Scenario:
    """One piecewise-constant squared-volatility control.

    `values[i]` is the squared-volatility level on [breakpoints[i],
    breakpoints[i+1]).  The induced quadratic variation qv(t) is the exact
    piecewise-linear integral of the level path.
    """

    band: VolatilityBand
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain the horizon")
        if len(self.values) != len(bp) - 1:
            raise ValueError("need exactly one value per interval")
        # each comparison is False on NaN, so NaN breakpoints and levels fail
        if not all(t1 < t2 for t1, t2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        _require_horizon(bp[-1])
        eps = 1e-12
        lo, hi = self.band.v_lo, self.band.v_hi
        if not all(lo - eps <= v <= hi + eps for v in self.values):
            raise ValueError("scenario level outside the governing band")

    @property
    def horizon(self) -> float:
        return self.breakpoints[-1]

    @cached_property
    def _qv_nodes(self) -> np.ndarray:
        dts = np.diff(self.breakpoints)
        return np.concatenate([[0.0], np.cumsum(np.asarray(self.values) * dts)])

    def qv(self, t):
        """Quadratic variation qv(t) = int_0^t v_s ds, exact closed form."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-12):
            raise ValueError("time outside [0, T]")
        return np.interp(t, self.breakpoints, self._qv_nodes)

    def step_levels(self, n_steps: int) -> np.ndarray:
        """Levels in force (right-continuously) at the left endpoints of a
        uniform n_steps grid."""
        ts = np.arange(n_steps) * (self.horizon / n_steps)
        idx = np.clip(
            np.searchsorted(self.breakpoints, ts, side="right") - 1,
            0,
            len(self.values) - 1,
        )
        return np.asarray(self.values, dtype=float)[idx]

    @property
    def label(self) -> str:
        return "v=" + ",".join(f"{v:g}" for v in self.values)


# largest scenario lattice make_scenario_lattice builds
MAX_SCENARIOS = 4096


def _require_horizon(horizon: float) -> None:
    """The horizon rule of every scenario lattice, solve and closed form."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


def make_scenario_lattice(
    band: VolatilityBand,
    horizon: float,
    pieces: int,
    levels: int,
) -> list[Scenario]:
    """All piecewise-constant controls on a uniform partition of [0, horizon]
    with levels drawn from a uniform grid of [v_lo, v_hi].

    The two constant extreme scenarios are always in the result, which takes
    at least two levels.  A degenerate band collapses to the single classical
    scenario.  More than MAX_SCENARIOS pieces or levels is rejected before
    the level grid is built, even on a degenerate band, where the lattice
    would hold one scenario; otherwise the number of distinct levels to the
    power `pieces` must be at most MAX_SCENARIOS.
    """
    if pieces < 1 or levels < 2:
        raise ValueError("need pieces >= 1, levels >= 2")
    _require_horizon(horizon)
    # an exact power of a huge count, or a huge level grid, would take
    # minutes or gigabytes before the cap below could reject it
    for count, name in ((pieces, "pieces"), (levels, "levels")):
        if count > MAX_SCENARIOS:
            raise ValueError(f"{count} {name} exceed the cap {MAX_SCENARIOS} on scenarios")
    # the distinct levels, as np.unique gives them, without the numpy.ma
    # import that np.unique costs on first use
    grid = np.sort(np.linspace(band.v_lo, band.v_hi, levels))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    if len(grid) ** pieces > MAX_SCENARIOS:
        raise ValueError(
            f"{len(grid)}^{pieces} scenarios exceeds the cap {MAX_SCENARIOS}"
        )
    bp = tuple(np.linspace(0.0, horizon, pieces + 1))
    return [
        Scenario(band, bp, combo)
        for combo in itertools.product(tuple(grid), repeat=pieces)
    ]


class Kind(Enum):
    """Which G-SDE the drift enters: through the quadratic variation clock
    (dX = b(X) d<B> + dB) or through calendar time (dX = b(X) dt + dB)."""

    QV_DRIVEN = "qv"
    TIME_DRIVEN = "time"


_LIPSCHITZ_GRID = np.linspace(-10.0, 10.0, 41)


@dataclass(frozen=True)
class GsdeSpec:
    """Drift specification for a 1-D G-SDE.

    The Lipschitz constant is user-supplied; it is spot-checked on a fixed
    sample grid at construction (inference from samples would be unsound).
    """

    drift: Callable[[np.ndarray], np.ndarray]
    lipschitz_k: float
    kind: Kind

    def __post_init__(self):
        if not 0.0 <= self.lipschitz_k < math.inf:
            raise ValueError(f"lipschitz_k must be finite and nonnegative, got {self.lipschitz_k}")
        xs = _LIPSCHITZ_GRID
        bx = np.asarray(self.drift(xs), dtype=float)
        if bx.shape != xs.shape:
            bx = np.broadcast_to(bx, xs.shape)
        # a NaN drift value would pass every comparison below
        if not np.all(np.isfinite(bx)):
            x_bad = xs[~np.isfinite(bx)][0]
            raise ValueError(f"drift is not finite at x = {x_bad:.6g} of the Lipschitz check grid")
        diff = np.abs(bx[:, None] - bx[None, :])
        dist = np.abs(xs[:, None] - xs[None, :])
        if np.any(diff > self.lipschitz_k * dist * (1 + 1e-9) + 1e-12):
            raise ValueError("drift violates the declared Lipschitz constant")

    def b(self, x):
        out = np.asarray(self.drift(np.asarray(x, dtype=float)), dtype=float)
        return np.broadcast_to(out, np.shape(x)) if out.shape != np.shape(x) else out


@dataclass(frozen=True)
class TestFunction:
    """A bounded payoff with known sup-norm.  Harnack certificates require
    positivity; the catalog ships only nonnegative members."""

    __test__ = False  # not a pytest collection target

    id: str
    eval: Callable[[np.ndarray], np.ndarray]
    positivity: bool = True
    bound: float = 1.0

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def power(self, p: float) -> "TestFunction":
        if not self.positivity:
            raise ValueError("powers only defined for nonnegative payoffs")
        try:
            bound = self.bound**p
        except OverflowError:
            raise ValueError(
                f"the bound {self.bound:g}^{p:g} of {self.id}^{p:g} overflows a float"
            ) from None
        f = self.eval
        return TestFunction(
            id=f"{self.id}^{p:g}",
            eval=lambda x, f=f, p=p: f(x) ** p,
            positivity=True,
            bound=bound,
        )

    def shifted(self, v: float) -> "TestFunction":
        f = self.eval
        return TestFunction(
            id=f"{self.id}(+{v:g})",
            eval=lambda x, f=f, v=v: f(x + v),
            positivity=self.positivity,
            bound=self.bound,
        )

    def plus(self, other: "TestFunction") -> "TestFunction":
        f, g = self.eval, other.eval
        return TestFunction(
            id=f"{self.id}+{other.id}",
            eval=lambda x, f=f, g=g: f(x) + g(x),
            positivity=self.positivity and other.positivity,
            bound=self.bound + other.bound,
        )

    def scaled(self, lam: float) -> "TestFunction":
        if lam < 0:
            raise ValueError("only nonnegative scaling keeps positivity")
        f = self.eval
        return TestFunction(
            id=f"{lam:g}*{self.id}",
            eval=lambda x, f=f, lam=lam: lam * f(x),
            positivity=self.positivity,
            bound=lam * self.bound,
        )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


SQCLIP_BOUND = 25.0
BUMP_WIDTH = 0.5


def catalog() -> dict[str, TestFunction]:
    """The shipped test-function catalog: all members bounded and >= 0."""
    return {
        "one": TestFunction("one", lambda x: np.ones_like(x), bound=1.0),
        "sigmoid": TestFunction("sigmoid", _sigmoid, bound=1.0),
        "cauchy": TestFunction("cauchy", lambda x: 1.0 / (1.0 + x**2), bound=1.0),
        "bump": TestFunction(
            "bump",
            lambda x: _sigmoid((x + 1.0) / BUMP_WIDTH) * _sigmoid((1.0 - x) / BUMP_WIDTH),
            bound=1.0,
        ),
        "sqclip": TestFunction(
            "sqclip",
            lambda x: np.minimum(x**2, SQCLIP_BOUND),
            bound=SQCLIP_BOUND,
        ),
    }


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings.  n_paths must be at least 2, for a standard
    error, and n_steps at least 1."""

    n_paths: int = 10_000
    n_steps: int = 256
    seed: int = 12345

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be at least 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def make_drift(drift_id: str) -> GsdeSpec:
    """Drift catalog by serializable id: zero, const:c, ou, tanh:K.

    The returned spec has QV_DRIVEN kind; callers switch kind with
    dataclasses.replace when the time-driven equation is wanted.  A
    parameter c or K must be a finite float.
    """
    if drift_id == "zero":
        return GsdeSpec(lambda x: np.zeros_like(x), 0.0, Kind.QV_DRIVEN)
    if drift_id == "ou":
        return GsdeSpec(lambda x: -x, 1.0, Kind.QV_DRIVEN)
    name, sep, text = drift_id.partition(":")
    if sep and name in ("const", "tanh"):
        a = float(text)
        if not math.isfinite(a):
            raise ValueError(f"drift {drift_id!r} needs a finite parameter")
        if name == "const":
            return GsdeSpec(lambda x, c=a: np.full_like(x, c), 0.0, Kind.QV_DRIVEN)
        return GsdeSpec(lambda x, k=a: -k * np.tanh(x), a, Kind.QV_DRIVEN)
    raise ValueError(f"unknown drift id {drift_id!r}")
