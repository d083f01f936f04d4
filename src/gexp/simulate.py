"""Worst-case Monte Carlo: Euler-Maruyama for both G-SDE kinds on the
uniform grid h = T / n_steps, and the scenario-max estimator of the
worst-case semigroup.  Per step with scenario level v the increment is

  qv-driven:   dX = b(X) v h + sqrt(v h) Z
  time-driven: dX = b(X) h   + sqrt(v h) Z

Randomness comes from a counter-based (Philox) generator: the draw consumed
at (path, step) is a fixed function of the seed, so re-running any scenario
with the same seed reuses the identical normal increments.  That common-
random-numbers contract is what makes the estimator exactly monotone,
constant-preserving, homogeneous and subadditive across payoffs.

It also lets one normal vector per step drive every scenario at once.
pbar_mc advances the (S, n) float64 state of all S scenarios together (8 S n
bytes; a coupling sweep carries five (S, n) arrays, four float64 and the
int64 merge step), split into blocks of at most _BLOCK_PATHS paths that a
pool of worker threads steps in place while the calling thread draws the
normals in stream order; a sweep of at most _BLOCK_PATHS paths is one block
on one thread.  Each worker allocates its scratch arrays once per sweep.
Each scenario's terminal states are bit-identical to stepping that scenario
alone, for every worker count.
_sweep_blocks is that block driver, shared with the coupling suite: the
only Euler stepping loop in the package, and the one place that rejects a
non-finite state.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gheat
from .core import GsdeSpec, Kind, McConfig, Scenario, TestFunction

__all__ = ["PbarEstimate", "pbar_mc"]


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# paths per block, steps per batch of drawn normals, and batches queued ahead
# for each worker in _sweep_blocks; the non-finite check every 256 steps
# needs _STEP_BATCH to divide 256
_BLOCK_PATHS = 8192
_STEP_BATCH = 4
_QUEUED_BATCHES = 2


def _sweep_blocks(state, m, seed, workers, advance_block, scratch):
    """Advance the (S, n) arrays of `state` in place over m steps.

    `advance_block(views, tmp, Z, lo, i0)` advances one block's (S, b) views
    of the state over the steps i0, i0+1, ... whose normals are the rows of
    Z, columns lo:lo+b; `tmp` is the worker's scratch, `scratch((S, size))`
    for the widest block, allocated once per worker for the whole sweep.
    At most _BLOCK_PATHS paths are one block, stepped on one thread: at that
    size, handing blocks to threads costs more than it saves.  More paths
    are split into blocks of at most _BLOCK_PATHS, a multiple of the worker
    count of them, so that the workers get even shares.  The calling thread
    draws the normals _STEP_BATCH steps at a time, in the order of one draw
    per step, while `workers` threads (None: os.cpu_count(); below 1 is a
    ValueError; never more than there are blocks) step them.  Each thread
    owns its share of the blocks and advances them batch after batch from
    its own queue, so the threads never wait for one another and the drawing
    overlaps the stepping.  Every 256 steps and after the last step every
    array of `state` must be finite, else RuntimeError names the step.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    S, n = state[0].shape
    n_blocks = 1 if n <= _BLOCK_PATHS else workers * -(-n // (workers * _BLOCK_PATHS))
    size = -(-n // n_blocks)
    blocks = [
        (lo, tuple(a[:, lo : lo + size] for a in state))
        for lo in range(0, n, size)
    ]
    rng = _generator(seed)

    def work(q, mine):
        """Advance the blocks `mine` over each batch of normals from q; return
        the first exception, else the last step of the first checked batch
        with a non-finite state, else None."""
        # after a failure the worker keeps emptying its queue, so that the
        # drawing thread never blocks on it
        failure = None
        tmp = scratch((S, size))
        # an overflow surfaces as a non-finite state, which the checks report;
        # errstate is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            while (item := q.get()) is not None:
                if failure is not None:
                    continue
                Z, i0 = item
                try:
                    for lo, views in mine:
                        advance_block(views, tmp, Z, lo, i0)
                    i1 = i0 + len(Z)
                    if i1 % 256 == 0 and not all(
                        np.all(np.isfinite(a)) for _, views in mine for a in views
                    ):
                        failure = i1 - 1
                except BaseException as exc:
                    failure = exc
        return failure

    k = min(workers, len(blocks))
    queues = [queue.Queue(maxsize=_QUEUED_BATCHES) for _ in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [
            pool.submit(work, q, blocks[w::k]) for w, q in enumerate(queues)
        ]
        try:
            for i0 in range(0, m, _STEP_BATCH):
                Z = rng.standard_normal((min(_STEP_BATCH, m - i0), n))
                for q in queues:
                    q.put((Z, i0))
        finally:
            for q in queues:
                q.put(None)
        failures = [f.result() for f in futures]
    for f in failures:
        if isinstance(f, BaseException):
            raise f
    bad = min((f for f in failures if f is not None), default=None)
    if bad is not None:
        raise RuntimeError(f"non-finite state at step {bad}")
    # array by array: a transient above one (S, n) bool would raise glibc's
    # mmap threshold for the process (see kernels.MEMBER_PANELS)
    if not all(np.all(np.isfinite(a)) for a in state):
        raise RuntimeError(f"non-finite state at step {m}")


@dataclass(frozen=True)
class PbarEstimate:
    """Scenario-max estimate of the worst-case expectation.

    `value` is the maximum of the per-scenario means and, because the finite
    lattice is a subset of the admissible controls, a lower-bound estimate of
    the true sup (the PDE value is authoritative).
    """

    value: float
    argmax_scenario: str
    per_scenario: tuple[tuple[float, float], ...]  # (mean, std_error)
    n_paths: int
    n_steps: int
    seed: int

    @property
    def argmax_std_error(self) -> float:
        means = [m for m, _ in self.per_scenario]
        return self.per_scenario[int(np.argmax(means))][1]

    def to_dict(self) -> dict:
        """Every field, each (mean, std_error) pair as a dict."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["per_scenario"] = [{"mean": m, "std_error": s} for m, s in self.per_scenario]
        return d

    def cross_check(self, pde_value: float) -> dict:
        """Gap to the PDE value of the same problem, its budget and its pass.
        This value is a lower-bound estimate of the sup, so only an excess
        beyond SE_LEVEL standard errors and the PDE budget fails."""
        budget = max(SE_LEVEL * self.argmax_std_error, gheat.PDE_BUDGET * max(1.0, abs(pde_value)))
        gap = self.value - pde_value
        return {"gap": gap, "budget": budget, "pass": gap <= budget}


def _advance_terminal(spec, views, tmp, Z, lo, i0, c, sq):
    """Advance one path block's (S, b) state in place over the steps i0,
    i0+1, ... whose normals are the rows of Z, columns lo:lo+b; `tmp` holds
    one (S, size >= b) scratch array."""
    (X,) = views
    b = X.shape[1]
    t = tmp[0][:, :b]
    for k in range(Z.shape[0]):
        i = i0 + k
        # X = (X + b(X) c) + sqrt(v h) z, in that order of operations
        np.multiply(spec.b(X), c[:, i : i + 1], out=t)
        np.add(X, t, out=X)
        np.multiply(sq[:, i : i + 1], Z[k, lo : lo + b], out=t)
        np.add(X, t, out=X)


def _check_horizon(scenario: Scenario, horizon: float) -> None:
    """Reject a scenario that does not end at the requested horizon, or a NaN one."""
    if not abs(scenario.horizon - horizon) <= 1e-12:
        raise ValueError("scenario horizon differs from the requested horizon")


def _step_table(scenarios, horizon, m):
    """The (S, m) table v h: each scenario's level on each step of the
    uniform grid h = horizon / m.  An empty list, or a scenario that does
    not end at the horizon, is a ValueError."""
    if not scenarios:
        raise ValueError("scenario list is empty")
    for sc in scenarios:
        _check_horizon(sc, horizon)
    return np.stack([sc.step_levels(m) for sc in scenarios]) * (horizon / m)


def _terminal_states(spec, x0, horizon, scenarios, mc, workers):
    """Terminal states X_T of every scenario, as an (S, n_paths) array whose
    row s is bit-identical to an Euler run of scenarios[s] alone."""
    m = mc.n_steps
    vh = _step_table(scenarios, horizon, m)
    c = vh if spec.kind is Kind.QV_DRIVEN else np.broadcast_to(horizon / m, vh.shape)
    sq = np.sqrt(vh)
    X = np.full((len(scenarios), mc.n_paths), float(x0))
    _sweep_blocks(
        (X,), m, mc.seed, workers,
        lambda views, tmp, Z, lo, i0: _advance_terminal(
            spec, views, tmp, Z, lo, i0, c, sq
        ),
        lambda shape: (np.empty(shape),),
    )
    return X


# standard errors of slack in every fixed-level Monte Carlo check
SE_LEVEL = 3.0


def _se(a: np.ndarray) -> float:
    """Standard error of the mean of the sample `a`, of two values or more."""
    return float(np.std(a, ddof=1) / math.sqrt(a.size))


def _estimate(payoff, states, scenarios, mc) -> PbarEstimate:
    """Per-scenario mean and standard error of `payoff` over the rows of
    `states`, and their maximum."""
    per = []
    for xt in states:
        vals = np.asarray(payoff(xt), dtype=float)
        per.append((float(np.mean(vals)), _se(vals)))
    means = [m for m, _ in per]
    k = int(np.argmax(means))
    return PbarEstimate(
        value=means[k],
        argmax_scenario=scenarios[k].label,
        per_scenario=tuple(per),
        n_paths=mc.n_paths,
        n_steps=mc.n_steps,
        seed=mc.seed,
    )


def pbar_mc(
    spec: GsdeSpec,
    payoff: TestFunction,
    x0: float,
    horizon: float,
    scenarios: list[Scenario],
    mc: McConfig,
    workers: int | None = None,
) -> PbarEstimate:
    """Scenario-max Monte Carlo estimate of the worst-case semigroup value.

    All scenarios advance together on one normal draw per step, in path
    blocks stepped by `workers` threads (default os.cpu_count()); the state
    is one (S, n_paths) float64 array.  The per-scenario means and standard
    errors equal, bit for bit, those of an Euler run of each scenario
    alone, whatever the worker count.
    """
    states = _terminal_states(spec, x0, horizon, scenarios, mc, workers)
    return _estimate(payoff, states, scenarios, mc)
