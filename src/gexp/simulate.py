"""Worst-case Monte Carlo: per-scenario Euler-Maruyama for both G-SDE kinds
and the scenario-max estimator of the worst-case semigroup.

Randomness comes from a counter-based (Philox) generator: the draw consumed
at (path, step) is a fixed function of the seed, so re-running any scenario
with the same seed reuses the identical normal increments.  That common-
random-numbers contract is what makes the estimator exactly monotone,
constant-preserving, homogeneous and subadditive across payoffs.

It also lets one normal vector per step drive every scenario at once.
pbar_mc advances the (S, n) float64 state of all S scenarios together (8 S n
bytes; the coupling suite holds five such arrays), split into blocks of at
most _BLOCK_PATHS paths that a pool of worker threads steps in place while
the calling thread draws the normals in stream order.  The terminal states
are bit-identical to simulate_paths run scenario by scenario, for every
worker count.  _sweep_blocks is that block driver, shared with the coupling
suite.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import GsdeSpec, Kind, McConfig, Scenario, TestFunction

__all__ = ["PbarEstimate", "simulate_paths", "pbar_mc"]


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# paths per block, steps per batch of drawn normals, and batches queued ahead
# for each worker in _sweep_blocks; the non-finite check every 256 steps
# needs _STEP_BATCH to divide 256
_BLOCK_PATHS = 8192
_STEP_BATCH = 4
_QUEUED_BATCHES = 2


def _sweep_blocks(state, checked, m, seed, workers, advance_block):
    """Advance the (S, n) arrays of `state` in place over m steps.

    `advance_block(views, Z, lo, i0)` advances one block's (S, b) views of
    the state (None entries stay None) over the steps i0, i0+1, ... whose
    normals are the rows of Z, columns lo:lo+b.  The paths are split into
    blocks of at most _BLOCK_PATHS, a multiple of the worker count of them,
    so that the workers get even shares.  The calling thread draws the
    normals _STEP_BATCH steps at a time, in the order of one draw per step.
    With `workers` above 1 (None: os.cpu_count()), each of that many threads
    owns its share of the blocks and advances them batch after batch from
    its own queue, so the threads never wait for one another and the drawing
    overlaps the stepping.  Every 256 steps the arrays `state[j]`, j in
    `checked`, must be finite, else RuntimeError names the last step.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    n = state[0].shape[1]
    workers = max(1, workers)
    n_blocks = workers * -(-n // (workers * _BLOCK_PATHS))
    size = -(-n // n_blocks)
    blocks = [
        (lo, tuple(None if a is None else a[:, lo : lo + size] for a in state))
        for lo in range(0, n, size)
    ]
    rng = _generator(seed)

    def advance(mine, Z, i0):
        """Advance the blocks `mine` over one batch of normals; return the
        batch's last step if it is a checked step with a non-finite state."""
        for lo, views in mine:
            advance_block(views, Z, lo, i0)
        i1 = i0 + len(Z)
        if i1 % 256 == 0 and not all(
            np.all(np.isfinite(views[j])) for _, views in mine for j in checked
        ):
            return i1 - 1
        return None

    def draw(i0):
        return rng.standard_normal((min(_STEP_BATCH, m - i0), n))

    k = min(workers, len(blocks))
    if k <= 1:
        for i0 in range(0, m, _STEP_BATCH):
            bad = advance(blocks, draw(i0), i0)
            if bad is not None:
                raise RuntimeError(f"non-finite state at step {bad}")
        return

    def work(q, mine):
        # after a failure the worker keeps emptying its queue, so that the
        # drawing thread never blocks on it
        failure = None
        while (item := q.get()) is not None:
            if failure is None:
                try:
                    failure = advance(mine, *item)
                except BaseException as exc:
                    failure = exc
        return failure

    queues = [queue.Queue(maxsize=_QUEUED_BATCHES) for _ in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [
            pool.submit(work, q, blocks[w::k]) for w, q in enumerate(queues)
        ]
        try:
            for i0 in range(0, m, _STEP_BATCH):
                Z = draw(i0)
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
        return {
            "value": self.value,
            "argmax_scenario": self.argmax_scenario,
            "per_scenario": [
                {"mean": m, "std_error": s} for m, s in self.per_scenario
            ],
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
        }


def simulate_paths(
    spec: GsdeSpec,
    x0: float,
    scenario: Scenario,
    mc: McConfig,
    keep_paths: bool = False,
):
    """Euler-Maruyama ensemble on the uniform grid h = T / n_steps.

    Per step with scenario level v the increment is
      qv-driven:   dX = b(X) v h + sqrt(v h) Z
      time-driven: dX = b(X) h   + sqrt(v h) Z
    Returns the terminal values X_T, or the full (n_paths, n_steps+1) path
    matrix when keep_paths is set.
    """
    T = scenario.horizon
    h = T / mc.n_steps
    levels = scenario.step_levels(mc.n_steps)
    rng = _generator(mc.seed)
    x = np.full(mc.n_paths, float(x0))
    paths = np.empty((mc.n_paths, mc.n_steps + 1)) if keep_paths else None
    if keep_paths:
        paths[:, 0] = x
    for i in range(mc.n_steps):
        v = levels[i]
        z = rng.standard_normal(mc.n_paths)
        if spec.kind is Kind.QV_DRIVEN:
            x = x + spec.b(x) * (v * h) + np.sqrt(v * h) * z
        else:
            x = x + spec.b(x) * h + np.sqrt(v * h) * z
        if keep_paths:
            paths[:, i + 1] = x
        if (i & 255) == 255 and not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state at step {i}")
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"non-finite state at step {mc.n_steps}")
    return paths if keep_paths else x


def _advance_terminal(spec, views, Z, lo, i0, c, sq):
    """Advance one path block's (S, b) state in place over the steps i0,
    i0+1, ... whose normals are the rows of Z, columns lo:lo+b."""
    (X,) = views
    b = X.shape[1]
    t = np.empty_like(X)
    for k in range(Z.shape[0]):
        i = i0 + k
        # X = (X + b(X) c) + sqrt(v h) z, simulate_paths' order of operations
        np.multiply(spec.b(X), c[:, i : i + 1], out=t)
        np.add(X, t, out=X)
        np.multiply(sq[:, i : i + 1], Z[k, lo : lo + b], out=t)
        np.add(X, t, out=X)


def _terminal_states(spec, x0, horizon, scenarios, mc, workers):
    """Terminal states X_T of every scenario, as an (S, n_paths) array whose
    row s is bit-identical to simulate_paths(spec, x0, scenarios[s], mc)."""
    if not scenarios:
        raise ValueError("scenario list is empty")
    for sc in scenarios:
        if abs(sc.horizon - horizon) > 1e-12:
            raise ValueError("scenario horizon differs from the requested horizon")
    m = mc.n_steps
    h = np.array([[sc.horizon / m] for sc in scenarios])  # (S, 1)
    vh = np.stack([sc.step_levels(m) for sc in scenarios]) * h  # (S, m)
    c = vh if spec.kind is Kind.QV_DRIVEN else np.broadcast_to(h, vh.shape)
    sq = np.sqrt(vh)
    X = np.full((len(scenarios), mc.n_paths), float(x0))
    _sweep_blocks(
        (X,), (0,), m, mc.seed, workers,
        lambda views, Z, lo, i0: _advance_terminal(spec, views, Z, lo, i0, c, sq),
    )
    if not np.all(np.isfinite(X)):
        raise RuntimeError(f"non-finite state at step {m}")
    return X


def _estimate(payoff, states, scenarios, mc) -> PbarEstimate:
    """Per-scenario mean and standard error of `payoff` over the rows of
    `states`, and their maximum."""
    per = []
    for xt in states:
        vals = np.asarray(payoff(xt), dtype=float)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(mc.n_paths)) if mc.n_paths > 1 else 0.0
        per.append((mean, se))
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
    errors equal, bit for bit, those of simulate_paths run scenario by
    scenario, whatever the worker count.
    """
    states = _terminal_states(spec, x0, horizon, scenarios, mc, workers)
    return _estimate(payoff, states, scenarios, mc)
