"""Reference kernels: fixed numpy loops shaped like the program's inner steps.

A shared host runs the same code at different speeds from one second to the
next (a pass can take twice as long in a slow spell).  Each timed unit of a
pass is bracketed by timings of a reference kernel, and the unit's time is
divided by the mean of the two.  The ratio counts how many reference loops a
unit costs: a slow spell stretches both, a change to gexp only the unit.
The kernels are part of the benchmark, so they stay the same across commits
of the program.
"""

from __future__ import annotations

import time

import numpy as np

GRID_NX = 401  # nodes of gexp's default Grid1D
GRID_STEPS = 150
PATH_SHAPE = (9, 40_000)  # scenarios x paths of mc-sweep's Girsanov sweep
PATH_STEPS = 3


def grid_steps() -> float:
    """Explicit Heun steps of a bang-bang diffusion on a small grid: the
    per-call numpy overhead that dominates gheat.solve."""
    xs = np.linspace(-4.0, 4.0, GRID_NX)
    u = 1.0 / (1.0 + np.exp(-xs))
    b = -xs
    dt = 1e-4

    def rhs(v):
        lap = np.zeros_like(v)
        lap[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
        grad = np.zeros_like(v)
        grad[1:-1] = 0.5 * (v[2:] - v[:-2])
        return np.where(lap > 0.0, 1.0, 0.25) * lap + b * grad

    for _ in range(GRID_STEPS):
        k1 = rhs(u)
        k2 = rhs(u + dt * k1)
        u = u + 0.5 * dt * (k1 + k2)
    return float(u[GRID_NX // 2])


def path_steps() -> float:
    """Euler steps of a scenario x path array with fresh normal draws: the
    memory- and draw-bound work of gexp's Monte Carlo steppers."""
    rng = np.random.default_rng(0)
    x = np.ones(PATH_SHAPE)
    sig = np.linspace(0.5, 1.0, PATH_SHAPE[0])[:, None]
    dt = 1.0 / 256
    for _ in range(PATH_STEPS):
        dw = rng.standard_normal(PATH_SHAPE) * np.sqrt(dt)
        x = x - x * dt + sig * dw
    return float(x[0, 0])


KERNELS = {"grid": grid_steps, "path": path_steps}


def seconds(kernel, repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of ``kernel``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
