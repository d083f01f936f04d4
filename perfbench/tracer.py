"""Span tracer for the per-layer metrics.

It wraps each gexp module's public functions by rebinding every module
attribute that *is* the original function object, so calls made through
any namespace that imported the name (``solve`` is bound in ``gheat``,
``harnack``, ``axioms``, ``cli`` and the package root) pass through one
wrapper.  ``TestFunction.__call__`` is wrapped as the ``core`` payoff span.

A span is recorded at each wrapped call: layer, function, start, end and the
span that caused it.  The span stack is kept per thread; a task handed to a
``ThreadPoolExecutor`` adopts the span that was open in the submitting
thread as its parent, so the CLI's worker pool nests under ``cli.main``.

Aggregates are kept in memory and read with ``metrics()`` once a pass ends:

* busy time of a layer: measure of the union of its outermost spans (spans
  with no ancestor in the same layer), across threads;
* self time: span duration minus the part of its interval covered by its
  child spans;
* work counts taken from the call arguments and returned values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("core", "gheat", "simulate", "harnack", "coupling", "kernels", "axioms", "cli")

# the layers each workload's passes must reach; a traced pass that records
# no span for one of them fails the run
EXPECTED = {
    "pde-sweep": ("core", "gheat", "harnack"),
    "mc-sweep": ("core", "simulate", "coupling"),
    "cli-session": LAYERS,
}

PAYOFF = "TestFunction.__call__"


def _suite_work(a):
    s, n, m = len(a["scenarios"]), a["mc"].n_paths, a["mc"].n_steps
    g = a.get("girsanov_paths")
    g = 0 if g is None or g == n else g
    # float64 state of the batched sweeps: 5 (S, n) arrays in the main sweep
    # and 4 (S, g) arrays in the lean Girsanov sweep
    return "coupling", s * (n + g) * m, max(5 * s * n, 4 * s * g) * 8


# Monte Carlo entry points: (layer, path·step·scenarios, computed state
# bytes) from the bound call arguments, counted at the outermost span
_MC_WORK = {
    "simulate.pbar_mc": lambda a: (
        "simulate", len(a["scenarios"]) * a["mc"].n_paths * a["mc"].n_steps, 0
    ),
    "simulate.simulate_paths": lambda a: ("simulate", a["mc"].n_paths * a["mc"].n_steps, 0),
    "coupling.run_coupling_suite": _suite_work,
    "coupling.run_coupling": lambda a: ("coupling", a["mc"].n_paths * a["mc"].n_steps, 0),
}


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Span:
    __slots__ = ("layer", "name", "start", "parent", "children", "outer")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.children = []
        self.outer = not self.under(layer)
        self.start = time.perf_counter()

    def under(self, layer) -> bool:
        p = self.parent
        while p is not None:
            if p.layer == layer:
                return True
            p = p.parent
        return False


class Tracer:
    """Install with ``install()``, run the traced code, read ``metrics()``,
    then ``uninstall()`` to restore every original binding."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.spans = {layer: 0 for layer in LAYERS}
            self.outer_iv = {layer: [] for layer in LAYERS}
            self.self_s = {layer: 0.0 for layer in LAYERS}
            self.counts = dict.fromkeys(
                ("payoff_calls", "solves", "row_steps", "harnack_rows", "certs",
                 "simulate_calls", "simulate_path_steps", "coupling_calls",
                 "coupling_path_steps", "coupling_state_bytes"),
                0,
            )
            self.payoff_iv = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def _wrap(self, layer, name, fn, binder):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(layer, name, tracer._current())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, end)
            tracer._count(span, binder, args, kwargs, result)
            return result

        return traced

    def _close(self, span, end) -> None:
        duration = end - span.start
        covered = _union_length(span.children)
        with self._lock:
            self.spans[span.layer] += 1
            self.self_s[span.layer] += duration - covered
            if span.outer:
                self.outer_iv[span.layer].append((span.start, end))
                if span.name == PAYOFF:
                    self.payoff_iv.append((span.start, end))
            if span.parent is not None:
                span.parent.children.append((span.start, end))

    def _count(self, span, binder, args, kwargs, result) -> None:
        c = self.counts
        name = span.name
        if name == PAYOFF:
            with self._lock:
                c["payoff_calls"] += 1
        elif name == "gheat.solve":
            values = result.values
            rows = 1 if values.ndim == 1 else values.shape[0]
            with self._lock:
                c["solves"] += 1
                c["row_steps"] += rows * result.n_steps
                if span.under("harnack"):
                    c["harnack_rows"] += rows
        elif not span.outer:
            return
        elif span.layer == "harnack":
            certs = result if isinstance(result, list) else [result]
            n = sum(isinstance(r, self._certificate_type) for r in certs)
            with self._lock:
                c["certs"] += n
        elif name in _MC_WORK:
            layer, work, state = _MC_WORK[name](binder(*args, **kwargs).arguments)
            with self._lock:
                c[f"{layer}_calls"] += 1
                c[f"{layer}_path_steps"] += work
                c["coupling_state_bytes"] = max(c["coupling_state_bytes"], state)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import gexp
        from gexp import core, harnack

        self._certificate_type = harnack.HarnackCertificate
        layers = {layer: importlib.import_module(f"gexp.{layer}") for layer in LAYERS}
        modules = [gexp, *layers.values()]
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                binder = inspect.signature(fn).bind if name in _MC_WORK else None
                wrapper = self._wrap(layer, name, fn, binder)
                for owner in modules:
                    for name, val in list(vars(owner).items()):
                        if val is fn:
                            self._patched.append((owner, name, fn))
                            setattr(owner, name, wrapper)
        call = core.TestFunction.__call__
        self._patched.append((core.TestFunction, "__call__", call))
        core.TestFunction.__call__ = self._wrap("core", PAYOFF, call, None)

        submit = ThreadPoolExecutor.submit
        tracer = self

        def adopting_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer._adopt, tracer._current(), fn, *args, **kwargs)

        self._patched.append((ThreadPoolExecutor, "submit", submit))
        ThreadPoolExecutor.submit = adopting_submit

    def _adopt(self, parent, fn, *args, **kwargs):
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = None

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        return [layer for layer in EXPECTED[workload] if self.spans[layer] == 0]

    def metrics(self) -> dict[str, float]:
        c = self.counts
        busy = {layer: _union_length(self.outer_iv[layer]) for layer in LAYERS}
        return {
            "gheat.calls": c["solves"],
            "gheat.busy_s": busy["gheat"],
            "gheat.row_steps": c["row_steps"],
            "gheat.us_per_row_step": _ratio(busy["gheat"] * 1e6, c["row_steps"]),
            "harnack.busy_s": busy["harnack"],
            "harnack.self_s": self.self_s["harnack"],
            "harnack.certs": c["certs"],
            "harnack.solves_per_cert": _ratio(c["harnack_rows"], c["certs"]),
            "simulate.calls": c["simulate_calls"],
            "simulate.busy_s": busy["simulate"],
            "simulate.path_steps": c["simulate_path_steps"],
            "simulate.ns_per_path_step": _ratio(busy["simulate"] * 1e9, c["simulate_path_steps"]),
            "coupling.calls": c["coupling_calls"],
            "coupling.busy_s": busy["coupling"],
            "coupling.path_steps": c["coupling_path_steps"],
            "coupling.ns_per_path_step": _ratio(busy["coupling"] * 1e9, c["coupling_path_steps"]),
            "coupling.state_mib_computed": c["coupling_state_bytes"] / 2**20,
            "axioms.busy_s": busy["axioms"],
            "axioms.self_s": self.self_s["axioms"],
            "kernels.busy_s": busy["kernels"],
            "core.payoff_calls": c["payoff_calls"],
            "core.payoff_busy_s": _union_length(self.payoff_iv),
            "cli.busy_s": busy["cli"],
            "cli.self_s": self.self_s["cli"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
