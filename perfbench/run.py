#!/usr/bin/env python3
"""gexp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pde-sweep --seed 1 --seconds 30 --trace 0

Workloads: pde-sweep, mc-sweep, cli-session (see perfbench/README.md).

The script runs the workload in one fresh child process at a time, with the
numpy thread pools pinned to one thread, and passes it the seed.  The child
sets the workload up, then repeats timed passes for about ``--seconds``
seconds and checks every pass's outputs.  A pass is a fixed sequence of
timed calls (its units), and a reference kernel (``reference.py``) is timed
between units.  ``wall_per_ref`` adds up, over the units, the median over
passes of unit time ÷ the mean of the kernel times on either side; a shared
host's slow spells stretch it far less than they stretch the wall time.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; set-up is also repeated in fresh probe processes before and
after the workload process, so that ``setup_s`` is a median.  With
``--trace 1`` untraced and traced passes alternate and the result holds the
per-layer metrics.  Human-readable lines (machine record, ops, every metric
with its unit, informational rates) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from workloads import (
    CHECK, CLI_COMMANDS, PASS, REFERENCE, SETUP, Checks, mc_sweep_path_steps,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh-process set-ups besides the workload process's own, half before it
# and half after, so that the samples span the run
SETUP_PROBES = 8
MIN_PASSES = 2
DEADLINE_S = 175.0  # for the whole run, probes and workload process included


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "child", "probe"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- the workload process ------------------------------------------------------

def _setup(workload, seed, out_dir):
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    state = SETUP[workload](seed, out_dir)
    setup_s = time.perf_counter() - t0
    import gexp

    where = Path(gexp.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: gexp imported from {where}, not from {SRC}")
    return state, setup_s


def _probe(args) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        _, setup_s = _setup(args.workload, args.seed, out_dir)
    return {"setup_s": setup_s}


class Clock:
    """Times each unit of a pass, and the reference kernel between units."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.units, self.refs = {}, {}
        self._last = reference.seconds(kernel)

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.units[name] = time.perf_counter() - t0
        before, self._last = self._last, reference.seconds(self.kernel)
        self.refs[name] = 0.5 * (before + self._last)
        return result

    def start_pass(self):
        self.units, self.refs = {}, {}


def _child(args) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        state, setup_s = _setup(args.workload, args.seed, out_dir)
        run_pass, check = PASS[args.workload], CHECK[args.workload]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        checks = Checks()
        passes = []
        clock = Clock(reference.KERNELS[REFERENCE[args.workload]])
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            clock.start_pass()
            # with tracing, odd passes are traced and even ones give the
            # untraced reference for the overhead ratio
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                outputs = run_pass(state, clock)
            finally:
                if traced:
                    tracer.uninstall()
            record = {
                "traced": traced,
                "wall_s": sum(clock.units.values()),
                "per_ref": {n: clock.units[n] / clock.refs[n] for n in clock.units},
                "ref_s": statistics.median(clock.refs.values()),
                "units": clock.units,
                "elapsed_s": time.perf_counter() - t_pass,
            }
            if traced:
                missing = tracer.missing(args.workload)
                if missing:
                    raise SystemExit(
                        f"perfbench: traced pass recorded no span in layer(s) {missing}"
                    )
                record["layers"] = tracer.metrics()
            check(state, outputs, checks)
            passes.append(record)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
                break

    import numpy
    import scipy

    extra = {}
    if args.workload == "pde-sweep":
        extra["certs_per_pass"] = len(outputs)
    elif args.workload == "mc-sweep":
        extra["path_steps_per_pass"] = mc_sweep_path_steps(state)
    return {
        "workload": args.workload,
        "setup_s": setup_s,
        "passes": passes,
        "ops_total": checks.total,
        "ops_failed": len(checks.failures),
        "failures": checks.failures[:20],
        "notes": sorted(set(checks.notes)),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **extra,
    }


# -- the parent process --------------------------------------------------------

def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        l2 = (Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip())
    except OSError:
        l2 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2_cache_cpu0": l2,
        "load_avg_start": [round(x, 2) for x in os.getloadavg()],
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """Read HEAD from the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _spawn(args, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {role} process killed at the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _wall_per_ref(passes: list[dict]) -> float:
    """A pass in reference-kernel runs: the sum over units of each unit's
    median over the passes, so a slow-spell edge inside one unit of one pass
    moves only that sample."""
    return sum(
        statistics.median(p["per_ref"][name] for p in passes) for name in passes[0]["per_ref"]
    )


def _end_to_end(child: dict, setups: list[float]) -> tuple[dict, dict]:
    passes = child["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_per_ref": _wall_per_ref(passes),
        "peak_rss_mb": child["peak_rss_kib"] * 1024 / 1e6,
    }
    info = {
        "wall_s": (wall, "s"),
        f"ref_{REFERENCE[child['workload']]}_s": (
            statistics.median(p["ref_s"] for p in passes), "s"
        ),
    }
    if "certs_per_pass" in child:
        info["certs_per_s"] = (child["certs_per_pass"] / wall, "1/s")
    if "path_steps_per_pass" in child:
        info["mpath_steps_per_s"] = (child["path_steps_per_pass"] / wall / 1e6, "1e6/s")
    if child["workload"] == "cli-session":
        for name in CLI_COMMANDS:
            info[f"cmd.{name}_s"] = (_median(p["units"][name] for p in child["passes"]), "s")
    return metrics, info


def _per_layer(child: dict) -> dict:
    traced = [p for p in child["passes"] if p["traced"]]
    plain = [p for p in child["passes"] if not p["traced"]]
    metrics = {
        name: _median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    metrics["trace.overhead"] = _wall_per_ref(traced) / _wall_per_ref(plain)
    for name in CLI_COMMANDS:
        metrics[f"cli.cmd.{name}_s"] = (
            _median(p["units"][name] for p in plain)
            if child["workload"] == "cli-session" else 0.0
        )
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "probe":
        print(json.dumps(_probe(args)))
        return 0
    if args.role == "child":
        print(json.dumps(_child(args)))
        return 0

    if not (SRC / "gexp" / "__init__.py").is_file():
        print(f"perfbench: no gexp package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    machine = _machine()
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [_spawn(args, "probe", deadline)["setup_s"] for _ in range(probes)]
    child = _spawn(args, "child", deadline)
    setups.append(child["setup_s"])
    setups += [_spawn(args, "probe", deadline)["setup_s"] for _ in range(probes)]
    machine.update(numpy=child["numpy"], scipy=child["scipy"])

    if args.trace:
        metrics, info = _per_layer(child), {}
        wanted = spec["per_layer"]
    else:
        metrics, info = _end_to_end(child, setups)
        wanted = spec["end_to_end"]
    if set(metrics) != set(wanted):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(wanted))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2

    walls = [p["wall_s"] for p in child["passes"] if not p["traced"]]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"passes {len(child['passes'])}; untraced pass wall_s "
          + " ".join(f"{w:.4f}" for w in walls))
    if not args.trace:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    print(f"ops_total {child['ops_total']}")
    print(f"ops_failed {child['ops_failed']}")
    for what in child["failures"]:
        print(f"  failed: {what}")
    for what in child["notes"]:
        print(f"  note: {what}")
    for name in wanted:
        print(f"{name} {metrics[name]:.6g} {wanted[name]}")
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit} (informational)")
    if args.trace:
        print(f"coupling.state_mib_computed is computed from array shapes; "
              f"L2 of cpu0: {machine['l2_cache_cpu0']}")

    result = {
        "correct": child["ops_failed"] == 0,
        "attempted": child["ops_total"],
        "failed": child["ops_failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": wanted[name]} for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
