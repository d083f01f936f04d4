"""Print a sha256 digest and the exit code of every report of the README's
CLI quick-start commands, the benchmark's shift-harnack command and the
EXTRA commands, in JSON and CSV and with one and two workers, at one seed.

Run it on two checkouts and diff the output to check that a change leaves
the report bytes and the exit codes as they were:

    PYTHONPATH=src python tests/report_digests.py --seed 7
    PYTHONPATH=src python tests/report_digests.py --seed 7 gheat harnack
    PYTHONPATH=src python tests/report_digests.py --seed 7 --states
    PYTHONPATH=src python tests/report_digests.py --seed 7 --check-workers
    PYTHONPATH=src python tests/report_digests.py --seed 7 --states --check-workers

The optional names keep only those subcommands.  Each command runs
in-process through gexp.cli.main.  With --states it prints instead the
sha256 of the five arrays of coupling._batched_states over STATE_CONFIGS.
With --check-workers it also exits 1, naming the configurations on
standard error, when the worker-count 1 and 2 runs of a command differ in
digest or exit code, or those of a coupling-state configuration in digest:
report bytes and coupling states must not depend on the worker count.
pytest does not collect this file.

tests/report_digests.golden holds the digests of the smaller GOLDEN_COMMANDS
set and the --states digests of GOLDEN_STATE_CONFIGS, which test_readme
compares in tier-1, under the key of the numpy build and CPU they were taken
on (dispatch_key).  A change that means to move report bytes or coupling
states rewrites the file with

    PYTHONPATH=src python tests/report_digests.py --write-golden

and says in CHANGES.md which reports moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import re
import runpy
import shlex
import sys
from pathlib import Path

import numpy as np

from gexp import coupling
from gexp.cli import main
from gexp.core import VolatilityBand, make_drift, make_scenario_lattice

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "report_digests.golden"

# paths the quick start does not reach: the time-driven Euler step, a
# three-piece lattice at a horizon other than 1, the masked coupling forcing
# of tanh:2 (its paths merge at different steps), the coupling merge test
# gap <= tol of x > y, a coupling that is never forced (x = y), the axiom
# tables under a nonlinear drift, and the kernel suite at another alpha
EXTRA = [
    "pbar --band 0.5,1 --payoff sigmoid --drift tanh:2 --kind time --x 1 --T 1",
    "pbar --band 0.5,1 --payoff sigmoid --drift ou --kind qv --x 0.5 --T 0.7"
    " --method mc --pieces 3 --levels 3",
    "coupling --band 0.5,1 --drift tanh:2 --x 0 --y 1 --T 1 --p 2 --payoff sigmoid"
    " --nsteps 512",
    "coupling --band 0.5,1 --x 1 --y 0 --npaths 2000 --nsteps 256",
    "coupling --band 0.5,1 --x 0.5 --y 0.5 --npaths 2000 --nsteps 256",
    "axioms --band 0.5,1 --drift tanh:2",
    "kernels --alpha 3",
]


def commands() -> list[list[str]]:
    """The quick-start block's argv lists, read the way test_readme reads
    them, then the shift-harnack argv of perfbench/workloads.py, then
    EXTRA."""
    section = (ROOT / "README.md").read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    return argvs + [workloads["CLI_COMMANDS"]["shift-harnack"]] + [
        shlex.split(line) for line in EXTRA
    ]


def _digest(argv: list[str]) -> str:
    """The report's sha256, the exit code and the argv of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()} {code} {shlex.join(argv)}"


def digests(seed: int, names) -> list[str]:
    """One line per run of the subcommands `names` (all if empty): the
    report's sha256, the exit code and the argv."""
    return [
        _digest(argv + ["--format", fmt, "--workers", workers, "--seed", str(seed)])
        for argv in commands()
        if not names or argv[0] in names
        for fmt in ("json", "csv")
        for workers in ("1", "2")
    ]


def worker_mismatches(lines: list[str]) -> list[str]:
    """The configurations of `lines`, as digests or state_digests prints
    them, whose runs at different worker counts differ: a command (argv
    without --workers) in digest or exit code, a coupling-state
    configuration (without workers=) in digest."""
    runs: dict[str, set[str]] = {}
    for line in lines:
        # a report line is "digest code argv", a state line "digest drift ..."
        outcome, config = re.fullmatch(r"(\S+(?: \d+)?) (.*)", line).groups()
        config = re.sub(r" --workers \S+| workers=\S+", "", config)
        runs.setdefault(config, set()).add(outcome)
    return [config for config, seen in runs.items() if len(seen) > 1]


# the tier-1 subset: the README's gheat, harnack and axioms, a G-heat solve
# off the default band, horizon, payoff and grid, the benchmark's
# shift-harnack, the kernel suite, and pbar and coupling under ou and tanh:2
# at 2000 paths.  Every command runs in JSON and CSV at one worker; those
# with a Monte Carlo part run their JSON again at two
GOLDEN_COMMANDS = [
    "gheat --band 0.5,1 --payoff sigmoid --T 1",
    "gheat --band 0.25,1 --payoff sqclip --T 0.25 --xmin -5 --xmax 7 --nx 201",
    "harnack --band 0.5,1 --drift ou --payoff sigmoid --p 2 --T 1 --x 0 --y 0.7",
    "shift-harnack --band 0.5,1 --drift ou --payoff bump --p 2 --T 1 --x 0 --v 0.5",
    "harnack --band 0.5,1 --drift ou --payoff one --p 2 --T 1 --x 0 --y 0.7",
    "shift-harnack --band 0.5,1 --drift ou --payoff one --p 2 --T 1 --x 0 --v 0.5",
    "pbar --band 0.5,1 --payoff sigmoid --drift ou --kind qv --x 1 --T 1 --npaths 2000",
    "pbar --band 0.5,1 --payoff sigmoid --drift tanh:2 --kind time --x 1 --T 1 --npaths 2000",
    "coupling --band 0.5,1 --drift ou --x 0 --y 1 --T 1 --p 2 --payoff sigmoid"
    " --npaths 2000 --nsteps 256",
    "coupling --band 0.5,1 --drift tanh:2 --x 0 --y 1 --T 1 --p 2 --payoff sigmoid"
    " --npaths 2000 --nsteps 256",
    "kernels",
    "axioms --band 0.5,1 --drift ou",
]
GOLDEN_SEED = 7
_MONTE_CARLO = ("pbar", "coupling", "axioms")


def dispatch_key() -> str:
    """The numpy version and the SIMD dispatch targets that numpy enabled on
    this CPU: the report bytes depend on both."""
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} dispatch {' '.join(enabled)}"


def golden_digests() -> list[str]:
    """One line per run of GOLDEN_COMMANDS at GOLDEN_SEED, as in digests."""
    lines = []
    for line in GOLDEN_COMMANDS:
        argv = shlex.split(line)
        runs = [("json", "1"), ("csv", "1")]
        if argv[0] in _MONTE_CARLO:
            runs.append(("json", "2"))
        for fmt, workers in runs:
            lines.append(
                _digest(argv + ["--format", fmt, "--workers", workers, "--seed", str(GOLDEN_SEED)])
            )
    return lines


# drift x band x (x, y) x workers x steps of the --states digests, each on
# the 2 x 3 lattice at T = 1 with 9000 paths
STATE_CONFIGS = list(
    itertools.product(
        ["ou", "tanh:2"],
        [(0.5, 1.0), (0.25, 1.0), (1.0, 1.0)],
        [(1.0, 0.0), (0.0, 1.0), (0.3, 0.2), (0.5, 0.5), (-0.0, 0.0), (2.0, -1.5)],
        [1, 2],
        [64, 128],
    )
)


# the tier-1 subset of STATE_CONFIGS: each drift from both (x, y) orders,
# each order at both worker counts, at band (0.5, 1) and 64 steps
GOLDEN_STATE_CONFIGS = [
    ("ou", (0.5, 1.0), (1.0, 0.0), 1, 64),
    ("ou", (0.5, 1.0), (0.0, 1.0), 2, 64),
    ("tanh:2", (0.5, 1.0), (1.0, 0.0), 2, 64),
    ("tanh:2", (0.5, 1.0), (0.0, 1.0), 1, 64),
]


def state_digests(seed: int, configs=STATE_CONFIGS) -> list[str]:
    """One line per entry of `configs`: the sha256 of the bytes of X, Y,
    log M, Xref and the Novikov integral, and the configuration."""
    lines = []
    for drift, band, (x, y), workers, m in configs:
        scs = make_scenario_lattice(VolatilityBand(*band), 1.0, 2, 3)
        states = coupling._batched_states(
            make_drift(drift), x, y, 1.0, scs, 9000, m, seed, workers=workers
        )
        digest = hashlib.sha256(b"".join(a.tobytes() for a in states)).hexdigest()
        lines.append(f"{digest} {drift} band={band} x={x} y={y} workers={workers} m={m}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--states", action="store_true", help="digest the coupling states instead"
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help=f"write the key and the golden report and state digests to {GOLDEN.name}",
    )
    parser.add_argument(
        "--check-workers", action="store_true",
        help="exit 1 if a command's report or a coupling state differs between"
        " workers 1 and 2",
    )
    parser.add_argument("names", nargs="*", help="subcommands to keep (default: all)")
    args = parser.parse_args()
    if args.write_golden:
        states = state_digests(GOLDEN_SEED, GOLDEN_STATE_CONFIGS)
        GOLDEN.write_text("\n".join([dispatch_key(), *golden_digests(), *states]) + "\n")
        raise SystemExit(0)
    if args.seed is None:
        parser.error("--seed is required")
    lines = state_digests(args.seed) if args.states else digests(args.seed, args.names)
    print("\n".join(lines))
    if args.check_workers:
        mismatched = worker_mismatches(lines)
        for config in mismatched:
            print(f"digests differ between worker counts: {config}", file=sys.stderr)
        raise SystemExit(1 if mismatched else 0)
