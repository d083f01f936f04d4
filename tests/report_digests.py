"""Print a sha256 digest and the exit code of every report of the README's
CLI quick-start commands, the benchmark's shift-harnack command and the
EXTRA commands, in JSON and CSV and with one and two workers, at one seed.

Run it on two checkouts and diff the output to check that a change leaves
the report bytes and the exit codes as they were:

    PYTHONPATH=src python tests/report_digests.py --seed 7
    PYTHONPATH=src python tests/report_digests.py --seed 7 gheat harnack

The optional names keep only those subcommands.  Each command runs
in-process through gexp.cli.main.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import runpy
import shlex
from pathlib import Path

from gexp.cli import main

ROOT = Path(__file__).resolve().parents[1]

# paths the quick start does not reach: the time-driven Euler step, a
# three-piece lattice at a horizon other than 1, the masked coupling forcing
# of tanh:2 (its paths merge at different steps), the axiom tables under a
# nonlinear drift, and the kernel suite at another alpha
EXTRA = [
    "pbar --band 0.5,1 --payoff sigmoid --drift tanh:2 --kind time --x 1 --T 1",
    "pbar --band 0.5,1 --payoff sigmoid --drift ou --kind qv --x 0.5 --T 0.7"
    " --method mc --pieces 3 --levels 3",
    "coupling --band 0.5,1 --drift tanh:2 --x 0 --y 1 --T 1 --p 2 --payoff sigmoid"
    " --nsteps 512",
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


def digests(seed: int, names) -> list[str]:
    """One line per run of the subcommands `names` (all if empty): the
    report's sha256, the exit code and the argv."""
    lines = []
    for argv in commands():
        if names and argv[0] not in names:
            continue
        for fmt in ("json", "csv"):
            for workers in ("1", "2"):
                run = argv + ["--format", fmt, "--workers", workers, "--seed", str(seed)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(run)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                lines.append(f"{digest} {code} {shlex.join(run)}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("names", nargs="*", help="subcommands to keep (default: all)")
    args = parser.parse_args()
    print("\n".join(digests(args.seed, args.names)))
