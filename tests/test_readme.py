"""The README's quick starts stay valid: the Python one runs as written,
and every command of the CLI one parses and has a report digest."""

import re
import shlex
from pathlib import Path

import pytest

from gexp.cli import build_parser
from report_digests import (
    GOLDEN,
    GOLDEN_SEED,
    GOLDEN_STATE_CONFIGS,
    digests,
    dispatch_key,
    golden_digests,
    state_digests,
    worker_mismatches,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_cli_quick_start_parses():
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "gexp", argv
        parser.parse_args(argv[1:])  # a removed flag exits here


def test_report_digests_smoke():
    lines = digests(7, ["gheat", "harnack"])
    # json and csv, each with one and two workers
    assert [line.split()[2] for line in lines] == ["gheat"] * 4 + ["harnack"] * 4
    for line in lines:
        digest, code = line.split()[:2]
        assert re.fullmatch("[0-9a-f]{64}", digest) and code == "0", line
    # the worker count changes no report
    assert [line.split()[0] for line in lines[::2]] == [line.split()[0] for line in lines[1::2]]


def test_worker_mismatches_names_the_command():
    # what --check-workers exits 1 on: a digest or an exit code that moves
    # with the worker count
    runs = [f"{'a' * 64} 0 gheat --T 1 --workers {w} --seed 7" for w in (1, 2)]
    assert worker_mismatches(runs) == []
    for moved in (f"{'b' * 64} 0", f"{'a' * 64} 1"):
        assert worker_mismatches([runs[0], moved + " gheat --T 1 --workers 2 --seed 7"]) == [
            "gheat --T 1 --seed 7"
        ]
    # --states --check-workers exits 1 on a coupling-state digest that moves
    # with the worker count; lines that differ in anything else are apart
    state = "{} tanh:2 band=(0.5, 1.0) x=1.0 y=0.0 workers={} m={}"
    states = [state.format("c" * 64, w, 64) for w in (1, 2)]
    assert worker_mismatches(runs + states) == []
    assert worker_mismatches([states[0], state.format("d" * 64, 1, 128)]) == []
    assert worker_mismatches(runs + [states[0], state.format("d" * 64, 2, 64)]) == [
        "tanh:2 band=(0.5, 1.0) x=1.0 y=0.0 m=64"
    ]


def test_report_digests_golden():
    # the report bytes and exit codes of report_digests.GOLDEN_COMMANDS, and
    # the coupling states of GOLDEN_STATE_CONFIGS, are those in the golden
    # file, whose first line keys the numpy build and SIMD dispatch targets
    # it was written under
    key, *expected = GOLDEN.read_text().splitlines()
    if key != dispatch_key():
        pytest.skip(f"the golden digests are for {key!r}, not this {dispatch_key()!r}")
    n_states = len(GOLDEN_STATE_CONFIGS)
    assert golden_digests() == expected[:-n_states]
    assert state_digests(GOLDEN_SEED, GOLDEN_STATE_CONFIGS) == expected[-n_states:]
