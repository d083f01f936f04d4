"""The README's quick starts stay valid: the Python one runs as written,
and every command of the CLI one parses."""

import re
import shlex
from pathlib import Path

from gexp.cli import build_parser

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
