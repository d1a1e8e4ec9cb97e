"""The README's examples run, or parse, as written.

Each fenced ``python`` block of README.md is executed in a fresh namespace,
so an example that names a removed function or type, or calls one with an
argument it no longer takes, fails here.  Tracebacks point at README lines.
Each ``qualint`` command line of a fenced ``sh`` block is parsed by the
CLI's own parser, so an example that uses a renamed or removed flag fails.
"""

import re
import shlex
from pathlib import Path

from qualint import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_every_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert len(blocks) >= 2  # the quick start and the batch example
    for block in blocks:
        line = text.count("\n", 0, block.start(1))  # lines before the block's first
        exec(compile("\n" * line + block.group(1), str(README), "exec"), {})
    capsys.readouterr()


def test_every_command_line_example_parses(capsys):
    text = README.read_text(encoding="utf-8")
    lines = [line for block in SH_BLOCK.findall(text) for line in block.splitlines()
             if line.startswith("qualint ")]
    parser = cli._build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:  # argparse printed why
            raise AssertionError(f"README example does not parse: {line}\n"
                                 f"{capsys.readouterr().err}") from None
    assert commands == {"test", "scan", "network", "power", "simulate", "kappa-max"}
