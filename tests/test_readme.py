"""The README's Python examples run as written.

Each fenced ``python`` block of README.md is executed in a fresh namespace,
so an example that names a removed function or type, or calls one with an
argument it no longer takes, fails here.  Tracebacks point at README lines.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_every_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert len(blocks) >= 2  # the quick start and the batch example
    for block in blocks:
        line = text.count("\n", 0, block.start(1))  # lines before the block's first
        exec(compile("\n" * line + block.group(1), str(README), "exec"), {})
    capsys.readouterr()
