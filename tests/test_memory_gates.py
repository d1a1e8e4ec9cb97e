"""Every memory gate's command parses, so a renamed or removed flag fails
here and not only when tests/memory_gates.py runs the gates at full size."""

import importlib.util
import multiprocessing.process
import subprocess
from pathlib import Path

from qualint import cli

RUNNER = Path(__file__).with_name("memory_gates.py")


def test_every_gate_argv_parses(tmp_path, monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("importing the runner or building its gates started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    spec = importlib.util.spec_from_file_location("memory_gates", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    table = runner.gates(tmp_path)
    assert len({gate.name for gate in table}) == len(table) == 9
    assert not any(tmp_path.iterdir())  # nothing was written
    parser = cli._build_parser()
    for gate in table:
        try:
            parser.parse_args([str(arg) for arg in gate.argv])
        except SystemExit:  # argparse printed why
            raise AssertionError(f"gate {gate.name!r} does not parse: {gate.argv}\n"
                                 f"{capsys.readouterr().err}") from None
