"""Workload process: runs one job's CLI commands in-process and times them.

Usage: python3 worker.py SPEC.json

SPEC names the source tree, the commands, their output files, the run
length and whether to trace.  The first invocation is a warm-up whose
outputs are kept (renamed with a ``.check`` suffix) for the reference
check; every later invocation is timed and its outputs are hashed and
removed.  With tracing, timed invocations alternate untraced and traced, so
both walls come from the same stretch of the run.  A probe (a fixed
pure-Python loop) is timed before the first invocation and after each one,
so every invocation's wall time can be read against the host's speed at
that moment.  The result is written as JSON to SPEC's ``result`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy
from scipy.special import ndtr

MIN_TIMED = 3
PROBE_LOOPS = 1500


def probe() -> float:
    """Wall time of a fixed loop with qualint's mix of work, not qualint itself.

    Scalar scipy.special calls, float math, small numpy temporaries and
    10-digit formatting: the probe slows down with the host the way the
    workloads do, so invocation time over probe time stays steady when the
    host's speed changes.
    """
    start = time.perf_counter()
    a = numpy.linspace(0.0, 1.0, 100)
    b = a[::-1].copy()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        x = (i % 97) / 13.0 - 3.5
        acc += float(ndtr(x)) + math.sqrt(1.0 + x * x)
        acc += float((a - a.mean()) @ b) * 1e-9
        text = f"{acc:.10g}"
    return time.perf_counter() - start


def _invoke(main, commands, outputs) -> tuple[float, int, list[str]]:
    """Run one workload command; return (wall seconds, exit code, output hashes)."""
    for path in outputs:
        path.unlink(missing_ok=True)
    code = 0
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in commands:
            try:
                code = main(list(argv))
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                print(f"worker: {argv[0]} raised {exc!r}", file=sys.stderr)
                code = -1
            if code != 0:
                break
    wall = time.perf_counter() - start
    hashes = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "" for p in outputs]
    return wall, code, hashes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import qualint.cli

    if Path(qualint.cli.__file__).resolve().parent.parent != src:
        print(f"worker: qualint imported from {qualint.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import scipy

    commands = spec["commands"]
    outputs = [Path(p) for p in spec["outputs"]]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, layer_metrics

        tracer = Tracer()

    invocations = []
    before = probe()
    wall, code, hashes = _invoke(qualint.cli.main, commands, outputs)
    after = probe()
    for path in outputs:
        if path.exists():
            path.replace(path.with_name(path.name + ".check"))
    invocations.append({"wall": wall, "probes": [before, after], "code": code,
                        "hashes": hashes, "traced": False, "warmup": True})

    deadline = time.perf_counter() + spec["seconds"]
    timed = 0
    while time.perf_counter() < deadline or timed < MIN_TIMED * (2 if tracer else 1):
        traced = tracer is not None and timed % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, code, hashes = _invoke(qualint.cli.main, commands, outputs)
        finally:
            if traced:
                tracer.uninstall()
        before, after = after, probe()
        entry = {"wall": wall, "probes": [before, after], "code": code, "hashes": hashes,
                 "traced": traced, "warmup": False}
        if traced:
            entry["layers"] = layer_metrics(*tracer.snapshot_and_reset())
        invocations.append(entry)
        timed += 1
    for path in outputs:
        path.unlink(missing_ok=True)

    result = {
        "invocations": invocations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent": tracer.absent if tracer else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
