"""Regenerate the frozen reference outputs under ref/ from the current source.

Usage (from the repository root): python3 bench/freeze.py

The references define what the benchmark counts as a correct output, so
they are written once, by the commit that introduced the benchmark, and a
change that claims a speed-up must not regenerate them.  The script runs
the CLI in-process on each workload's base input (the identity transform)
and on every simulate study seed, then pins the SHA-256 of the base inputs
so that a drift in input generation is detected instead of silently
changing the workload.
"""

from __future__ import annotations

import contextlib
import json
import lzma
import os
import sys
import tempfile
from pathlib import Path

import workloads as w

ROOT = w.BENCH_DIR.parent


def _run(main, argv) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"freeze: {argv[0]} exited {code}")


def _store(name: str, text: str) -> None:
    (w.REF_DIR / name).write_bytes(lzma.compress(text.encode("utf-8"), preset=9))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qualint.cli import main as cli_main

    w.REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        scan_text = w.scan_base_csv(w.scan_base())
        (tmp / "pairs.csv").write_text(scan_text, encoding="utf-8")
        _run(cli_main, ["scan", str(tmp / "pairs.csv"), *w.SCAN_ARGS,
                        "--output", str(tmp / "scan.csv")])
        _store("scan.csv.xz", (tmp / "scan.csv").read_text(encoding="utf-8"))

        names, m1, m2 = w.network_base()
        inputs = {"scan": w.sha256(scan_text.encode())}
        for g, m in enumerate((m1, m2), start=1):
            text = w.matrix_csv(names, m)
            (tmp / f"m{g}.csv").write_text(text, encoding="utf-8")
            inputs[f"network_{g}"] = w.sha256(text.encode())
        _run(cli_main, ["network", str(tmp / "m1.csv"), str(tmp / "m2.csv"),
                        *w.NETWORK_ARGS, "--output", str(tmp / "network.csv")])
        _store("network.csv.xz", (tmp / "network.csv").read_text(encoding="utf-8"))

        for kind in w.POWER_KINDS:
            out = tmp / f"power_{kind}.csv"
            _run(cli_main, w.power_argv(kind, 0, out))
            _store(f"power_{kind}.csv.xz", out.read_text(encoding="utf-8"))

        studies = {}
        for study_seed in range(w.SIMULATE_STUDIES):
            prefix = tmp / f"study{study_seed}"
            _run(cli_main, w.simulate_argv(study_seed, w.SIMULATE_GRID, prefix))
            studies[str(study_seed)] = {
                "rates": Path(f"{prefix}_n100_rates.csv").read_text(encoding="utf-8"),
                "kappa_max": Path(f"{prefix}_n100_kappa_max.csv").read_text(encoding="utf-8"),
            }
        _store("simulate.json.xz", json.dumps(studies, sort_keys=True))

    (w.REF_DIR / "inputs.json").write_text(
        json.dumps(inputs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
