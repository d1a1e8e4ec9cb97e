"""Tiny-size self-check of the benchmark (not part of the test suite).

Usage (from the repository root): python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json on small inputs, untraced and traced,
and asserts that the last stdout line is the result object, that the run is
correct, and that it emits exactly the end-to-end (untraced) or per-layer
(traced) metrics that BENCHMARK.json names, each with its unit.  Then
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int, tiny: bool) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace, tiny=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: incorrect run {result['attempted']=} "
                                f"{result['failed']=}: {proc.stderr[-500:]}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{label}: missing {missing} extra {extra} unit mismatch {units}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, tiny=True)
        last = proc.stdout.strip().splitlines()[-1:]
        if proc.returncode == 0 or any(line.startswith("{") for line in last):
            problems.append(f"bare directory: exit {proc.returncode}, stdout {last}")
        else:
            print(f"bare directory: refused with exit {proc.returncode}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
