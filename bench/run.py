"""qualint benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Workloads are ``scan``, ``network``, ``power`` and ``simulate`` (see
BENCHMARK.json and bench/README.md).  The run builds the workload's inputs
from ``--seed``, measures the set-up time of a fresh interpreter, then
starts one workload process (bench/worker.py) that calls
``qualint.cli.main`` in-process: one warm-up invocation, then timed
invocations for ``--seconds``.  Every output is checked against the frozen
reference of ref/.  ``--trace 1`` also wraps qualint's public functions
with spans (bench/tracer.py) on every other invocation and reports the
per-layer metrics instead of the end-to-end ones.

Timings, set-up time included, are corrected for the host's speed.  The
shared 2-CPU host this was written on switches between speeds up to 1.7x
apart every few seconds, so raw wall times of one workload spread by 25-40%
between runs.  A fixed probe loop (worker.probe) is timed before and after
every invocation and every set-up sample; the corrected time is the raw
wall time times PROBE_NOMINAL_S over the mean of its two probes, that is,
its duration on a host where the probe takes PROBE_NOMINAL_S.  Raw timings
are printed on the summary lines.

The last line of stdout is the result object; the lines before it are a
human-readable summary and the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER, SPANS
from worker import probe

BENCH_DIR = workloads.BENCH_DIR
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 5
# Probe time (worker.PROBE_LOOPS iterations) that corrected timings are
# scaled to: about its median time on the 2-CPU Xeon VM the benchmark was
# written on.
PROBE_NOMINAL_S = 0.014
# Every run must end within 180 s; keep a margin for the reference check.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if ".share_" in name:
        return "ratio"
    if name.endswith("_per_call"):
        return "1/call"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(env: dict) -> list[tuple[float, list[float]]]:
    """(wall time, probes around it) of fresh interpreters importing qualint.cli.

    This process and the interpreters it starts are pinned to one CPU, so the
    probes time the CPU that the interpreters run on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    samples = []
    try:
        for _ in range(SETUP_REPEATS):
            before = probe()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import qualint.cli"], env=env, cwd=ROOT,
                           check=True, timeout=60)
            wall = time.perf_counter() - start
            samples.append((wall, [before, probe()]))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def corrected(wall: float, probes: list[float]) -> float:
    """Wall time on a host where the probe takes PROBE_NOMINAL_S."""
    return wall * PROBE_NOMINAL_S / statistics.fmean(probes)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qualint").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for bench/selfcheck.py only")
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "qualint" / "cli.py").is_file():
        print(f"bench: no qualint source under {SRC}", file=sys.stderr)
        return 2
    pinned = json.loads((workloads.REF_DIR / "inputs.json").read_text())

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        drift = {k: v for k, v in job.info.get("base_sha256", {}).items() if pinned.get(k) != v}
        if drift:
            print(f"bench: base input differs from ref/inputs.json: {sorted(drift)}",
                  file=sys.stderr)
            return 1
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        setup = [] if args.trace else measure_setup(env)

        spec = {
            "src": str(SRC.resolve()),
            "commands": job.commands,
            "outputs": [str(p) for p in job.outputs],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result": str(workdir / "worker.json"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = RUN_BUDGET_S - (time.perf_counter() - started)
        try:
            subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                           cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=budget)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"bench: workload process failed: {exc}", file=sys.stderr)
            return 1
        worker = json.loads((workdir / "worker.json").read_text(encoding="utf-8"))

        invocations = worker["invocations"]
        first = invocations[0]
        check_files = [p.with_name(p.name + ".check") for p in job.outputs]
        if first["code"] == 0 and all(p.exists() for p in check_files):
            check = job.check([p.read_bytes() for p in check_files])
        else:
            check = workloads.Check(job.items)
            check.fail(job.items, f"warm-up invocation exited {first['code']}")
        failed = 0
        for inv in invocations:
            if inv["code"] != 0 or inv["hashes"] != first["hashes"]:
                failed += job.items
            else:
                failed += check.failed
        attempted = job.items * len(invocations)
        for problem in check.problems:
            print(f"mismatch: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    timed = [inv for inv in invocations if not inv["warmup"]]
    plain = [corrected(inv["wall"], inv["probes"]) for inv in timed if not inv["traced"]]
    traced = [inv for inv in timed if inv["traced"]]
    raw = quartiles([inv["wall"] for inv in timed if not inv["traced"]])
    probes = quartiles([p for inv in invocations for p in inv["probes"]])
    summary = [
        f"raw wall_s median {raw[1]:.4f} q1 {raw[0]:.4f} q3 {raw[2]:.4f}; "
        f"probe_s median {probes[1]:.5f} q1 {probes[0]:.5f} q3 {probes[2]:.5f}"
    ]
    if args.trace:
        layers = {
            name: statistics.median(inv["layers"][name] for inv in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = statistics.median(inv["wall"] for inv in traced)
        layers["trace.overhead_s"] = (
            statistics.median(corrected(inv["wall"], inv["probes"]) for inv in traced)
            - statistics.median(plain))
        metrics = {name: {"value": layers[name], "unit": per_layer_unit(name)}
                   for name in PER_LAYER}
        spans = sorted(((layers[f"{s}.incl_s"] / traced_wall, s) for s in SPANS), reverse=True)
        summary.append("inclusive share of traced wall: " + ", ".join(
            f"{name} {share:.0%}" for share, name in spans[:6] if share > 0))
        summary.append("self share of traced wall: " + ", ".join(
            f"{name} {layers[name + '.self_s'] / traced_wall:.0%}" for name in SPANS
            if layers[name + ".self_s"] / traced_wall >= 0.05))
        summary.append(f"absent functions: {worker['absent'] or 'none'}")
    else:
        rates = [job.items / w for w in plain]
        wall_q = quartiles(plain)
        rate_q = quartiles(rates)
        metrics = {
            "items_per_s": statistics.median(rates),
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(corrected(*sample) for sample in setup),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            "ok_share": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        summary.append(f"wall_s (corrected) median {wall_q[1]:.4f} q1 {wall_q[0]:.4f} "
                       f"q3 {wall_q[2]:.4f} n {len(plain)}")
        summary.append(f"items_per_s median {rate_q[1]:.1f} q1 {rate_q[0]:.1f} "
                       f"q3 {rate_q[2]:.1f} n {len(rates)} (items per invocation {job.items})")
        summary.append(f"setup_s raw samples {[round(wall, 4) for wall, _ in setup]}")
    summary.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} items)")

    environment = {
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **worker["versions"],
        "workers": os.cpu_count() if args.workload == "simulate" else 1,
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "input_sha256": job.inputs,
        "base_sha256": job.info.get("base_sha256", {}),
        **{k: v for k, v in job.info.items() if k != "base_sha256"},
    }
    for line in summary:
        print(f"{args.workload}: {line}")
    print("env " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
