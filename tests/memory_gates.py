"""Peak-memory gates: qualint runs at paper scale, each under a bound in MB.

    python tests/memory_gates.py                  # the qualint the interpreter imports
    PYTHONPATH=src python tests/memory_gates.py   # this tree's src/

Each gate runs ``python -m qualint.cli`` under ``timeout`` (exit 124 when it
expires) and takes the peak RSS of that process tree from os.wait4.  Linux
keeps ru_maxrss across fork and exec, so a child starts at this process's
peak: the runner imports no numpy, writes every input in one spawned
process, and reads every peak before it parses any output.
"""

import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Gate(NamedTuple):
    name: str
    argv: list  # the qualint command line, without "qualint"
    timeout: int  # seconds
    bound: float  # MB; the peak must stay below it
    check: Optional[Callable[[str], Optional[str]]] = None  # stderr -> what is wrong, or None


def peak_mb(argv: list, timeout: int) -> tuple:
    """Run qualint with argv under timeout: (peak RSS in MB, exit code, stderr)."""
    command = ["timeout", str(timeout), sys.executable, "-m", "qualint.cli", *map(str, argv)]
    with subprocess.Popen(command, stderr=subprocess.PIPE, text=True) as child:
        stderr = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, child.returncode, stderr  # ru_maxrss is in KiB on Linux


def write_inputs(tmp: Path) -> None:
    """Every gate's input file; run in a spawned process, which alone loads numpy."""
    import numpy as np

    rng = np.random.default_rng(29)
    header = ",".join(f"g{j}" for j in range(1000))
    for path in (tmp / "g1.csv", tmp / "g2.csv"):
        np.savetxt(path, rng.standard_normal((100, 1000)), fmt="%.17g", delimiter=",",
                   header=header, comments="")
    # 300,000 pairs, drawn like the scan benchmark's rows
    rng = np.random.default_rng(30)
    rows = 300_000
    se1, se2 = np.exp(rng.uniform(np.log(0.05), 0.0, (2, rows)))
    est1 = rng.choice([-1.0, 1.0], rows) * rng.uniform(0.5, 3.0, rows)
    est2 = est1 * rng.uniform(-0.5, 1.2, rows)
    lines = ["id,est1,se1,est2,se2"] + [
        f"p{i}," + ",".join(map(repr, row))
        for i, row in enumerate(zip(est1.tolist(), se1.tolist(), est2.tolist(), se2.tolist()))]
    na = lines.copy()
    na[150_001] = na[150_001].rpartition(",")[0] + ",NA"  # file line 150,002
    quoted = lines[:1] + ['"{}",{}'.format(*line.split(",", 1)) for line in lines[1:]]
    for name, text in (("pairs", lines), ("pairs_na", na), ("pairs_quoted", quoted)):
        (tmp / f"{name}.csv").write_text("\n".join(text) + "\n")


def rows(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1  # the header


def wrong(what: str, got, expected) -> Optional[str]:
    return None if got == expected else f"{what} {got!r}, expected {expected!r}"


def same_as_plain(tmp: Path) -> bool:
    _, code, _ = peak_mb(["scan", tmp / "pairs.csv", "--output", tmp / "scan_plain.csv"], 60)
    return code == 0 and filecmp.cmp(tmp / "scan_quoted.csv", tmp / "scan_plain.csv", shallow=False)


def gates(tmp: Path) -> list:
    """The gates, reading and writing their files in tmp; building them runs nothing."""
    g1, g2, pairs = tmp / "g1.csv", tmp / "g2.csv", tmp / "pairs.csv"
    warning = f"warning: skipping {tmp / 'pairs_na.csv'}:150002: could not convert string to float: 'NA'\n"
    return [
        # two seeded 100 x 1,000 matrices (499,500 pairs): under 200 MB (near
        # 166 MB; a kept text cell per p-value, near 188 MB)
        Gate("network, 1,000 features", ["network", g1, g2, "--output", tmp / "edges.csv"], 60, 200),
        # the same matrices, the edges written as JSON: it must parse to all
        # 499,500 results, under 225 MB (near 192 MB; a kept text cell per
        # p-value, near 218 MB; the edges as one dict each, handed whole to
        # json.dump, near 433 MB)
        Gate("network JSON", ["network", g1, g2, "--format", "json", "--output", tmp / "edges.json"],
             60, 225, lambda _: wrong("results", len(json.loads(
                 (tmp / "edges.json").read_text(encoding="utf-8"))["results"]), 499_500)),
        # kappa-max tests the three context kappas one after another: under
        # 140 MB (near 119 MB; a kept text cell per p-value and bound, near
        # 164 MB; the rows tiled once per kappa, near 228 MB)
        Gate("kappa-max, 300k rows", ["kappa-max", pairs, "--output", tmp / "kappa_max.csv"], 60, 140),
        # one value cell set to NA, so the rows np.loadtxt does not read stream
        # through the float() pass: the scan must warn about that line alone
        # and write the 299,999 others, under 140 MB (near 122 MB; each row
        # held as its list of cells until all had converted peaked near 331 MB)
        Gate("scan, NA cell", ["scan", tmp / "pairs_na.csv", "--output", tmp / "scan.csv"], 60, 140,
             lambda stderr: wrong("stderr and rows", (stderr, rows(tmp / "scan.csv")), (warning, 299_999))),
        # every id quoted, as R's write.csv quotes text cells: the quotes keep
        # np.loadtxt off the file, so its records stream from csv.reader over
        # the one list of lines.  Under 140 MB (near 118 MB; the records read
        # from a copy of the text in io.StringIO peaked near 237 MB), and the
        # output must equal that of the unquoted file byte for byte: those ids
        # need no quotes
        Gate("scan, quoted ids", ["scan", tmp / "pairs_quoted.csv", "--output", tmp / "scan_quoted.csv"],
             60, 140, lambda _: wrong("same bytes as the unquoted scan", same_as_plain(tmp), True)),
        # the clean file through the omnibus test, whose Genz rules hold
        # (rows x 20) node matrices: under 205 MB (near 176 MB; --kind rd near
        # 117 MB); row blocks in the core would lower it
        Gate("scan --kind omnibus, 300k rows",
             ["scan", pairs, "--kind", "omnibus", "--output", tmp / "scan_omnibus.csv"], 60, 205,
             lambda _: wrong("rows", rows(tmp / "scan_omnibus.csv"), 300_000)),
        # 490,000 cells, many of whose tails take Owen's sums, on the default
        # balanced axes, whose mirrored pairs of cells are evaluated once:
        # under 470 MB (near 417 MB; every cell evaluated, near 775 MB)
        Gate("power 700², balanced",
             ["power", "--kind", "rd", "--c1-steps", "700", "--c2-steps", "700",
              "--output", tmp / "power.csv"], 120, 470),
        # the grid above at --sigma1 2, which is not exchange symmetric, so
        # every cell is evaluated: under 830 MB (near 738 MB)
        Gate("power 700², --sigma1 2",
             ["power", "--kind", "rd", "--c1-steps", "700", "--c2-steps", "700", "--sigma1", "2",
              "--output", tmp / "power_unbalanced.csv"], 120, 830),
        # theta2 from -1 to 1 by 1e-5, one replicate a point, two kappas: the
        # rates file must hold all 800,004 rows, under 230 MB (the batch's rows
        # tiled once per kappa peaked near 268 MB; tested one kappa at a time,
        # the study peaks near 190 MB)
        Gate("200,001-point study",
             ["simulate", "--n", "3", "--reps", "1", "--theta2-step", "1e-5", "--kappas", "2", "4",
              "--seed", "1", "--output", tmp / "big"], 120, 230,
             lambda _: wrong("rates rows", rows(tmp / "big_n3_rates.csv"), 800_004)),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        writer = multiprocessing.get_context("spawn").Process(target=write_inputs, args=(tmp,))
        writer.start()
        writer.join()  # had it failed, the gates reading its files fail too, each by name
        failed = [f"input writer: exit {writer.exitcode}"] if writer.exitcode else []
        table = gates(tmp)
        runs = [peak_mb(gate.argv, gate.timeout) for gate in table]  # every peak before any check
        for gate, (peak, code, stderr) in zip(table, runs):
            print(f"{gate.name}: peak RSS {peak:.1f} MB (bound {gate.bound} MB)\n{stderr}", end="")
            if code:
                failed.append(f"{gate.name}: exit {code}")
            elif peak >= gate.bound:
                failed.append(f"{gate.name}: peak RSS {peak:.1f} MB, bound {gate.bound} MB")
            elif gate.check and (why := gate.check(stderr)):
                failed.append(f"{gate.name}: {why}")
    print("\n".join(f"FAILED {line}" for line in failed) or f"all {len(table)} memory gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
