"""Workload inputs, seed transforms and reference checks for the qualint benchmark.

Every workload starts from one *base input* generated from the fixed
``BASE_SEED``.  The CLI output for the base input, produced by the commit
that added this benchmark, is frozen under ``ref/``.  The ``--seed`` of a
run picks a transform of the base input whose CLI output is known exactly
from the frozen reference:

* ``scan``: a subset of the rows is drawn, permuted and relabelled, and
  each row is rescaled by a power of two, its estimates sign-flipped and its
  groups swapped;
* ``network``: a subset of the feature columns is drawn, permuted and
  renamed, and each column of each matrix is rescaled by a power of two and
  sign-flipped;
* ``power``: effect sizes and sigmas are rescaled by one power of two;
* ``simulate``: the study seed is ``seed % 16``, one of the frozen studies.

Powers of two and sign flips are exact in binary floating point, and every
formula in qualint is a scale-free ratio symmetric in sign and group order,
so at the reference commit the transformed outputs equal the transformed
reference bit for bit.  Later code may differ within the tolerances below.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"

BASE_SEED = 20201017

# One unit in the tenth significant digit, either side of a rounding
# boundary: the precision of every serialized numeric column.
REL_TOL = 2e-9
# Absolute accuracy budget of bivariate-normal tails (distributions module).
TAIL_ABS_TOL = 1e-10
# Root tolerance of the kappa_max inversion (inference._KAPPA_TOL).
KAPPA_ABS_TOL = 1e-6

SCAN_POOL = 10_000
SCAN_ROWS = 1_000
SCAN_ROWS_TINY = 200
SCAN_ARGS = ("--kind", "rd", "--kappa", "1.5", "--alpha", "0.1")
SCAN_ALPHA = 0.1

NETWORK_SAMPLES = 100
NETWORK_POOL = 200
NETWORK_FEATURES = 60
NETWORK_FEATURES_TINY = 16
NETWORK_ARGS = ("--kappa", "1.5", "--alpha", "0.05")
NETWORK_ALPHA = 0.05

POWER_STEPS = 20
POWER_KINDS = ("rd", "omnibus")
POWER_ARGS = ("--kappa", "2", "--alpha", "0.05")

SIMULATE_STUDIES = 16
SIMULATE_REPS = 20
SIMULATE_GRID = (-1.0, 1.0, 0.1)
SIMULATE_GRID_TINY = (-1.0, -0.8, 0.1)
SIMULATE_ARGS = ("--n", "100", "--reps", str(SIMULATE_REPS), "--kappas", "2", "4",
                 "--alpha", "0.05", "--theta1", "1")


def close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), abs_tol)


def g10(value: float) -> float:
    """The 10-significant-digit value every CLI numeric column carries."""
    return float(f"{value:.10g}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def read_rows(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def load_ref(name: str) -> str:
    return lzma.decompress((REF_DIR / name).read_bytes()).decode("utf-8")


@dataclass
class Check:
    """Outcome of comparing one invocation's outputs with the reference."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        if len(self.problems) < 5:
            self.problems.append(message)


@dataclass
class Job:
    """One workload command (one or more CLI calls) on seed-generated inputs.

    ``commands`` are argv lists for ``qualint.cli.main``; ``outputs`` are the
    files they write; ``check`` maps output bytes (in ``outputs`` order) to a
    Check against the frozen reference.
    """

    items: int
    commands: list[list[str]]
    outputs: list[Path]
    inputs: dict[str, str]
    check: Callable[[list[bytes]], Check]
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# base inputs (fixed seed; their SHA-256 is pinned in ref/inputs.json)
# ---------------------------------------------------------------------------


def scan_base() -> list[tuple[str, float, float, float, float]]:
    """Pair rows: a third lopsided same-sign, a third one-group-null, a third
    near-equal; SEs log-uniform on [0.05, 1]; group order random."""
    rng = np.random.default_rng([BASE_SEED, 1])
    n = SCAN_POOL
    se_a = np.exp(rng.uniform(math.log(0.05), 0.0, n))
    se_b = np.exp(rng.uniform(math.log(0.05), 0.0, n))
    big = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n)
    lopsided = big * rng.uniform(0.02, 0.35, n)
    null = rng.normal(0.0, se_b)
    near_equal = big * (1.0 + rng.normal(0.0, 0.1, n))
    small = np.choose(np.arange(n) % 3, [lopsided, null, near_equal])
    swap = rng.random(n) < 0.5
    rows = []
    for i in range(n):
        a = (float(f"{big[i]:.6g}"), float(f"{se_a[i]:.6g}"))
        b = (float(f"{small[i]:.6g}"), float(f"{se_b[i]:.6g}"))
        first, second = (b, a) if swap[i] else (a, b)
        rows.append((f"b{i:05d}", *first, *second))
    return rows


def network_base() -> tuple[list[str], np.ndarray, np.ndarray]:
    """Two sample-by-feature matrices; four blocks of eight features share a
    latent factor in one group only (blocks alternate between the groups)."""
    rng = np.random.default_rng([BASE_SEED, 2])
    n, p = NETWORK_SAMPLES, NETWORK_POOL
    mats = [rng.standard_normal((n, p)), rng.standard_normal((n, p))]
    for block in range(4):
        cols = slice(10 + 40 * block, 18 + 40 * block)
        data = mats[block % 2]
        factor = rng.standard_normal((n, 1))
        data[:, cols] = 0.95 * factor + 0.3 * data[:, cols]
    mats = [np.array([[float(f"{v:.6g}") for v in row] for row in m]) for m in mats]
    return [f"g{i:03d}" for i in range(p)], mats[0], mats[1]


def scan_base_csv(rows) -> str:
    return csv_text(("id", "est1", "se1", "est2", "se2"),
                    [(row_id, *map(repr, values)) for row_id, *values in rows])


def matrix_csv(names, data) -> str:
    return csv_text(names, [[repr(float(v)) for v in row] for row in data])


def power_argv(kind: str, scale_exp: int, output: Path) -> list[str]:
    lim = math.ldexp(6.0, scale_exp)
    sigma = math.ldexp(1.0, scale_exp)
    steps = str(POWER_STEPS)
    return ["power", "--kind", kind, *POWER_ARGS,
            "--c1-min", repr(-lim), "--c1-max", repr(lim), "--c1-steps", steps,
            "--c2-min", repr(-lim), "--c2-max", repr(lim), "--c2-steps", steps,
            "--sigma1", repr(sigma), "--sigma2", repr(sigma), "--output", str(output)]


def simulate_argv(study_seed: int, grid, prefix: Path) -> list[str]:
    lo, hi, step = grid
    return ["simulate", *SIMULATE_ARGS, "--theta2-min", repr(lo), "--theta2-max", repr(hi),
            "--theta2-step", repr(step), "--seed", str(study_seed), "--output", str(prefix)]


def simulate_grid(grid) -> list[float]:
    lo, hi, step = grid
    return [round(lo + k * step, 10) for k in range(int(round((hi - lo) / step)) + 1)]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def make_scan(seed: int, workdir: Path, tiny: bool) -> Job:
    full = scan_base()
    base_sha = sha256(scan_base_csv(full).encode())
    n = SCAN_ROWS_TINY if tiny else SCAN_ROWS
    rng = np.random.default_rng([seed, 11])
    order = rng.choice(len(full), n, replace=False)
    labels = rng.permutation(n)
    scale = rng.integers(-6, 7, n)
    flip1 = rng.random(n) < 0.5
    flip2 = rng.random(n) < 0.5
    swap = rng.random(n) < 0.5
    rows, base_of = [], {}
    for j, i in enumerate(order):
        _, e1, s1, e2, s2 = full[i]
        k = int(scale[j])
        e1, s1, e2, s2 = (math.ldexp(v, k) for v in (e1, s1, e2, s2))
        e1, e2 = (-e1 if flip1[j] else e1), (-e2 if flip2[j] else e2)
        if swap[j]:
            e1, s1, e2, s2 = e2, s2, e1, s1
        row_id = f"r{labels[j]:05d}"
        base_of[row_id] = full[i][0]
        rows.append((row_id, repr(e1), repr(s1), repr(e2), repr(s2)))
    text = csv_text(("id", "est1", "se1", "est2", "se2"), rows)
    path = workdir / "pairs.csv"
    path.write_text(text, encoding="utf-8")
    output = workdir / "scan_out.csv"

    def check(outputs: list[bytes]) -> Check:
        ref = {r["id"]: r for r in read_rows(load_ref("scan.csv.xz"))}
        expected = []
        for row_id, base_id in base_of.items():
            r = ref[base_id]
            p_adj = g10(min(1.0, n * float(r["p_raw"])))
            expected.append((p_adj, row_id, r))
        expected.sort(key=lambda e: (e[0], e[1]))
        got = read_rows(outputs[0].decode("utf-8"))
        result = Check(attempted=n)
        if len(got) != n:
            result.fail(abs(n - len(got)), f"scan: {len(got)} rows, expected {n}")
        for (p_adj, row_id, r), g in zip(expected, got):
            try:
                ok = (
                    g["id"] == row_id
                    and g["rejected"] == ("true" if p_adj < SCAN_ALPHA else "false")
                    and close(float(g["statistic"]), float(r["statistic"]))
                    and close(float(g["p_raw"]), float(r["p_raw"]), TAIL_ABS_TOL)
                    and close(float(g["p_adjusted"]), p_adj, n * TAIL_ABS_TOL)
                    and close(float(g["kappa_max"]), float(r["kappa_max"]), KAPPA_ABS_TOL)
                )
            except (KeyError, ValueError) as exc:
                ok = False
                g = {"error": repr(exc)}
            if not ok:
                result.fail(1, f"scan: row {row_id} (base {base_of[row_id]}) got {g}")
        return result

    return Job(n, [["scan", str(path), *SCAN_ARGS, "--output", str(output)]],
               [output], {"pairs.csv": sha256(text.encode())}, check,
               {"base_sha256": {"scan": base_sha}})


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def make_network(seed: int, workdir: Path, tiny: bool) -> Job:
    names, m1, m2 = network_base()
    base_sha = {"network_1": sha256(matrix_csv(names, m1).encode()),
                "network_2": sha256(matrix_csv(names, m2).encode())}
    p = NETWORK_FEATURES_TINY if tiny else NETWORK_FEATURES
    rng = np.random.default_rng([seed, 12])
    perm = rng.choice(NETWORK_POOL, p, replace=False)
    new_names = [f"f{label:03d}" for label in rng.permutation(p)]
    signs, mats = [], []
    for m in (m1, m2):
        sign = np.where(rng.random(p) < 0.5, -1.0, 1.0)
        scale = rng.integers(-4, 5, p)
        mats.append(np.ldexp(m[:, perm] * sign, scale))
        signs.append(sign)
    inputs = {}
    paths = []
    for g, m in enumerate(mats, start=1):
        text = matrix_csv(new_names, m)
        path = workdir / f"matrix{g}.csv"
        path.write_text(text, encoding="utf-8")
        inputs[path.name] = sha256(text.encode())
        paths.append(str(path))
    output = workdir / "network_out.csv"
    pairs = p * (p - 1) // 2

    def check(outputs: list[bytes]) -> Check:
        ref = {}
        for r in read_rows(load_ref("network.csv.xz")):
            ref[(r["feature_a"], r["feature_b"])] = r
        expected = []
        for c in range(p):
            for d in range(c + 1, p):
                a, b = names[perm[c]], names[perm[d]]
                r = ref[(a, b) if a < b else (b, a)]
                p_adj = g10(min(1.0, pairs * float(r["p_raw"])))
                flips = (signs[0][c] * signs[0][d], signs[1][c] * signs[1][d])
                expected.append((p_adj, new_names[c], new_names[d], r, flips))
        expected.sort(key=lambda e: e[:3])
        text = outputs[0].decode("utf-8")
        got = read_rows(text)
        result = Check(attempted=pairs)
        if len(got) != pairs:
            result.fail(abs(pairs - len(got)), f"network: {len(got)} rows, expected {pairs}")
        rejected = 0
        for (p_adj, fa, fb, r, flips), g in zip(expected, got):
            rejected += p_adj < NETWORK_ALPHA
            try:
                ok = (
                    (g["feature_a"], g["feature_b"]) == (fa, fb)
                    and g["stronger_group"] == r["stronger_group"]
                    and close(float(g["r1"]), flips[0] * float(r["r1"]))
                    and close(float(g["r2"]), flips[1] * float(r["r2"]))
                    and close(float(g["statistic"]), float(r["statistic"]))
                    and close(float(g["p_raw"]), float(r["p_raw"]), TAIL_ABS_TOL)
                    and close(float(g["p_adjusted"]), p_adj, pairs * TAIL_ABS_TOL)
                    and (float(g["p_adjusted"]) < NETWORK_ALPHA) == (p_adj < NETWORK_ALPHA)
                )
            except (KeyError, ValueError) as exc:
                ok = False
                g = {"error": repr(exc)}
            if not ok:
                result.fail(1, f"network: pair ({fa}, {fb}) got {g}")
        footer = (f"# features={p} pairs={pairs} tested={pairs} "
                  f"skipped=0 rejected={rejected}")
        if text.rstrip("\n").splitlines()[-1:] != [footer]:
            result.fail(pairs - result.failed, f"network: footer differs from {footer!r}")
        return result

    return Job(pairs, [["network", *paths, *NETWORK_ARGS, "--output", str(output)]],
               [output], inputs, check, {"base_sha256": base_sha})


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def make_power(seed: int, workdir: Path, tiny: bool) -> Job:
    scale_exp = int(np.random.default_rng([seed, 13]).integers(-8, 9))
    outputs = [workdir / f"power_{kind}.csv" for kind in POWER_KINDS]
    commands = [power_argv(kind, scale_exp, out) for kind, out in zip(POWER_KINDS, outputs)]
    cells = POWER_STEPS * POWER_STEPS
    factor = math.ldexp(1.0, scale_exp)

    def check(texts: list[bytes]) -> Check:
        result = Check(attempted=cells * len(POWER_KINDS))
        for kind, text in zip(POWER_KINDS, texts):
            ref = read_rows(load_ref(f"power_{kind}.csv.xz"))
            got = read_rows(text.decode("utf-8"))
            if len(got) != cells:
                result.fail(abs(cells - len(got)), f"power {kind}: {len(got)} cells")
            for r, g in zip(ref, got):
                try:
                    ok = (
                        close(float(g["c1"]), factor * float(r["c1"]))
                        and close(float(g["c2"]), factor * float(r["c2"]))
                        and close(float(g["power"]), float(r["power"]), TAIL_ABS_TOL)
                    )
                except (KeyError, ValueError) as exc:
                    ok = False
                    g = {"error": repr(exc)}
                if not ok:
                    result.fail(1, f"power {kind}: cell {r} got {g}")
        return result

    return Job(cells * len(POWER_KINDS), commands, outputs, {}, check,
               {"scale": factor})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def make_simulate(seed: int, workdir: Path, tiny: bool) -> Job:
    study_seed = seed % SIMULATE_STUDIES
    grid_spec = SIMULATE_GRID_TINY if tiny else SIMULATE_GRID
    grid = simulate_grid(grid_spec)
    prefix = workdir / "study"
    outputs = [Path(f"{prefix}_n100_rates.csv"), Path(f"{prefix}_n100_kappa_max.csv"),
               Path(f"{prefix}_config.json")]
    items = len(grid) * SIMULATE_REPS

    def check(texts: list[bytes]) -> Check:
        ref = json.loads(load_ref("simulate.json.xz"))[str(study_seed)]
        result = Check(attempted=items)
        bad = set()
        ref_rates = [r for r in read_rows(ref["rates"]) if float(r["theta2"]) in grid]
        got_rates = read_rows(texts[0].decode("utf-8"))
        if len(got_rates) != len(ref_rates):
            bad.update(grid)
        for r, g in zip(ref_rates, got_rates):
            try:
                ok = (
                    all(g[k] == r[k] for k in ("theta2", "kappa", "test", "rejection_rate"))
                    and close(float(g["mc_se"]), float(r["mc_se"]))
                )
            except KeyError:
                ok = False
            if not ok:
                bad.add(float(r["theta2"]))
        ref_q = [r for r in read_rows(ref["kappa_max"]) if float(r["theta2"]) in grid]
        got_q = read_rows(texts[1].decode("utf-8"))
        if len(got_q) != len(ref_q):
            bad.update(grid)
        for r, g in zip(ref_q, got_q):
            try:
                ok = g["theta2"] == r["theta2"] and all(
                    close(float(g[k]), float(r[k]), KAPPA_ABS_TOL) for k in ("q10", "q50", "q90")
                )
            except (KeyError, ValueError):
                ok = False
            if not ok:
                bad.add(float(r["theta2"]))
        for theta2 in sorted(bad):
            result.fail(SIMULATE_REPS, f"simulate: study {study_seed} theta2={theta2} differs")
        config = json.loads(texts[2].decode("utf-8"))
        want = {"theta1": 1.0, "theta2_grid": grid, "n": [100], "replications": SIMULATE_REPS,
                "kappas": [2.0, 4.0], "alpha": 0.05, "seed": study_seed}
        if any(config.get(k) != v for k, v in want.items()):
            result.fail(items - result.failed, f"simulate: config echo {config}")
        return result

    return Job(items, [simulate_argv(study_seed, grid_spec, prefix)], outputs, {}, check,
               {"study_seed": study_seed})


WORKLOADS = {
    "scan": make_scan,
    "network": make_network,
    "power": make_power,
    "simulate": make_simulate,
}
