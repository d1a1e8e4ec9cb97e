"""Command-line front end: pair tests, batch scans, network scans, power grids.

Subcommands
-----------
test       one estimate pair -> JSON verdict
scan       pair CSV (id,est1,se1,est2,se2) -> CSV/JSON with multiplicity adjustment
network    two sample-by-feature matrices -> differential-correlation edges
power      local asymptotic power over a (c1, c2) grid -> CSV/JSON
simulate   seeded Monte Carlo study -> rate and quantile files + config echo
kappa-max  effect-ratio summary for a pair or a CSV of pairs

This module parses arguments and input files and formats results; every
computation, input validation included, belongs to the numeric core.  Each
subcommand accepts only the flags it reads, so any other flag is a usage
error.

Conventions shared by every command: numeric output is serialized with 10
significant digits, and downstream decisions (Bonferroni adjustment,
rejection flags) are computed from the serialized values so that re-parsing
our own output reproduces them exactly.  Exit codes: 0 success, 1
runtime/numerical failure, 2 usage or validation failure.  Input CSV is
comma-separated UTF-8 with a mandatory header row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from qualint.estimators import FeatureMatrix, pearson
from qualint.inference import (
    EstimatePair,
    LocalAlternative,
    PairBatch,
    SubgroupEstimate,
    _rule_violation,
    _valid,
    gail_simon_test,
    kappa_max,
    omnibus_local_power,
    omnibus_test,
    rd_local_power,
    rd_test,
)
from qualint.simulation import SimulationConfig, run_rejection_study

__all__ = ["main"]

_CONTEXT_KAPPAS = (1.5, 2.0, 4.0)
_PAIR_FIELDS = ("id", "est1", "se1", "est2", "se2")


class UsageError(ValueError):
    """Bad flags, malformed input files, or strict-mode row failures."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _g10(value: float) -> float:
    """Round to the 10-significant-digit float every output column carries."""
    return float(f"{value:.10g}")


def _g10s(values: np.ndarray) -> list[float]:
    return [_g10(value) for value in values.tolist()]


def _num(value: float) -> str:
    return f"{value:.10g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _num(value)
    return str(value)


def _output(path: str | None):
    """--output PATH, or stdout (left open); newline-stable for byte-identical runs."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(out, payload: dict) -> None:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _write_table(
    out, fmt: str, fieldnames, rows, summary: dict | None = None, footer: str | None = None
) -> None:
    """Rows (values in fieldnames order) as CSV with an optional footer line,
    or as JSON {"results": [...], "summary": summary}."""
    if fmt == "json":
        payload: dict = {"results": [dict(zip(fieldnames, row)) for row in rows]}
        if summary is not None:
            payload["summary"] = summary
        _write_json(out, payload)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([_cell(value) for value in row] for row in rows)
    if footer is not None:
        out.write(footer + "\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _bonferroni(p_raw: list[float], adjust: str) -> list[float]:
    """Adjusted p-values from the serialized raw ones; m counts the tested rows."""
    if adjust == "none":
        return p_raw
    m = len(p_raw)
    return [_g10(min(1.0, m * p)) for p in p_raw]


# ---------------------------------------------------------------------------
# pair CSV input
# ---------------------------------------------------------------------------


def _read_pairs(path: str, strict: bool) -> tuple[list[str], PairBatch]:
    """The ids and the batch of the valid rows of a pair CSV, in file order.

    A row is invalid when a cell does not parse, its id is empty, a value
    breaks the core's input rule, or its id repeats that of an earlier
    valid row.  Invalid rows are skipped with one warning each, in line
    order; in strict mode they fail the run, every bad line listed.
    """
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    problems: list[tuple[int, str]] = []
    ids: list[str] = []
    lines: list[int] = []
    values: list[list[float]] = []
    with handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != _PAIR_FIELDS:
            raise UsageError(
                f"{path}: expected header {','.join(_PAIR_FIELDS)}, "
                f"got {','.join(header) if header else '(none)'}"
            )
        for row in reader:
            if not row:  # a blank line
                continue
            line_no = reader.line_num
            try:
                if len(row) < len(_PAIR_FIELDS):
                    raise ValueError(f"expected {len(_PAIR_FIELDS)} cells, got {len(row)}")
                parsed = [float(cell) for cell in row[1 : len(_PAIR_FIELDS)]]
                if not row[0].strip():
                    raise ValueError("id must be nonempty")
            except ValueError as exc:
                problems.append((line_no, str(exc)))
                continue
            ids.append(row[0].strip())
            lines.append(line_no)
            values.append(parsed)

    columns = np.array(values, dtype=float).reshape(-1, 4).T
    is_se = [name.startswith("se") for name in _PAIR_FIELDS[1:]]
    bad = np.array([~_valid(column, se) for column, se in zip(columns, is_se)])
    invalid = bad.any(axis=0)
    for i in np.flatnonzero(invalid).tolist():
        c = int(np.argmax(bad[:, i]))  # the first bad value names the problem
        problems.append((lines[i], _rule_violation(_PAIR_FIELDS[1 + c], columns[c, i], is_se[c])))
    keep: list[int] = []
    seen: set[str] = set()
    for i in np.flatnonzero(~invalid).tolist():
        if ids[i] in seen:
            problems.append((lines[i], f"duplicate id {ids[i]!r}"))
        else:
            seen.add(ids[i])
            keep.append(i)

    if problems:
        problems.sort(key=lambda problem: problem[0])
        listed = [f"{path}:{line_no}: {text}" for line_no, text in problems]
        if strict:
            raise UsageError("invalid rows:\n  " + "\n  ".join(listed))
        for problem in listed:
            _warn(f"skipping {problem}")
    return [ids[i] for i in keep], PairBatch(*columns[:, keep])


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _run_pair_test(pair: EstimatePair | PairBatch, kind: str, kappa: float, alpha: float):
    if kind == "rd":
        return rd_test(pair, kappa, alpha)
    if kind == "omnibus":
        return omnibus_test(pair, kappa, alpha)
    return gail_simon_test(pair, alpha)


def _cmd_test(args) -> int:
    pair = EstimatePair(
        SubgroupEstimate(args.est1, args.se1), SubgroupEstimate(args.est2, args.se2)
    )
    result = _run_pair_test(pair, args.kind, args.kappa, args.alpha)
    payload = {
        "kind": args.kind,
        "statistic": _g10(result.statistic),
        "p_value": _g10(result.p_value),
        "components": {k: _g10(v) for k, v in result.components.items()},
        "rejected": result.rejected,
        "alpha": _g10(result.alpha),
    }
    if args.kind != "gs":
        payload["kappa"] = _g10(args.kappa)
    with _output(args.output) as out:
        _write_json(out, payload)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    if args.kind == "rd" and not args.alpha < 0.5:
        raise UsageError("rd scans report kappa_max, which requires --alpha < 0.5")
    ids, batch = _read_pairs(args.input, args.strict)
    outcome = _run_pair_test(batch, args.kind, args.kappa, args.alpha)
    p_raw = _g10s(outcome.p_value)
    p_adjusted = _bonferroni(p_raw, args.adjust)
    if args.kind == "rd":
        bounds = _g10s(kappa_max(batch, args.alpha).kappa_max)
    else:
        bounds = [None] * len(ids)
    rejected = [p < args.alpha for p in p_adjusted]
    rows = sorted(
        zip(ids, _g10s(outcome.statistic), p_raw, p_adjusted, bounds, rejected),
        key=lambda row: (row[3], row[0]),
    )
    fieldnames = ("id", "statistic", "p_raw", "p_adjusted", "kappa_max", "rejected")
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, rows, summary={"tested": len(ids)})
    return 0


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def _read_matrix(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = tuple(name.strip() for name in next(reader))
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        if len(header) < 2 or any(not name for name in header):
            raise UsageError(f"{path}: need at least two named feature columns")
        if len(set(header)) != len(header):
            raise UsageError(f"{path}: duplicate feature names")
        rows = []
        for row in reader:
            line_no = reader.line_num
            if len(row) != len(header):
                raise UsageError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {exc}") from exc
    if len(rows) < 3:
        raise UsageError(f"{path}: need at least 3 sample rows, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    if not np.isfinite(data).all():
        raise UsageError(f"{path}: non-finite values present")
    return header, data


def _cmd_network(args) -> int:
    features, data1 = _read_matrix(args.matrix1)
    features2, data2 = _read_matrix(args.matrix2)
    if features != features2:
        raise UsageError(
            "feature columns differ between matrices "
            f"({args.matrix1} vs {args.matrix2})"
        )
    p = len(features)
    total_pairs = p * (p - 1) // 2

    matrix1, matrix2 = FeatureMatrix(data1), FeatureMatrix(data2)
    fit1, fit2 = pearson(matrix1), pearson(matrix2)
    first, second = matrix1.pairs()
    ok1 = fit1.ok
    kept = ok1 & fit2.ok
    # per-pair order and wording: group 1 is checked before group 2
    for k in np.flatnonzero(~kept).tolist():
        reason = fit1.reason(k) if not ok1[k] else fit2.reason(k)
        _warn(f"skipping pair ({features[first[k]]}, {features[second[k]]}): {reason}")
    skipped = total_pairs - int(kept.sum())

    r1, r2 = fit1.estimate[kept], fit2.estimate[kept]
    m = len(r1)
    outcome = rd_test(
        PairBatch(r1, fit1.std_error[kept], r2, fit2.std_error[kept]), args.kappa, args.alpha
    )
    p_raw = _g10s(outcome.p_value)
    p_adjusted = _bonferroni(p_raw, args.adjust)
    rejected = sum(p < args.alpha for p in p_adjusted)
    # the group with the larger |r|; 0 on an exact tie
    stronger = np.select([np.abs(r1) > np.abs(r2), np.abs(r2) > np.abs(r1)], [1, 2], 0)
    edges = sorted(
        zip(
            [features[a] for a in first[kept].tolist()],
            [features[b] for b in second[kept].tolist()],
            _g10s(r1),
            _g10s(r2),
            _g10s(outcome.statistic),
            p_raw,
            p_adjusted,
            stronger.tolist(),
        ),
        key=lambda edge: (edge[6], edge[0], edge[1]),
    )

    summary = {
        "features": p,
        "pairs": total_pairs,
        "tested": m,
        "skipped": skipped,
        "rejected": rejected,
    }
    fieldnames = (
        "feature_a",
        "feature_b",
        "r1",
        "r2",
        "statistic",
        "p_raw",
        "p_adjusted",
        "stronger_group",
    )
    footer = (
        f"# features={p} pairs={total_pairs} tested={m} "
        f"skipped={skipped} rejected={rejected}"
    )
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, edges, summary=summary, footer=footer)
    return 0


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def _cmd_power(args) -> int:
    if args.c1_steps < 1 or args.c2_steps < 1:
        raise UsageError("power grids need at least one step per axis")
    c1_grid = np.linspace(args.c1_min, args.c1_max, args.c1_steps)
    c2_grid = np.linspace(args.c2_min, args.c2_max, args.c2_steps)
    power_fn = rd_local_power if args.kind == "rd" else omnibus_local_power
    # every (c1, c2) cell, c1 varying slowest
    c1 = np.repeat(c1_grid, c2_grid.size)
    c2 = np.tile(c2_grid, c1_grid.size)
    alt = LocalAlternative(c1, c2, args.sigma1, args.sigma2, args.lam)
    powers = power_fn(alt, args.kappa, args.alpha)
    rows = zip(_g10s(c1), _g10s(c2), _g10s(powers))
    with _output(args.output) as out:
        _write_table(out, args.format, ("c1", "c2", "power"), rows)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _theta2_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    if step <= 0 or hi < lo:
        raise UsageError("need --theta2-max >= --theta2-min and --theta2-step > 0")
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + k * step, 10) for k in range(count))


def _cmd_simulate(args) -> int:
    grid = _theta2_grid(args.theta2_min, args.theta2_max, args.theta2_step)
    prefix = args.output or "study"
    written = []
    for n in args.n:
        config = SimulationConfig(
            theta1=args.theta1,
            theta2_grid=grid,
            n=n,
            replications=args.reps,
            kappas=tuple(args.kappas),
            alpha=args.alpha,
            seed=args.seed,
        )
        result = run_rejection_study(config)
        rates = [
            (cell.theta2, cell.kappa, cell.test, cell.rejection_rate, cell.mc_std_error)
            for cell in result.rates
        ]
        tables = [("rates", ("theta2", "kappa", "test", "rejection_rate", "mc_se"), rates)]
        if result.kappa_max_quantiles:
            quantiles = [
                (theta2, qs[0.10], qs[0.50], qs[0.90])
                for theta2, qs in result.kappa_max_quantiles.items()
            ]
            tables.append(("kappa_max", ("theta2", "q10", "q50", "q90"), quantiles))
        for name, fieldnames, rows in tables:
            written.append(f"{prefix}_n{n}_{name}.csv")
            with _output(written[-1]) as out:
                _write_table(out, "csv", fieldnames, rows)
    written.append(f"{prefix}_config.json")
    with _output(written[-1]) as out:
        _write_json(
            out,
            {
                "theta1": args.theta1,
                "theta2_grid": list(grid),
                "n": list(args.n),
                "replications": args.reps,
                "kappas": list(args.kappas),
                "alpha": args.alpha,
                "seed": args.seed,
            },
        )
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# kappa-max
# ---------------------------------------------------------------------------


def _context_p_values(batch: PairBatch, alpha: float) -> dict[str, list[float]]:
    """Every row's rd p-value at each context kappa, keyed by the kappa as printed."""
    return {_num(k): _g10s(rd_test(batch, k, alpha).p_value) for k in _CONTEXT_KAPPAS}


def _cmd_kappa_max(args) -> int:
    if args.input is None:
        if None in (args.est1, args.se1, args.est2, args.se2):
            raise UsageError(
                "kappa-max needs either an input CSV or all of "
                "--est1/--se1/--est2/--se2"
            )
        batch = PairBatch.from_rows([(args.est1, args.se1, args.est2, args.se2)])
        summary = kappa_max(batch, args.alpha)[0]
        roots = None
        if summary.roots is not None:
            pi1, pi2 = summary.roots
            roots = {
                "normal_boundary": _g10(pi1),
                "zero_point": None if math.isinf(pi2) else _g10(pi2),
            }
        context = _context_p_values(batch, args.alpha)
        payload = {
            "kappa_max": _g10(summary.kappa_max),
            "alpha": _g10(args.alpha),
            "binding_root": summary.binding_root,
            "roots": roots,
            "p_values": {k: p for k, (p,) in context.items()},
        }
        with _output(args.output) as out:
            _write_json(out, payload)
        return 0

    ids, batch = _read_pairs(args.input, args.strict)
    summaries = kappa_max(batch, args.alpha)
    context = _context_p_values(batch, args.alpha)
    rows = sorted(
        zip(ids, _g10s(summaries.kappa_max), summaries.binding_root.tolist(), *context.values()),
        key=lambda row: (-row[1], row[0]),
    )
    fieldnames = ("id", "kappa_max", "binding_root", *(f"p_rd_{k}" for k in context))
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# flags that several subcommands take; each subcommand names the ones it reads
_SHARED_FLAGS = {
    "--alpha": {"type": float, "default": 0.05, "help": "test level"},
    "--kappa": {"type": float, "default": 2.0, "help": "ratio bound > 1"},
    "--output": {"help": "output path (default: stdout)"},
    "--format": {
        "choices": ("csv", "json"),
        "default": "csv",
        "help": "tabular output format",
    },
    "--strict": {
        "action": "store_true",
        "help": "fail on invalid input rows instead of skipping with a warning",
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qualint",
        description="Tests and summaries for qualitative interactions "
        "between two sub-populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, *flags: str) -> argparse.ArgumentParser:
        # no abbreviations: simulate would take --kappa for --kappas
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p_test = command("test", _cmd_test, "test one estimate pair", "--alpha", "--kappa", "--output")
    p_test.add_argument("--kind", choices=("rd", "omnibus", "gs"), default="rd")
    p_test.add_argument("--est1", type=float, required=True)
    p_test.add_argument("--se1", type=float, required=True)
    p_test.add_argument("--est2", type=float, required=True)
    p_test.add_argument("--se2", type=float, required=True)

    p_scan = command(
        "scan", _cmd_scan, "scan a CSV of estimate pairs",
        "--alpha", "--kappa", "--output", "--format", "--strict",
    )
    p_scan.add_argument("input", help="CSV with header id,est1,se1,est2,se2")
    p_scan.add_argument("--kind", choices=("rd", "omnibus", "gs"), default="rd")
    p_scan.add_argument(
        "--adjust", choices=("bonferroni", "none"), default="bonferroni"
    )

    p_net = command(
        "network", _cmd_network, "differential-correlation edge scan",
        "--alpha", "--kappa", "--output", "--format",
    )
    p_net.add_argument("matrix1", help="group-1 matrix CSV (features in header)")
    p_net.add_argument("matrix2", help="group-2 matrix CSV (same features)")
    p_net.add_argument(
        "--adjust", choices=("bonferroni", "none"), default="bonferroni"
    )

    p_power = command(
        "power", _cmd_power, "local asymptotic power grid",
        "--alpha", "--kappa", "--output", "--format",
    )
    p_power.add_argument("--kind", choices=("rd", "omnibus"), default="rd")
    p_power.add_argument("--c1-min", type=float, default=-6.0)
    p_power.add_argument("--c1-max", type=float, default=6.0)
    p_power.add_argument("--c1-steps", type=int, default=13)
    p_power.add_argument("--c2-min", type=float, default=-6.0)
    p_power.add_argument("--c2-max", type=float, default=6.0)
    p_power.add_argument("--c2-steps", type=int, default=13)
    p_power.add_argument("--sigma1", type=float, default=1.0)
    p_power.add_argument("--sigma2", type=float, default=1.0)
    p_power.add_argument(
        "--lambda", dest="lam", type=float, default=0.5, help="group-size fraction"
    )

    p_sim = command("simulate", _cmd_simulate, "seeded Monte Carlo study", "--alpha")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_sim.add_argument("--output", help="prefix of the output files (default: study)")
    p_sim.add_argument("--theta1", type=float, default=1.0)
    p_sim.add_argument("--theta2-min", type=float, default=-1.0)
    p_sim.add_argument("--theta2-max", type=float, default=1.0)
    p_sim.add_argument("--theta2-step", type=float, default=0.1)
    p_sim.add_argument(
        "--n", type=int, nargs="+", default=[50, 100], help="per-group sample sizes"
    )
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument(
        "--kappas", type=float, nargs="+", default=[2.0, 4.0], help="ratio bounds"
    )

    p_km = command(
        "kappa-max", _cmd_kappa_max, "largest kappa still rejected",
        "--alpha", "--output", "--format", "--strict",
    )
    p_km.add_argument("input", nargs="?", help="optional CSV of estimate pairs")
    p_km.add_argument("--est1", type=float)
    p_km.add_argument("--se1", type=float)
    p_km.add_argument("--est2", type=float)
    p_km.add_argument("--se2", type=float)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.handler(args)
    except ValueError as exc:  # UsageError and EstimationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
