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
significant digits by the table writer, which formats each value once, and
decisions (Bonferroni adjustment, rejection flags, sort order) read columns
the command rounded to those digits first (_g10s), so re-parsing our own
output reproduces them exactly.  Exit codes: 0 success, 1 runtime/numerical
failure, 2 usage or validation failure.  Input CSV is comma-separated UTF-8
with a mandatory header row.

Tables move as columns.  The readers convert each value column in one pass
and read row by row only to word an error.  A command sorts its rows once
with np.lexsort, names entering as code-point ranks: scan by (p_adjusted,
id), network by (p_adjusted, feature_a, feature_b), kappa-max by
(-kappa_max, id).  The CSV writer joins cells and quotes each text cell
holding a comma, quote, CR or LF, doubling its quotes; any other cell, NUL
included, is written as it is, so the bytes do not depend on the Python
version.  JSON is strict: a number that is not finite after rounding is
written as null.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import re
import sys
from itertools import chain
from operator import itemgetter

import numpy as np

from qualint.estimators import FeatureMatrix, pearson
from qualint.inference import (
    _KAPPA_MAX_ALPHA,
    _SE_ROWS,
    EstimatePair,
    LocalAlternative,
    PairBatch,
    SubgroupEstimate,
    _check_alpha,
    _rule_violation,
    _valid,
    gail_simon_test,
    kappa_max,
    omnibus_local_power,
    omnibus_test,
    rd_local_power,
    rd_test,
)
from qualint.simulation import _STREAM_INDEX_LIMIT, SimulationConfig, run_rejection_study

__all__ = ["main"]

_CONTEXT_KAPPAS = (1.5, 2.0, 4.0)
_PAIR_FIELDS = ("id", "est1", "se1", "est2", "se2")


class UsageError(ValueError):
    """Bad flags, malformed input files, or strict-mode row failures."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

# a text cell holding one of these is quoted, its quotes doubled; any other
# cell, NUL included, is written as it is, the same bytes on every Python
_CSV_SPECIALS = re.compile('[,"\r\n]')


def _g10s(values: np.ndarray) -> np.ndarray:
    """A column rounded to the floats its 10-digit text reads back as."""
    return np.array([float(f"{value:.10g}") for value in values.tolist()], dtype=float)


def _json_g10(value: float) -> float | None:
    """A number rounded to the float its 10-digit text reads back as; null
    when that is not finite, as strict JSON has no Infinity or NaN."""
    value = float(f"{value:.10g}")
    return value if math.isfinite(value) else None


def _csv_text(cells: list[str]) -> list[str]:
    """Text cells as CSV: each cell holding a special is quoted."""
    if not _CSV_SPECIALS.search("".join(cells)):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"' if _CSV_SPECIALS.search(cell) else cell
        for cell in cells
    ]


def _serialized(column, fmt: str) -> list:
    """One table column under the 10-digit rule.  Numeric columns are arrays:
    floats become .10g text in CSV and, in JSON, the float that text reads
    back as (null if not finite); bools become true/false in CSV.  Text
    columns are lists, CSV-quoted; a list of None is blank in CSV."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if column.dtype.kind == "f":
            return [f"{v:.10g}" for v in values] if fmt == "csv" else list(map(_json_g10, values))
        if fmt == "json":
            return values
        if column.dtype.kind == "b":
            return ["true" if v else "false" for v in values]
        return list(map(str, values))
    if fmt == "json":
        return column
    return [""] * len(column) if column and column[0] is None else _csv_text(column)


def _ordered(columns, order: np.ndarray) -> list:
    """Every column (array or list) in the given row order."""
    rows = order.tolist()
    return [
        column[order] if isinstance(column, np.ndarray) else [column[i] for i in rows]
        for column in columns
    ]


def _ranks(names: list[str] | tuple[str, ...]) -> np.ndarray:
    """The position of each of the distinct names in code-point order: a
    string sort key enters np.lexsort as these integers."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def _output(path: str | None):
    """--output PATH, or stdout (left open); newline-stable for byte-identical runs."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(out, payload: dict) -> None:
    json.dump(payload, out, indent=2, sort_keys=True, allow_nan=False)
    out.write("\n")


def _write_table(
    out, fmt: str, fieldnames, columns, summary: dict | None = None, footer: str | None = None
) -> None:
    """Columns (in fieldnames order), each serialized once, as CSV with an
    optional footer line or as JSON {"results": [...], "summary": ...}."""
    cells = [_serialized(column, fmt) for column in columns]
    if fmt == "json":
        payload: dict = {"results": [dict(zip(fieldnames, row)) for row in zip(*cells)]}
        if summary is not None:
            payload["summary"] = summary
        _write_json(out, payload)
        return
    lines = [",".join(_csv_text(list(fieldnames))), *map(",".join, zip(*cells))]
    if footer is not None:
        lines.append(footer)
    out.write("\n".join(lines) + "\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _bonferroni(p_raw: np.ndarray, adjust: str) -> np.ndarray:
    """Adjusted p-values from the serialized raw ones; m counts the tested rows.
    fmin keeps the rule of min(1.0, m * p), which adjusts a NaN to 1."""
    if adjust == "none":
        return p_raw
    return _g10s(np.fmin(1.0, len(p_raw) * p_raw))


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _csv_rows(path: str):
    """A csv.reader over the file; a file that cannot be opened, or a csv
    error such as a cell past the field limit, is a usage error."""
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise UsageError(f"{path}:{reader.line_num}: {exc}") from None


def _floats(cells, shape: tuple[int, int]) -> np.ndarray:
    """Text cells, in row-major order, as a float array of the given shape,
    converted by float() in one pass: ValueError at the first it refuses."""
    return np.fromiter(map(float, cells), float, shape[0] * shape[1]).reshape(shape)


def _read_pairs(path: str, strict: bool) -> tuple[list[str], PairBatch]:
    """The ids and the batch of the valid rows of a pair CSV, in file order.

    A row is invalid when a cell does not parse, its id is empty, a value
    breaks the core's input rule, or its id repeats that of an earlier
    valid row.  Invalid rows are skipped with one warning each, in line
    order; in strict mode they fail the run, every bad line listed.
    """
    width = len(_PAIR_FIELDS)
    with _csv_rows(path) as reader:
        header = tuple(next(reader, ()))
        if header != _PAIR_FIELDS:
            raise UsageError(
                f"{path}: expected header {','.join(_PAIR_FIELDS)}, "
                f"got {','.join(header) if header else '(none)'}"
            )
        rows, lines = [], []
        for row in reader:
            if row:  # a blank line is skipped
                rows.append(row)
                lines.append(reader.line_num)
    problems: list[tuple[int, str]] = []
    try:  # whole columns; a failure leaves the wording to the rows below
        if min(map(len, rows), default=width) < width:
            raise ValueError
        ids = [row[0].strip() for row in rows]
        if not all(ids):
            raise ValueError
        values = chain.from_iterable(map(itemgetter(c), rows) for c in range(1, width))
        columns = _floats(values, (width - 1, len(rows)))
    except ValueError:
        ids, parsed_lines, values = [], [], []
        for line_no, row in zip(lines, rows):
            try:
                if len(row) < width:
                    raise ValueError(f"expected {width} cells, got {len(row)}")
                parsed = [float(cell) for cell in row[1:width]]
                if not row[0].strip():
                    raise ValueError("id must be nonempty")
            except ValueError as exc:
                problems.append((line_no, str(exc)))
                continue
            ids.append(row[0].strip())
            parsed_lines.append(line_no)
            values.append(parsed)
        lines = parsed_lines
        columns = np.array(values, dtype=float).reshape(-1, width - 1).T

    bad = ~_valid(columns, _SE_ROWS)
    invalid = bad.any(axis=0)
    for i in np.flatnonzero(invalid).tolist():
        c = int(np.argmax(bad[:, i]))  # the first bad value names the problem
        text = _rule_violation(_PAIR_FIELDS[1 + c], columns[c, i], _SE_ROWS[c, 0])
        problems.append((lines[i], text))
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
        "statistic": _json_g10(result.statistic),
        "p_value": _json_g10(result.p_value),
        "components": {k: _json_g10(v) for k, v in result.components.items()},
        "rejected": result.rejected,
        "alpha": _json_g10(result.alpha),
    }
    if args.kind != "gs":
        payload["kappa"] = _json_g10(args.kappa)
    with _output(args.output) as out:
        _write_json(out, payload)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    if args.kind == "rd":  # rd scans report kappa_max: check its alpha before reading
        _check_alpha(args.alpha, upper=_KAPPA_MAX_ALPHA)
    ids, batch = _read_pairs(args.input, args.strict)
    outcome = _run_pair_test(batch, args.kind, args.kappa, args.alpha)
    p_raw = _g10s(outcome.p_value)
    p_adjusted = _bonferroni(p_raw, args.adjust)
    if args.kind == "rd":
        bounds = kappa_max(batch, args.alpha).kappa_max
    else:
        bounds = [None] * len(ids)
    columns = (ids, outcome.statistic, p_raw, p_adjusted, bounds, p_adjusted < args.alpha)
    columns = _ordered(columns, np.lexsort((_ranks(ids), p_adjusted)))
    fieldnames = ("id", "statistic", "p_raw", "p_adjusted", "kappa_max", "rejected")
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, columns, summary={"tested": len(ids)})
    return 0


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def _read_matrix(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The feature names and the sample-by-feature values of a matrix CSV.
    Every row must hold one finite value per feature."""
    with _csv_rows(path) as reader:
        try:
            header = tuple(name.strip() for name in next(reader))
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        if len(header) < 2 or any(not name for name in header):
            raise UsageError(f"{path}: need at least two named feature columns")
        if len(set(header)) != len(header):
            raise UsageError(f"{path}: duplicate feature names")
        rows, lines = [], []
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)
    try:  # whole columns; a failure leaves the wording to the rows below
        if any(len(row) != len(header) for row in rows):
            raise ValueError
        data = _floats(chain.from_iterable(rows), (len(rows), len(header)))
    except ValueError:
        for line_no, row in zip(lines, rows):
            if len(row) != len(header):
                raise UsageError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                ) from None
            try:
                [float(cell) for cell in row]
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {exc}") from exc
    if len(rows) < 3:
        raise UsageError(f"{path}: need at least 3 sample rows, got {len(rows)}")
    bad = ~np.isfinite(data)
    if bad.any():  # the first in line order, then feature order
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        problem = _rule_violation(header[j], data[i, j], se=False)
        raise UsageError(f"{path}:{lines[i]}: {problem}")
    return header, data


def _cmd_network(args) -> int:
    features, data1 = _read_matrix(args.matrix1)
    features2, data2 = _read_matrix(args.matrix2)
    if features != features2:
        raise UsageError(
            "feature columns differ between matrices "
            f"({args.matrix1} vs {args.matrix2})"
        )
    matrix1, matrix2 = FeatureMatrix(data1), FeatureMatrix(data2)
    fit1, fit2 = pearson(matrix1), pearson(matrix2)
    first, second = matrix1.pairs()
    ok1 = fit1.ok
    kept = ok1 & fit2.ok
    # per-pair order: group 1 is checked before group 2
    for k in np.flatnonzero(~kept).tolist():
        names = (features[first[k]], features[second[k]])
        reason = (fit1 if not ok1[k] else fit2).reason(k, names)
        _warn(f"skipping pair ({names[0]}, {names[1]}): {reason}")
    skipped = len(matrix1) - int(kept.sum())

    r1, r2 = fit1.estimate[kept], fit2.estimate[kept]
    outcome = rd_test(
        PairBatch(r1, fit1.std_error[kept], r2, fit2.std_error[kept]), args.kappa, args.alpha
    )
    p_raw = _g10s(outcome.p_value)
    p_adjusted = _bonferroni(p_raw, args.adjust)
    rejected = int(np.count_nonzero(p_adjusted < args.alpha))
    # the group with the larger |r|; 0 on an exact tie
    stronger = np.select([np.abs(r1) > np.abs(r2), np.abs(r2) > np.abs(r1)], [1, 2], 0)
    ranks = _ranks(features)
    a, b = first[kept], second[kept]
    order = np.lexsort((ranks[b], ranks[a], p_adjusted))
    a, b = a[order].tolist(), b[order].tolist()
    edges = [
        [features[i] for i in a],
        [features[i] for i in b],
        *_ordered((r1, r2, outcome.statistic, p_raw, p_adjusted, stronger), order),
    ]

    summary = {
        "features": len(features),
        "pairs": len(matrix1),
        "tested": len(r1),
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
    footer = "# " + " ".join(f"{key}={value}" for key, value in summary.items())
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
    with _output(args.output) as out:
        _write_table(out, args.format, ("c1", "c2", "power"), (c1, c2, powers))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _theta2_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, ..., hi, its arguments checked before any point is built."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise UsageError("--theta2-min, --theta2-max and --theta2-step must be finite")
    if step <= 0 or hi < lo:
        raise UsageError("need --theta2-max >= --theta2-min and --theta2-step > 0")
    # (hi - lo) / step is inf past the float range
    count = round(min((hi - lo) / step, _STREAM_INDEX_LIMIT)) + 1
    if count >= _STREAM_INDEX_LIMIT:
        raise UsageError("the theta2 grid must hold fewer than 2**32 points")
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
        cells = result.rates
        rates = [
            np.array([cell.theta2 for cell in cells]),
            np.array([cell.kappa for cell in cells]),
            [cell.test for cell in cells],
            np.array([cell.rejection_rate for cell in cells]),
            np.array([cell.mc_std_error for cell in cells]),
        ]
        tables = [("rates", ("theta2", "kappa", "test", "rejection_rate", "mc_se"), rates)]
        if result.kappa_max_quantiles:
            quantiles = np.array([
                (theta2, qs[0.10], qs[0.50], qs[0.90])
                for theta2, qs in result.kappa_max_quantiles.items()
            ])
            tables.append(("kappa_max", ("theta2", "q10", "q50", "q90"), quantiles.T))
        for name, fieldnames, columns in tables:
            written.append(f"{prefix}_n{n}_{name}.csv")
            with _output(written[-1]) as out:
                _write_table(out, "csv", fieldnames, columns)
    written.append(f"{prefix}_config.json")
    with _output(written[-1]) as out:
        _write_json(out, {**dataclasses.asdict(config), "n": list(args.n)})
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# kappa-max
# ---------------------------------------------------------------------------


def _context_p_values(batch: PairBatch, alpha: float) -> dict[str, np.ndarray]:
    """Every row's rd p-value at each context kappa, keyed by the kappa as printed."""
    return {f"{k:.10g}": _g10s(rd_test(batch, k, alpha).p_value) for k in _CONTEXT_KAPPAS}


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
            roots = {"normal_boundary": _json_g10(pi1), "zero_point": _json_g10(pi2)}
        context = _context_p_values(batch, args.alpha)
        payload = {
            "kappa_max": _json_g10(summary.kappa_max),
            "alpha": _json_g10(args.alpha),
            "binding_root": summary.binding_root,
            "roots": roots,
            "p_values": {k: _json_g10(p) for k, (p,) in context.items()},
        }
        with _output(args.output) as out:
            _write_json(out, payload)
        return 0

    ids, batch = _read_pairs(args.input, args.strict)
    summaries = kappa_max(batch, args.alpha)
    context = _context_p_values(batch, args.alpha)
    bounds = _g10s(summaries.kappa_max)
    columns = (ids, bounds, summaries.binding_root.tolist(), *context.values())
    columns = _ordered(columns, np.lexsort((_ranks(ids), -bounds)))
    fieldnames = ("id", "kappa_max", "binding_root", *(f"p_rd_{k}" for k in context))
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, columns)
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


@functools.cache  # built on first use and reused: parse_args leaves it unchanged
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
