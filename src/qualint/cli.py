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
error.  network imports qualint.estimators and simulate qualint.simulation
when they run, so no other command's cold start loads them.

Conventions shared by every command: numeric output carries 10
significant digits.  Exit codes: 0 success, 1 runtime/numerical failure
(running out of memory included), 2 usage or validation failure.  Input
CSV is comma-separated UTF-8 with a mandatory header row; a file that is
not UTF-8 is a usage error naming it.

Read rule.  A reader reads its file as one string.  Text with no quote, no
NUL and no line longer than csv's field limit is split into lines at CR, LF
and CRLF only.  One np.loadtxt call reads their value cells where it reads
what float() would (_loadtxt_columns): ASCII text without \\x1c-\\x1f,
record lines and none blank, one row per line of the header's width.
Otherwise the lines are split into cells at commas, a blank line an empty
record, and any other text goes through csv.reader.  Those records go to
one conversion (_value_columns), which converts the value columns in one
float() pass and reads row by row only to word a bad row: too few cells,
not exactly the header's width (a matrix), or the message float() gives.
The pair reader then skips or lists its bad rows; the matrix reader stops
at the first.

Format-once rule.  Tables move as columns, and each number crosses to text
once.  A decision column (p_raw and p_adjusted; kappa-max's kappa_max and
p_rd_*) is formatted to 10 digits in one pass and read back (_g10s):
decisions (Bonferroni adjustment, rejection flags, sort order) read those
floats, so re-parsing our own output reproduces them exactly, and the CSV
writer writes the kept text.  A value of exactly 1, where p-values and
kappa_max are clamped, is given the text "1" and the float 1.0 without
formatting or reading it.  A power grid's axes are formatted once per
distinct value (_axis_cells) and their text repeated over the grid's cells.
Every other float is formatted by the writer, which converts a CSV body in
one % pass over a row template per 2**16 rows.  A command sorts its rows
once with np.lexsort, names entering as code-point ranks: scan by
(p_adjusted, id), network by (p_adjusted, feature_a, feature_b), kappa-max
by (-kappa_max, id).  The CSV writer quotes each text cell holding a comma,
quote, CR or LF, doubling its quotes; any other cell, NUL included, is
written as it is, so the bytes do not depend on the Python version.  JSON
is strict: a number that is not finite after rounding is written as null.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import sys
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from qualint.inference import (
    _KAPPA_MAX_ALPHA,
    _SE_ROWS,
    LocalAlternative,
    PairBatch,
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
_BOOL_TEXT = ("false", "true")
# rows a CSV body formats in one % pass: a bound on the text held at once
_WRITE_ROWS = 2**16


class _G10(NamedTuple):
    """A float column rounded to 10 significant digits, formatted once: the
    floats its text reads back as, which decisions read, and the text the
    CSV writer writes."""

    values: np.ndarray
    text: list[str]


def _g10_text(values: np.ndarray) -> list[str]:
    """Each value's 10-digit text, formatted in one % pass."""
    return ("%.10g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _g10s(values: np.ndarray) -> _G10:
    """A column formatted in one pass and read back once, but for its values
    of exactly 1 (the clamp of p-values and kappa_max), which are "1" and 1.0.
    Text whose rounding passes the float range reads back as +-inf and is
    kept as that, so the CSV cell is the rounded value's own text."""
    rest = np.flatnonzero(values != 1.0)
    rest_text = _g10_text(values[rest])
    rounded = np.ones(len(values))
    rounded[rest] = np.fromiter(map(float, rest_text), float, len(rest))
    text = ["1"] * len(values)
    for i, cell in zip(rest.tolist(), rest_text):
        text[i] = cell
    for i in np.flatnonzero(np.isinf(rounded) & np.isfinite(values)).tolist():
        text[i] = "inf" if rounded[i] > 0.0 else "-inf"
    return _G10(rounded, text)


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


def _json_cells(column) -> list:
    """One table column as JSON values: a float becomes the float its 10-digit
    text reads back as (null if not finite); text and None stay as they are."""
    if isinstance(column, _G10):
        column = column.values
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    return list(map(_json_g10, values)) if column.dtype.kind == "f" else values


def _csv_cells(column) -> tuple[str, list | np.ndarray | None]:
    """One table column as CSV: its conversion in the row template and the
    values it converts.  Floats convert by %.10g, ints by %d; kept 10-digit
    text, true/false and CSV-quoted text enter as %s; a list of None is
    blank and converts nothing."""
    if isinstance(column, _G10):
        return "%s", column.text
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "b":
            return "%s", list(map(_BOOL_TEXT.__getitem__, column.tolist()))
        return ("%.10g" if kind == "f" else "%d"), column
    if column and column[0] is None:
        return "", None
    return "%s", _csv_text(column)


def _ordered(columns, order: np.ndarray) -> list:
    """Every column (array, kept text or list) in the given row order."""
    rows = order.tolist()
    ordered = []
    for column in columns:
        if isinstance(column, _G10):
            column = _G10(column.values[order], list(map(column.text.__getitem__, rows)))
        elif isinstance(column, np.ndarray):
            column = column[order]
        else:
            column = list(map(column.__getitem__, rows))
        ordered.append(column)
    return ordered


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
    """Columns (in fieldnames order) as CSV with an optional footer line, the
    body converted by one % pass over a row template per _WRITE_ROWS rows,
    or as JSON {"results": [...], "summary": ...}."""
    if fmt == "json":
        cells = map(_json_cells, columns)
        payload: dict = {"results": [dict(zip(fieldnames, row)) for row in zip(*cells)]}
        if summary is not None:
            payload["summary"] = summary
        _write_json(out, payload)
        return
    conversions, cells = zip(*map(_csv_cells, columns))
    cells = [column for column in cells if column is not None]
    width = len(cells)
    rows = len(cells[0]) if cells else len(columns[0])
    template = ",".join(conversions) + "\n"
    out.write(",".join(_csv_text(list(fieldnames))) + "\n")
    for start in range(0, rows, _WRITE_ROWS):
        stop = min(start + _WRITE_ROWS, rows)
        flat = [None] * ((stop - start) * width)  # cell c of row r at r * width + c
        for c, column in enumerate(cells):
            part = column[start:stop]
            flat[c::width] = part.tolist() if isinstance(part, np.ndarray) else part
        out.write(template * (stop - start) % tuple(flat))
    if footer is not None:
        out.write(footer + "\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _bonferroni(p_raw: _G10, adjust: str) -> _G10:
    """Adjusted p-values from the serialized raw ones; m counts the tested rows.
    fmin keeps the rule of min(1.0, m * p), which adjusts a NaN to 1."""
    if adjust == "none":
        return p_raw
    return _g10s(np.fmin(1.0, len(p_raw.values) * p_raw.values))


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    """The file's text; a file that cannot be opened or read is a usage
    error, and so is one that is not UTF-8, named by its path."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_csv(path: str, read_header: Callable[[list[str] | None], object], first: int,
              exact: bool) -> tuple:
    """(read_header(header record), the first cells, stripped, of the records
    that convert (None if first is 0), their cells from first to the header's
    width as float columns, their lines, and the other records' problems as
    (line, text)), by the read rule.  read_header gets None for a file without records and runs
    before any later record is read, so its error comes before a csv error
    further down.  Lines end at CR, LF and CRLF only, never where
    str.splitlines also splits.  A blank line is skipped, unless exact.  A
    csv.reader error, such as a cell past the field limit or NUL before
    Python 3.11, is a usage error.
    """
    text = _read_text(path)
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    if not lines[-1]:  # the last line's terminator, or an empty file
        lines.pop()
    long_line = max(map(len, lines), default=0) > csv.field_size_limit()
    if '"' in text or "\x00" in text or long_line:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            record = next(reader, None)
            header = read_header(record)
            records, line_nos = [], []
            for row in reader:
                records.append(row)
                line_nos.append(reader.line_num)
        except csv.Error as exc:
            raise UsageError(f"{path}:{reader.line_num}: {exc}") from None
    else:
        record = lines[0].split(",") if lines else None
        header = read_header(record)
        body, line_nos = lines[1:], range(2, len(lines) + 1)
        columns = _loadtxt_columns(text, body, range(first, len(record)), exact)
        if columns is not None:
            ids = [line.partition(",")[0].strip() for line in body] if first else None
            return header, ids, columns, line_nos, []
        records = [line.split(",") if line else [] for line in body]
    if not exact and [] in records:  # a blank line is skipped
        kept = [i for i, row in enumerate(records) if row]
        records, line_nos = [records[i] for i in kept], [line_nos[i] for i in kept]
    columns, rows, line_nos, problems = _value_columns(
        records, line_nos, range(first, len(record)), exact)
    return header, [row[0].strip() for row in rows] if first else None, columns, line_nos, problems


def _loadtxt_columns(text: str, body: list[str], values: range, exact: bool):
    """Cells `values` of the lines as float columns, read by one np.loadtxt
    call, or None where it might read otherwise than float(): text not ASCII
    or holding \\x1c-\\x1f (whitespace to loadtxt only), no line or a blank
    one (loadtxt skips it), a cell it refuses, or not one row per line of
    the values' width (if exact, a line of any other width)."""
    if (not body or "" in body or not text.isascii()
            or any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))):
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2,
                          usecols=None if exact else values)
    except ValueError:
        return None
    return data.T if data.shape == (len(body), len(values)) else None


def _value_columns(rows: list, lines, values: range, exact: bool) -> tuple:
    """(cells `values` of the records as float columns, the records that
    convert, their lines, the others' problems as (line, text)).  The
    columns go through float() in one pass; a failure reads row by row to
    word each bad row: too few cells for values.stop (if exact, not exactly
    that many), or the message float() gives for its first bad cell."""
    width = values.stop

    def misfit(cells: int) -> bool:
        return cells < width or exact and cells > width

    try:
        if any(map(misfit, set(map(len, rows)))):
            raise ValueError
        size = len(values) * len(rows)
        if exact and not values.start:  # the records are the value rows: one run
            data = np.fromiter(map(float, chain.from_iterable(rows)), float, size)
            return data.reshape(len(rows), len(values)).T, rows, lines, []
        cells = chain.from_iterable(map(itemgetter(c), rows) for c in values)
        columns = np.fromiter(map(float, cells), float, size)
        return columns.reshape(len(values), len(rows)), rows, lines, []
    except ValueError:
        pass
    kept, kept_lines, problems = [], [], []
    for line_no, row in zip(lines, rows):
        try:
            if misfit(len(row)):
                raise ValueError(f"expected {width} cells, got {len(row)}")
            list(map(float, row[values.start : width]))
        except ValueError as exc:
            problems.append((line_no, str(exc)))
            continue
        kept.append(row)
        kept_lines.append(line_no)
    return (*_value_columns(kept, kept_lines, values, exact)[:3], problems)


def _read_pairs(path: str, strict: bool) -> tuple[list[str], PairBatch]:
    """The ids and the batch of the valid rows of a pair CSV, in file order.

    A row is invalid when a cell does not parse, its id is empty, a value
    breaks the core's input rule, or its id repeats that of an earlier
    valid row.  Invalid rows are skipped with one warning each, in line
    order; in strict mode they fail the run, every bad line listed.
    """

    def check_header(record):
        header = tuple(record or ())
        if header != _PAIR_FIELDS:
            raise UsageError(
                f"{path}: expected header {','.join(_PAIR_FIELDS)}, "
                f"got {','.join(header) if header else '(none)'}"
            )

    _, ids, columns, lines, problems = _read_csv(path, check_header, 1, exact=False)
    bad = ~_valid(columns, _SE_ROWS)
    invalid = bad.any(axis=0)
    if "" in ids:
        invalid |= np.array(ids) == ""
    for i in np.flatnonzero(invalid).tolist():
        if not ids[i]:  # an empty id comes before its values
            problems.append((lines[i], "id must be nonempty"))
            continue
        c = int(np.argmax(bad[:, i]))  # the first bad value names the problem
        text = _rule_violation(_PAIR_FIELDS[1 + c], columns[c, i], _SE_ROWS[c, 0])
        problems.append((lines[i], text))
    keep = np.flatnonzero(~invalid).tolist()
    if len(set(map(ids.__getitem__, keep))) < len(keep):  # an id repeats: its first row keeps it
        seen: set[str] = set()
        unique = []
        for i in keep:
            if ids[i] in seen:
                problems.append((lines[i], f"duplicate id {ids[i]!r}"))
            else:
                seen.add(ids[i])
                unique.append(i)
        keep = unique

    if problems:
        problems.sort(key=lambda problem: problem[0])
        listed = [f"{path}:{line_no}: {text}" for line_no, text in problems]
        if strict:
            raise UsageError("invalid rows:\n  " + "\n  ".join(listed))
        for problem in listed:
            _warn(f"skipping {problem}")
    return list(map(ids.__getitem__, keep)), PairBatch(*columns[:, keep])


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _flag_pair(args) -> PairBatch:
    """The one-row batch of --est1/--se1/--est2/--se2; the first value that
    breaks the core's input rule is named by its flag."""
    values = [getattr(args, field) for field in _PAIR_FIELDS[1:]]
    bad = ~_valid(values, _SE_ROWS[:, 0])
    if bad.any():
        c = int(np.argmax(bad))
        raise UsageError(_rule_violation(f"--{_PAIR_FIELDS[1 + c]}", values[c], _SE_ROWS[c, 0]))
    return PairBatch.from_rows([values])


def _run_pair_test(batch: PairBatch, kind: str, kappa: float, alpha: float):
    if kind == "rd":
        return rd_test(batch, kappa, alpha)
    if kind == "omnibus":
        return omnibus_test(batch, kappa, alpha)
    return gail_simon_test(batch, alpha)


def _cmd_test(args) -> int:
    result = _run_pair_test(_flag_pair(args), args.kind, args.kappa, args.alpha)[0]
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
    rejected = p_adjusted.values < args.alpha
    columns = (ids, outcome.statistic, p_raw, p_adjusted, bounds, rejected)
    columns = _ordered(columns, np.lexsort((_ranks(ids), p_adjusted.values)))
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

    def read_header(record):
        if record is None:
            raise UsageError(f"{path}: empty file")
        header = tuple(name.strip() for name in record)
        if len(header) < 2 or any(not name for name in header):
            raise UsageError(f"{path}: need at least two named feature columns")
        if len(set(header)) != len(header):
            raise UsageError(f"{path}: duplicate feature names")
        return header

    header, _, columns, lines, problems = _read_csv(path, read_header, 0, exact=True)
    if problems:  # the first bad row fails the run
        raise UsageError(f"{path}:{problems[0][0]}: {problems[0][1]}")
    if columns.shape[1] < 3:
        raise UsageError(f"{path}: need at least 3 sample rows, got {columns.shape[1]}")
    data = columns.T
    bad = ~np.isfinite(data)
    if bad.any():  # the first in line order, then feature order
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        problem = _rule_violation(header[j], data[i, j], se=False)
        raise UsageError(f"{path}:{lines[i]}: {problem}")
    return header, data


def _cmd_network(args) -> int:
    from qualint.estimators import FeatureMatrix, pearson

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
    rejected = int(np.count_nonzero(p_adjusted.values < args.alpha))
    # the group with the larger |r|; 0 on an exact tie
    stronger = np.select([np.abs(r1) > np.abs(r2), np.abs(r2) > np.abs(r1)], [1, 2], 0)
    ranks = _ranks(features)
    a, b = first[kept], second[kept]
    order = np.lexsort((ranks[b], ranks[a], p_adjusted.values))
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


def _grid_axis(name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    """--NAME-min .. --NAME-max in --NAME-steps points.  np.linspace forms
    hi - lo, so that span must be a finite float."""
    if not math.isfinite(hi - lo):
        raise UsageError(f"--{name}-min and --{name}-max must be finite and less than the "
                         f"float range apart, got {lo!r} and {hi!r}")
    return np.linspace(lo, hi, steps)


def _axis_cells(grid: np.ndarray, repeat: int, tile: int) -> _G10:
    """An axis as a table column: each value repeated, the whole tiled, and
    each distinct value formatted once.  Not _g10s: text that reads back as
    +-inf stays the rounded value's digits, as the writer would print them."""
    text = _g10_text(grid)
    values = np.fromiter(map(float, text), float, len(text))
    return _G10(np.tile(np.repeat(values, repeat), tile),
                [cell for cell in text for _ in range(repeat)] * tile)


def _cmd_power(args) -> int:
    if args.c1_steps < 1 or args.c2_steps < 1:
        raise UsageError("power grids need at least one step per axis")
    c1_grid = _grid_axis("c1", args.c1_min, args.c1_max, args.c1_steps)
    c2_grid = _grid_axis("c2", args.c2_min, args.c2_max, args.c2_steps)
    power_fn = rd_local_power if args.kind == "rd" else omnibus_local_power
    # every (c1, c2) cell, c1 varying slowest
    c1 = np.repeat(c1_grid, c2_grid.size)
    c2 = np.tile(c2_grid, c1_grid.size)
    alt = LocalAlternative(c1, c2, args.sigma1, args.sigma2, args.lam)
    powers = power_fn(alt, args.kappa, args.alpha)
    columns = (_axis_cells(c1_grid, c2_grid.size, 1), _axis_cells(c2_grid, 1, c1_grid.size),
               powers)
    with _output(args.output) as out:
        _write_table(out, args.format, ("c1", "c2", "power"), columns)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _theta2_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, ..., hi, its arguments checked before any point is built."""
    from qualint.simulation import _STREAM_INDEX_LIMIT

    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise UsageError("--theta2-min, --theta2-max and --theta2-step must be finite")
    if step <= 0 or hi < lo:
        raise UsageError("need --theta2-max >= --theta2-min and --theta2-step > 0")
    # (hi - lo) / step is inf past the float range
    count = round(min((hi - lo) / step, _STREAM_INDEX_LIMIT)) + 1
    if count >= _STREAM_INDEX_LIMIT:
        raise UsageError("the theta2 grid from --theta2-min to --theta2-max by --theta2-step "
                         "must hold fewer than 2**32 points")
    grid = tuple(round(lo + k * step, 10) for k in range(count))
    if len(set(grid)) < count:  # a step under the rounding, or under lo's precision
        raise UsageError("--theta2-step is too small: theta2 grid points repeat at 10 decimals")
    return grid


def _cmd_simulate(args) -> int:
    from qualint.simulation import SimulationConfig, run_rejection_study

    grid = _theta2_grid(args.theta2_min, args.theta2_max, args.theta2_step)
    prefix = args.output or "study"
    tables = []  # (path, fieldnames, columns) of every study, written once all have run
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
        for theta2, drop in result.dropped.items():
            _warn(f"n={n}, theta2={theta2:.10g}: {drop} of {args.reps} replicates dropped "
                  "(degenerate estimation)")
        cells = result.rates
        rates = [
            np.array([cell.theta2 for cell in cells]),
            np.array([cell.kappa for cell in cells]),
            [cell.test for cell in cells],
            np.array([cell.rejection_rate for cell in cells]),
            np.array([cell.mc_std_error for cell in cells]),
        ]
        tables.append((f"{prefix}_n{n}_rates.csv",
                       ("theta2", "kappa", "test", "rejection_rate", "mc_se"), rates))
        if result.kappa_max_quantiles:
            quantiles = result.kappa_max_quantiles
            levels = next(iter(quantiles.values()))
            values = np.array([(theta2, *qs.values()) for theta2, qs in quantiles.items()]).T
            tables.append((f"{prefix}_n{n}_kappa_max.csv",
                           ("theta2", *(f"q{100 * q:.0f}" for q in levels)), values))
    for path, fieldnames, columns in tables:
        with _output(path) as out:
            _write_table(out, "csv", fieldnames, columns)
    config_path = f"{prefix}_config.json"
    with _output(config_path) as out:
        _write_json(out, {**vars(config), "n": list(args.n)})
    for path, *_ in tables:
        print(path)
    print(config_path)
    return 0


# ---------------------------------------------------------------------------
# kappa-max
# ---------------------------------------------------------------------------


def _context_p_values(batch: PairBatch, alpha: float) -> dict[str, _G10]:
    """Every row's rd p-value at each context kappa, keyed by the kappa as printed."""
    return {f"{k:.10g}": _g10s(rd_test(batch, k, alpha).p_value) for k in _CONTEXT_KAPPAS}


def _cmd_kappa_max(args) -> int:
    if args.input is None:
        if None in (args.est1, args.se1, args.est2, args.se2):
            raise UsageError(
                "kappa-max needs either an input CSV or all of "
                "--est1/--se1/--est2/--se2"
            )
        batch = _flag_pair(args)
        summary = kappa_max(batch, args.alpha)[0]
        context = _context_p_values(batch, args.alpha)
        payload = {
            "kappa_max": _json_g10(summary.kappa_max),
            "alpha": _json_g10(args.alpha),
            "binding_root": summary.binding_root,
            "p_values": {k: _json_g10(p.values[0]) for k, p in context.items()},
        }
        with _output(args.output) as out:
            _write_json(out, payload)
        return 0

    ids, batch = _read_pairs(args.input, args.strict)
    summaries = kappa_max(batch, args.alpha)
    context = _context_p_values(batch, args.alpha)
    bounds = _g10s(summaries.kappa_max)
    columns = (ids, bounds, summaries.binding_root.tolist(), *context.values())
    columns = _ordered(columns, np.lexsort((_ranks(ids), -bounds.values)))
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
    "--adjust": {"choices": ("bonferroni", "none"), "default": "bonferroni"},
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
    for field in _PAIR_FIELDS[1:]:
        p_test.add_argument(f"--{field}", type=float, required=True)

    p_scan = command(
        "scan", _cmd_scan, "scan a CSV of estimate pairs",
        "--alpha", "--kappa", "--output", "--format", "--strict", "--adjust",
    )
    p_scan.add_argument("input", help="CSV with header id,est1,se1,est2,se2")
    p_scan.add_argument("--kind", choices=("rd", "omnibus", "gs"), default="rd")

    p_net = command(
        "network", _cmd_network, "differential-correlation edge scan",
        "--alpha", "--kappa", "--output", "--format", "--adjust",
    )
    p_net.add_argument("matrix1", help="group-1 matrix CSV (features in header)")
    p_net.add_argument("matrix2", help="group-2 matrix CSV (same features)")

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
    for field in _PAIR_FIELDS[1:]:
        p_km.add_argument(f"--{field}", type=float)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.handler(args)
    except ArithmeticError as exc:  # a kernel's domain error included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError and EstimationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's allocation failure included
        print(f"memory failure: {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
