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
CSV is comma-separated UTF-8 (a leading BOM dropped) with a mandatory header
row, its names stripped; a file that is not UTF-8 is a usage error naming it.

Read rule.  A reader reads its file as one string, splits it once into lines
at CR, LF and CRLF only, each keeping its terminator (as open(newline="")
does), and drops the string.  One csv.reader reads their records, the header
first.  Where the string was plain (ASCII without a quote, NUL, \\v, \\f or
\\x1c-\\x1f), no line is blank or past csv's field limit and each holds one
row of the header's width, one np.loadtxt call reads the value cells of the
lines after it (_loadtxt_columns).  Otherwise the records stream through one
float() pass (_value_columns) that keeps each good row's id, floats and line
and words each bad row: too few cells, not exactly the header's width (a
matrix), or what float() says.  Blank pair lines are skipped; the pair
reader skips or lists bad rows; a bad matrix row fails.

Format-once rule.  Tables move as columns, and each number crosses to text
once, by one rule: a CSV cell is the %.10g text of the value computed, and
JSON and every decision (Bonferroni adjustment, rejection flags, sort order)
read the float that text reads back as (JSON: null where not finite), so
re-parsing our own output reproduces them exactly.  A decision column is its
raw floats; _g10 gives the floats their text reads back as, by arithmetic
where a power of ten is exact and by one %/float() pass for the rest.  A
power grid's CSV axes are formatted once per distinct value (_axis_cells),
their text repeated over the grid by np.repeat and np.tile; a bool column is
one lookup of true/false.  A command computes its row order once with
np.lexsort, names entering as code-point ranks: scan by (p_adjusted, id),
network by (p_adjusted, feature_a, feature_b), kappa-max by (-kappa_max,
id).  One writer serves CSV and JSON: per 2**16 rows it gathers the rows
from the unsorted columns in that order and converts them in one % pass
over a row template, formatting every float there.  The CSV writer quotes
each text cell holding a comma, quote, CR or LF, doubling its quotes; any
other cell, NUL included, is written as it is, so the bytes do not depend
on the Python version.  JSON has the bytes of json.dump(indent=2,
sort_keys=True) and is strict.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import re
import sys
from array import array
from json.encoder import encode_basestring_ascii
from typing import Callable

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
_BOOL_TEXT = np.array(("false", "true"), dtype=object)
# rows a CSV body formats in one % pass: a bound on the text held at once
_WRITE_ROWS = 2**16


# 10**j, exact in a double for j <= 22 (5**22 < 2**53); numpy's power may round
_POW10 = np.array([float(10**j) for j in range(23)])
_POW10.setflags(write=False)


def _g10(values: np.ndarray) -> np.ndarray:
    """float("%.10g" % v) for each value v, +-inf past the range.  With
    k = floor(log10|v|) - 9, M = rint(|v| * 10**-k) holds the 10 digits, and
    M * 10**k, one correctly rounded operation where 10**|k| is exact
    (Clinger's fast path), is the float their text reads back as.  Zero,
    +-inf, NaN, |k| > 22 and a |v| * 10**-k within its rounding error of a
    digit tie take one % pass and float()."""
    magnitude = np.abs(values)
    with np.errstate(all="ignore"):  # where 0, inf or NaN, the fallback's value is taken
        k = np.floor(np.log10(magnitude)) - 9.0
        fast = np.abs(k) <= 22.0  # so v is finite, nonzero and normal
        k = np.where(fast, k, 0.0).astype(np.intp)
        power, up = _POW10[np.abs(k)], k > 0
        scaled = np.where(up, magnitude / power, magnitude * power)  # within 2**-20 of exact
        digits = np.rint(scaled)
        fast &= (scaled >= 1e9) & (scaled < 1e10) & (np.abs(scaled - digits) < 0.5 - 2.0**-19)
        rounded = np.copysign(np.where(up, digits * power, digits / power), values)
    rest = np.flatnonzero(~fast)
    if len(rest):
        text = "%.10g " * len(rest) % tuple(values[rest].tolist())
        rounded[rest] = np.fromiter(map(float, text.split()), float, len(rest))
    return rounded


def _json_floats(rounded: np.ndarray, null="null") -> list:
    """Rounded floats as JSON cells, null where not finite (strict JSON)."""
    cells = rounded.tolist()
    for i in np.flatnonzero(~np.isfinite(rounded)).tolist():
        cells[i] = null
    return cells


def _json_g10(value: float) -> float | None:
    """A number rounded to 10 digits as a JSON value, None where not finite."""
    return _json_floats(_g10(np.array([value])), None)[0]


def _csv_text(cells: list[str] | np.ndarray) -> list[str] | np.ndarray:
    """Text cells, a list or an array of str objects, as CSV: each cell holding
    a special is quoted.  An array is joined through tolist(), a C loop."""
    joined = "".join(cells.tolist() if isinstance(cells, np.ndarray) else cells)
    if not any(map(joined.__contains__, ',"\r\n')):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"' if _CSV_SPECIALS.search(cell) else cell
        for cell in cells
    ]


def _gather(values) -> Callable[[np.ndarray], list]:
    """A chunk's cells: the values at its rows."""
    if isinstance(values, np.ndarray):
        return lambda rows: values[rows].tolist()
    return lambda rows: list(map(values.__getitem__, rows.tolist()))


def _table_cells(column, fmt: str) -> tuple[str, Callable[[np.ndarray], list] | None]:
    """One table column: its conversion in the row template and a chunk's
    cells.  Ints enter by %d, true/false by %s; a CSV float by %.10g, a
    JSON float by %s as its 10-digit float or null; text by %s, CSV-quoted
    or JSON-escaped; None as blank/null."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "b":
        return "%s", _gather(_BOOL_TEXT.take(column))
    if kind == "f":
        if fmt == "json":
            return "%s", lambda rows: _json_floats(_g10(column[rows]))
        return "%.10g", _gather(column)
    if kind != "O":
        return "%d", _gather(column)
    if len(column) and column[0] is None:
        return ("null" if fmt == "json" else ""), None
    if fmt == "json":
        text = _gather(column)
        return "%s", lambda rows: list(map(encode_basestring_ascii, text(rows)))
    return "%s", _gather(_csv_text(column))


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


def _write_table(out, fmt: str, fieldnames, columns, order: np.ndarray | None = None,
                 summary: dict | None = None, footer: str | None = None) -> None:
    """Columns (in fieldnames order), their rows in the given order or as
    they are, in one % pass over a row template per _WRITE_ROWS rows: CSV
    with an optional footer line, or JSON {"results": [...], "summary": ...}
    as json.dump(indent=2, sort_keys=True) writes it (a name's last column)."""
    if order is None:
        order = np.arange(len(columns[0]))
    conversions, cells = zip(*(_table_cells(column, fmt) for column in columns))
    if fmt == "json":
        keys = sorted({name: c for c, name in enumerate(fieldnames)}.items())
        fields = [f"      {encode_basestring_ascii(name).replace('%', '%%')}: {conversions[c]}"
                  for name, c in keys]
        template = "    {\n" + ",\n".join(fields) + "\n    },\n"
        cells = [cells[c] for _, c in keys]
        payload = {"results": []} if summary is None else {"results": [], "summary": summary}
        frame = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        head, tail = frame.split("[]", 1)  # "results" is the first key
        head, tail = (head + "[\n", "\n  ]" + tail) if len(order) else (frame, "")
    else:
        template = ",".join(conversions) + "\n"
        head = ",".join(_csv_text(list(fieldnames))) + "\n"
        tail = "" if footer is None else footer + "\n"
    cells = [column for column in cells if column is not None]
    width = len(cells)
    out.write(head)
    for start in range(0, len(order), _WRITE_ROWS):
        rows = order[start : start + _WRITE_ROWS]
        flat = [None] * (len(rows) * width)  # cell c of row r at r * width + c
        for c, column in enumerate(cells):
            flat[c::width] = column(rows)
        # JSON rows are separated by ",\n", which the last row drops
        end = -2 if fmt == "json" and start + _WRITE_ROWS >= len(order) else None
        out.write((template * len(rows))[:end] % tuple(flat))
    out.write(tail)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _bonferroni(p_raw: np.ndarray, adjust: str) -> np.ndarray:
    """Adjusted p-values from the serialized raw ones; m counts the tested rows.
    fmin keeps the rule of min(1.0, m * p), which adjusts a NaN to 1."""
    if adjust == "none":
        return p_raw
    return np.fmin(1.0, len(p_raw) * _g10(p_raw))


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

_ODD_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines also splits at these
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")  # splits at CR, LF, CRLF only; 4x slower


def _read_text(path: str) -> str:
    """The file's text, a leading byte order mark dropped; a file that cannot
    be opened or read, or is not UTF-8, is a usage error naming its path."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # placed from the first byte: the codec cut the BOM
        at = len(data) - len(exc.object)
        exc = UnicodeDecodeError(exc.encoding, data, exc.start + at, exc.end + at, exc.reason)
        raise UsageError(f"{path}: {exc}") from None


def _read_csv(path: str, read_header: Callable[[tuple[str, ...] | None], object],
              first: int) -> tuple:
    """read_header(stripped header names), then _value_columns' results for
    cells first to the header's width, by the read rule (module docstring).
    read_header gets None for a file without records, and its error comes
    before a csv error further down.  A csv.reader error, such as a cell
    past the field limit or NUL before Python 3.11, is a usage error."""
    text = _read_text(path)
    # plain (read rule); \x1c-\x1f are whitespace to np.loadtxt, not to float()
    plain = text.isascii() and not any(map(text.__contains__, '"\x00\v\f\x1c\x1d\x1e\x1f'))
    odd = not plain and any(map(text.__contains__, _ODD_BREAKS))
    lines = _LINE.findall(text) if odd else text.splitlines(True)
    del text  # the records come from the lines alone
    reader = csv.reader(lines)
    try:
        record = next(reader, None)
        header = read_header(record and tuple(name.strip() for name in record))
        values = range(first, len(record))
        columns = _loadtxt_columns(lines[1:], values) if plain else None
        if columns is not None:
            ids = [line.partition(",")[0].strip() for line in lines[1:]]
            return header, ids, columns, range(2, len(lines) + 1), []
        return (header, *_value_columns(reader, values))
    except csv.Error as exc:
        raise UsageError(f"{path}:{reader.line_num}: {exc}") from None


def _loadtxt_columns(body: list[str], values: range):
    """Cells `values` of plain lines (_read_csv) as float columns, read by one
    np.loadtxt call, or None where it might read otherwise than csv.reader
    and float(): no line, a blank one (loadtxt skips it), one past csv's field
    limit (csv.reader may refuse it), a refused cell, or a row of another width."""
    lengths = set(map(len, body))  # a blank line ("\n", "\r\n" or "\r") is shorter than a row
    if min(lengths, default=0) < 3 or max(lengths) > csv.field_size_limit():
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2,
                          usecols=values if values.start else None)
    except ValueError:
        return None
    return data.T if data.shape == (len(body), len(values)) else None


def _value_columns(reader, values: range) -> tuple:
    """(the first cell, stripped, of each record that converts, their cells
    `values` as float columns, their lines, the others' problems as (line,
    text)), in one float() pass over the reader's records, keeping only
    those.  A pair record of no cells is skipped.  A bad record is worded:
    too few cells for values.stop (a matrix, whose values start at cell 0:
    not exactly that many), or the message float() gives for its first bad cell."""
    width, matrix = values.stop, not values.start
    ids, cells, lines, problems = [], array("d"), array("q"), []
    for row in reader:
        if not (row or matrix):
            continue
        try:
            if len(row) < width or matrix and len(row) > width:
                raise ValueError(f"expected {width} cells, got {len(row)}")
            cells.fromlist([*map(float, row[values.start : width])])  # whole before cells grows
        except ValueError as exc:
            problems.append((reader.line_num, str(exc)))
            continue
        ids.append(row[0].strip())
        lines.append(reader.line_num)
    return ids, np.frombuffer(cells).reshape(len(lines), len(values)).T, lines, problems


def _read_pairs(path: str, strict: bool) -> tuple[list[str], PairBatch]:
    """The ids and the batch of the valid rows of a pair CSV, in file order.

    A row is invalid when a cell does not parse, its id is empty, a value
    breaks the core's input rule, or its id repeats that of an earlier
    valid row.  Invalid rows are skipped with one warning each, in line
    order; in strict mode they fail the run, every bad line listed.
    """

    def check_header(header):
        if header != _PAIR_FIELDS:
            raise UsageError(
                f"{path}: expected header {','.join(_PAIR_FIELDS)}, "
                f"got {','.join(header) if header else '(none)'}"
            )

    _, ids, columns, lines, problems = _read_csv(path, check_header, 1)
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
    return ids, PairBatch(*columns)


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
    if kind == "gs":
        return gail_simon_test(batch, alpha)
    return (rd_test if kind == "rd" else omnibus_test)(batch, kappa, alpha)


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
    p_adjusted = _bonferroni(outcome.p_value, args.adjust)
    bounds = kappa_max(batch, args.alpha).kappa_max if args.kind == "rd" else [None] * len(ids)
    decided = _g10(p_adjusted)
    columns = (ids, outcome.statistic, outcome.p_value, p_adjusted, bounds, decided < args.alpha)
    order = np.lexsort((_ranks(ids), decided))
    fieldnames = ("id", "statistic", "p_raw", "p_adjusted", "kappa_max", "rejected")
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, columns, order, summary={"tested": len(ids)})
    return 0


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def _read_matrix(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The feature names and the sample-by-feature values of a matrix CSV.
    Every row must hold one finite value per feature."""

    def read_header(header):
        if header is None:
            raise UsageError(f"{path}: empty file")
        if len(header) < 2 or any(not name for name in header):
            raise UsageError(f"{path}: need at least two named feature columns")
        if len(set(header)) != len(header):
            raise UsageError(f"{path}: duplicate feature names")
        return header

    header, _, columns, lines, problems = _read_csv(path, read_header, 0)
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
        raise UsageError("feature columns differ between matrices "
                         f"({args.matrix1} vs {args.matrix2})")
    matrix = FeatureMatrix(data1)  # group 2's matrix, and its pairs, go once fitted
    fit1, fit2 = pearson(matrix), pearson(FeatureMatrix(data2))
    first, second = matrix.pairs()
    ok1 = fit1.ok
    kept = ok1 & fit2.ok
    # per-pair order: group 1 is checked before group 2
    for k in np.flatnonzero(~kept).tolist():
        names = (features[first[k]], features[second[k]])
        reason = (fit1 if not ok1[k] else fit2).reason(k, names)
        _warn(f"skipping pair ({names[0]}, {names[1]}): {reason}")
    skipped = len(matrix) - int(kept.sum())

    r1, r2 = fit1.estimate[kept], fit2.estimate[kept]
    outcome = rd_test(PairBatch(r1, fit1.std_error[kept], r2, fit2.std_error[kept]),
                      args.kappa, args.alpha)  # the batch's standard errors go once tested
    p_adjusted = _bonferroni(outcome.p_value, args.adjust)
    decided = _g10(p_adjusted)
    rejected = int(np.count_nonzero(decided < args.alpha))
    # the group with the larger |r|, 0 on an exact tie; no |r| is held through the write
    stronger = np.where(np.abs(r1) > np.abs(r2), 1, np.where(np.abs(r2) > np.abs(r1), 2, 0))
    ranks = _ranks(features)
    a, b = first[kept], second[kept]
    order = np.lexsort((ranks[b], ranks[a], decided))
    labels = np.array(features, dtype=object)  # gathered by numpy, here and in the writer
    edges = (labels[a], labels[b], r1, r2, outcome.statistic, outcome.p_value, p_adjusted,
             stronger)

    summary = {"features": len(features), "pairs": len(matrix), "tested": len(r1),
               "skipped": skipped, "rejected": rejected}
    fieldnames = ("feature_a", "feature_b", "r1", "r2", "statistic", "p_raw", "p_adjusted",
                  "stronger_group")
    footer = "# " + " ".join(f"{key}={value}" for key, value in summary.items())
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, edges, order, summary=summary, footer=footer)
    return 0


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


# the most (c1, c2) cells a power grid holds: an unbalanced rd grid's peak
# grows by about 1.53 KB a cell, so this bound is about 6.4 GB; a balanced
# grid evaluates each mirrored pair of cells once and needs about half
_POWER_CELLS_LIMIT = 2**22


def _grid_axis(name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    """--NAME-min .. --NAME-max in --NAME-steps points.  np.linspace forms
    hi - lo, so that span must be a finite float."""
    if not math.isfinite(hi - lo):
        raise UsageError(f"--{name}-min and --{name}-max must be finite and less than the "
                         f"float range apart, got {lo!r} and {hi!r}")
    return np.linspace(lo, hi, steps)


def _axis_cells(grid: np.ndarray, repeat: int, tile: int, fmt: str) -> np.ndarray:
    """An axis as a table column, each value repeated and the whole tiled: its
    floats, or in CSV its text, each distinct value formatted once."""
    if fmt == "csv":
        grid = np.array(("%.10g " * len(grid) % tuple(grid.tolist())).split(), dtype=object)
    return np.tile(np.repeat(grid, repeat), tile)


def _cmd_power(args) -> int:
    if args.c1_steps < 1 or args.c2_steps < 1:
        raise UsageError("power grids need at least one step per axis")
    if args.c1_steps * args.c2_steps > _POWER_CELLS_LIMIT:
        raise UsageError(f"--c1-steps and --c2-steps ask for {args.c1_steps} x {args.c2_steps} "
                         f"grid cells; a power grid holds at most {_POWER_CELLS_LIMIT} cells")
    c1_grid = _grid_axis("c1", args.c1_min, args.c1_max, args.c1_steps)
    c2_grid = _grid_axis("c2", args.c2_min, args.c2_max, args.c2_steps)
    power_fn = rd_local_power if args.kind == "rd" else omnibus_local_power
    # every (c1, c2) cell, c1 varying slowest
    alt = LocalAlternative(c1_grid[:, None], c2_grid, args.sigma1, args.sigma2, args.lam)
    powers = power_fn(alt, args.kappa, args.alpha).ravel()
    columns = (_axis_cells(c1_grid, c2_grid.size, 1, args.format),
               _axis_cells(c2_grid, 1, c1_grid.size, args.format), powers)
    with _output(args.output) as out:
        _write_table(out, args.format, ("c1", "c2", "power"), columns)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _theta2_grid(lo: float, hi: float, step: float, reps: int) -> tuple[float, ...]:
    """lo, lo + step, ... up to hi, its arguments checked before any point is
    built: the grid of a study of reps replicates a point."""
    from qualint.simulation import _STREAM_INDEX_LIMIT, _STUDY_REPLICATES_LIMIT

    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise UsageError("--theta2-min, --theta2-max and --theta2-step must be finite")
    if step <= 0 or hi < lo:
        raise UsageError("need --theta2-max >= --theta2-min and --theta2-step > 0")
    # up to the last point not past hi at 10 decimals, which keeps a quotient an
    # ulp short of an integer; formed on halves, which stay in the float range
    # and, doubled, give (hi - lo) / step and lo + k * step in the normal range
    half_lo, half_step = lo / 2, step / 2
    count = math.floor(min((hi / 2 - half_lo) / step * 2, _STREAM_INDEX_LIMIT)) + 1
    count += round(2 * (half_lo + count * half_step), 10) <= hi
    if count >= _STREAM_INDEX_LIMIT:
        raise UsageError("the theta2 grid from --theta2-min to --theta2-max by --theta2-step "
                         "must hold fewer than 2**32 points")
    if count * max(reps, 1) > _STUDY_REPLICATES_LIMIT:
        raise UsageError(f"--theta2-step and --reps ask for {count} theta2 grid points x "
                         f"{reps} replicates; a study holds at most "
                         f"{_STUDY_REPLICATES_LIMIT} replicates")
    grid = tuple(round(2 * (half_lo + k * half_step), 10) for k in range(count))
    if len(set(grid)) < count:  # a step under the rounding, or under lo's precision
        raise UsageError("--theta2-step is too small: theta2 grid points repeat at 10 decimals")
    return grid


def _cmd_simulate(args) -> int:
    from qualint.simulation import SimulationConfig, run_rejection_study

    grid = _theta2_grid(args.theta2_min, args.theta2_max, args.theta2_step, args.reps)
    prefix = args.output or "study"
    files = []  # (path, write, *args) of every study, written once all have run
    for n in dict.fromkeys(args.n):  # a repeated n runs once
        config = SimulationConfig(theta1=args.theta1, theta2_grid=grid, n=n, replications=args.reps,
                                  kappas=tuple(args.kappas), alpha=args.alpha, seed=args.seed)
        result = run_rejection_study(config)
        for theta2, drop in result.dropped.items():
            _warn(f"n={n}, theta2={theta2:.10g}: {drop} of {args.reps} replicates dropped "
                  "(degenerate estimation)")
        rates = [result.rates[name] for name in
                 ("theta2", "kappa", "test", "rejection_rate", "mc_std_error")]
        files.append((f"{prefix}_n{n}_rates.csv", _write_table, "csv",
                      ("theta2", "kappa", "test", "rejection_rate", "mc_se"), rates))
        quantiles = result.kappa_max_quantiles
        if len(quantiles["theta2"]):
            files.append((f"{prefix}_n{n}_kappa_max.csv", _write_table, "csv",
                          tuple(quantiles), tuple(quantiles.values())))
    files.append((f"{prefix}_config.json", _write_json, {**vars(config), "n": list(args.n)}))
    _write_whole_set(files)
    for path, *_ in files:
        print(path)
    return 0


def _write_whole_set(files) -> None:
    """Call write(out, *args) for each (path, write, *args) of files on a
    temporary file beside path, and rename them all into place once every
    write is done: a failure leaves no temporary file, and no output of the
    set (only a failing rename, after every write, can leave part of it)."""
    temps = [f"{path}.{os.getpid()}-{i}.tmp" for i, (path, *_) in enumerate(files)]
    try:
        for temp, (path, write, *args) in zip(temps, files):
            try:
                out = open(temp, "w", encoding="utf-8", newline="")
            except OSError as exc:  # worded with the path asked for
                raise type(exc)(exc.errno, exc.strerror, path) from None
            with out:
                write(out, *args)
        for temp, (path, *_) in zip(temps, files):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


# ---------------------------------------------------------------------------
# kappa-max
# ---------------------------------------------------------------------------


def _context_p_values(batch: PairBatch, alpha: float) -> dict[str, np.ndarray]:
    """Every row's rd p-value at each context kappa, keyed by the kappa as
    printed: one rd_test of the rows per kappa."""
    return {f"{k:.10g}": rd_test(batch, k, alpha).p_value for k in _CONTEXT_KAPPAS}


def _cmd_kappa_max(args) -> int:
    flags = (args.est1, args.se1, args.est2, args.se2)
    if flags.count(None) != (0 if args.input is None else 4):  # the flags or the CSV
        raise UsageError("kappa-max needs either an input CSV or all of "
                         "--est1/--se1/--est2/--se2, not both")
    if args.input is None:
        batch = _flag_pair(args)
        summary = kappa_max(batch, args.alpha)[0]
        context = _context_p_values(batch, args.alpha)
        payload = {
            "kappa_max": _json_g10(summary.kappa_max),
            "alpha": _json_g10(args.alpha),
            "binding_root": summary.binding_root,
            "p_values": {k: _json_g10(p[0]) for k, p in context.items()},
        }
        with _output(args.output) as out:
            _write_json(out, payload)
        return 0

    ids, batch = _read_pairs(args.input, args.strict)
    summaries = kappa_max(batch, args.alpha)
    context = _context_p_values(batch, args.alpha)
    columns = (ids, summaries.kappa_max, summaries.binding_root, *context.values())
    order = np.lexsort((_ranks(ids), -_g10(summaries.kappa_max)))
    fieldnames = ("id", "kappa_max", "binding_root", *(f"p_rd_{k}" for k in context))
    with _output(args.output) as out:
        _write_table(out, args.format, fieldnames, columns, order)
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


# a value, not a flag: every negative number float() reads (argparse's own
# test takes -1e-3, -.5e1, -inf and -nan for flags)
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(rf"-(?:(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:e[-+]?{_DIGITS})?"
                              r"|inf(?:inity)?|nan)\Z", re.IGNORECASE)


@functools.cache  # built on first use and reused: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qualint",
        description="Tests and summaries for qualitative interactions "
        "between two sub-populations.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, *flags: str) -> argparse.ArgumentParser:
        # no abbreviations: simulate would take --kappa for --kappas
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
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
