"""End-to-end checks for the command-line interface.

Everything goes through ``qualint.cli.main`` with an argv list -- no
subprocesses -- so exit codes, stdout payloads, and emitted files can be
asserted directly.  The serialization contract under test: every numeric
column carries 10 significant digits, and re-parsing our own output
reproduces the adjustment and rejection decisions exactly.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from qualint import cli, inference
from qualint.cli import (
    UsageError,
    _build_parser,
    _g10s,
    _read_matrix,
    _read_pairs,
    _write_table,
    main,
)
from qualint.distributions import chi2_1_tail
from qualint.inference import PairBatch, _rule_violation, _valid

# Reference panel of two-group estimates with published ratio bounds; the
# same rows back the library-level checks in test_inference.py.
TABLE_ROWS = [
    ("GRB2", -0.06, 0.31, -1.66, 0.68, 2.04),
    ("APC", 1.34, 0.32, -0.09, 0.33, 1.91),
    ("BAX", -1.05, 0.24, 0.04, 0.36, 1.53),
    ("PIK3CA", 1.13, 0.28, 0.14, 0.32, 1.51),
    ("SOS2", 1.13, 0.36, -0.10, 0.37, 1.33),
    ("MAP2K2", -0.87, 0.27, 0.03, 0.35, 1.22),
    ("GADD45G", -0.52, 0.13, -0.07, 0.19, 1.21),
    ("HES5", 0.02, 0.20, 0.51, 0.18, 1.19),
    ("WNT2", -0.36, 0.09, 0.00, 0.17, 1.14),
    ("DLL4", 0.09, 0.20, 0.68, 0.27, 1.10),
    ("FRAT2", -1.22, 0.31, -0.45, 0.29, 1.08),
    ("SOS1", 1.19, 0.30, -0.34, 0.42, 1.01),
]


def write_pairs(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "est1", "se1", "est2", "se2"])
        for name, e1, s1, e2, s2, *_ in rows:
            writer.writerow([name, e1, s1, e2, s2])


def write_matrix(path, names, data):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.atleast_2d(data):
            writer.writerow([f"{v:.10g}" for v in row])


def parse_csv(text):
    body = [line for line in text.strip().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def strict_json(text):
    """Parse JSON the way strict parsers do: no Infinity, -Infinity or NaN."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def parse_footer(text):
    footers = [line for line in text.strip().splitlines() if line.startswith("#")]
    assert len(footers) == 1
    return {
        key: int(value)
        for key, value in (item.split("=") for item in footers[0][1:].split())
    }


# ---------------------------------------------------------------------------
# test subcommand
# ---------------------------------------------------------------------------


class TestTestCommand:
    def test_gs_underflowed_statistic_still_rejects(self, capsys):
        # the squared z of 1e-200 underflows to 0, that of 1e-150 does not
        decided = []
        for est1 in ("1e-200", "1e-150"):
            argv = ["test", "--kind", "gs", "--est1", est1, "--se1", "1", "--est2", "-1",
                    "--se2", "1", "--alpha", "0.6"]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            decided.append((payload["p_value"], payload["rejected"]))
        assert decided == [(0.5, True)] * 2

    def test_rd_json_payload(self, capsys):
        code = main(
            [
                "test",
                "--kind",
                "rd",
                "--est1",
                "1",
                "--se1",
                "0.2",
                "--est2",
                "0",
                "--se2",
                "0.2",
                "--kappa",
                "2",
                "--alpha",
                "0.05",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "rd"
        assert payload["statistic"] == pytest.approx(2.236067977, abs=1e-8)
        assert payload["p_value"] == pytest.approx(0.02534731868, abs=1e-9)
        assert set(payload["components"]) == {"normal_boundary", "zero_point"}
        assert payload["p_value"] == max(payload["components"].values())
        assert payload["rejected"] is True
        assert payload["kappa"] == 2.0

    def test_gs_json_payload(self, capsys):
        code = main(
            ["test", "--kind", "gs", "--est1", "1", "--se1", "0.5", "--est2", "-1", "--se2", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 4.0
        assert payload["p_value"] == pytest.approx(0.02275013195, abs=1e-9)
        assert payload["components"] == {"half_chi2": payload["p_value"]}
        assert "kappa" not in payload

    def test_gs_groups_on_scales_1e599_apart(self, capsys):
        # z1 = -0.1 and z2 = 1: a rescaling shared by both groups underflowed
        # group 1 to 0 / 0 and printed statistic 0, p 1
        code = main(["test", "--kind", "gs", "--est1=-1e-300", "--se1", "1e-299",
                     "--est2", "1e300", "--se2", "1e300"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 0.01
        assert payload["p_value"] == 0.4601721627  # Phi(-0.1)

    def test_missing_flag_is_usage_error(self, capsys):
        code = main(["test", "--kind", "rd", "--est1", "1", "--se1", "0.3", "--est2", "-1"])
        capsys.readouterr()
        assert code == 2

    def test_bad_se_is_usage_error(self, capsys):
        code = main(
            ["test", "--est1", "1", "--se1", "-0.3", "--est2", "-1", "--se2", "0.5"]
        )
        capsys.readouterr()
        assert code == 2

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "verdict.json"
        code = main(
            [
                "test",
                "--est1",
                "1",
                "--se1",
                "0.2",
                "--est2",
                "0",
                "--se2",
                "0.2",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["rejected"] is True


@pytest.mark.parametrize(
    "flag, value, rule",
    [("--est1", "nan", "finite"), ("--se1", "0", "finite and > 1e-300"),
     ("--est2", "inf", "finite"), ("--se2", "1e-310", "finite and > 1e-300"),
     # a value to the parser, not a flag
     ("--est1", "-nan", "finite"), ("--est2", "-inf", "finite"),
     ("--se1", "-1e-3", "finite and > 1e-300")],
    ids=["est1", "se1", "est2", "se2", "est1-negative-nan", "est2-negative-inf",
         "se1-negative-exponent"],
)
def test_bad_pair_flag_is_named_by_its_flag(capsys, flag, value, rule):
    # test and kappa-max build their one-row batch alike, so both name a
    # value that breaks the core's input rule by its flag
    flags = {"--est1": "1", "--se1": "0.3", "--est2": "-1", "--se2": "0.5", flag: value}
    argv = [cell for item in flags.items() for cell in item]
    expected = f"error: {flag} must be {rule}, got {float(value)!r}\n"
    for command in ("test", "kappa-max"):
        code = main([command, *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", expected)


# ---------------------------------------------------------------------------
# scan subcommand
# ---------------------------------------------------------------------------


class TestScanCommand:
    def scan(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_omnibus_underflowed_statistic_still_rejects(self, tmp_path, capsys):
        # at 2e-200 the statistic underflows to 0, at 2e-150 it does not;
        # the pair lies in the alternative region either way
        decided = []
        for exponent in ("200", "150"):
            pairs = tmp_path / f"pairs{exponent}.csv"
            pairs.write_text(f"id,est1,se1,est2,se2\na,2e-{exponent},1,-1e-{exponent},1\n")
            argv = ["scan", str(pairs), "--kind", "omnibus", "--kappa", "2", "--alpha", "0.9",
                    "--adjust", "none"]
            code, out, _ = self.scan(capsys, argv)
            assert code == 0
            (row,) = parse_csv(out)
            decided.append((row["p_raw"], row["rejected"]))
        assert decided == [("0.7951672353", "true")] * 2

    def test_reference_panel_ratio_bounds(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        code, out, _ = self.scan(
            capsys, ["scan", str(pairs), "--kappa", "1.5", "--alpha", "0.10"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == len(TABLE_ROWS)
        published = {name: bound for name, *_, bound in TABLE_ROWS}
        for row in rows:
            assert abs(float(row["kappa_max"]) - published[row["id"]]) <= 0.1

    def test_sorted_by_adjusted_p(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        code, out, _ = self.scan(capsys, ["scan", str(pairs), "--alpha", "0.10"])
        assert code == 0
        adjusted = [float(row["p_adjusted"]) for row in parse_csv(out)]
        assert adjusted == sorted(adjusted)

    def test_single_row_adjustment_is_identity(self, tmp_path, capsys):
        pairs = tmp_path / "one.csv"
        write_pairs(pairs, TABLE_ROWS[:1])
        code, out, _ = self.scan(capsys, ["scan", str(pairs)])
        assert code == 0
        (row,) = parse_csv(out)
        assert row["p_raw"] == row["p_adjusted"]

    def test_adjust_none_keeps_raw(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        code, out, _ = self.scan(capsys, ["scan", str(pairs), "--adjust", "none"])
        assert code == 0
        for row in parse_csv(out):
            assert row["p_raw"] == row["p_adjusted"]

    def test_round_trip_reproduces_adjustment(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        code, out, _ = self.scan(capsys, ["scan", str(pairs), "--alpha", "0.10"])
        assert code == 0
        rows = parse_csv(out)
        m = len(rows)
        for row in rows:
            replayed = float(f"{min(1.0, m * float(row['p_raw'])):.10g}")
            assert replayed == float(row["p_adjusted"])
            assert (float(row["p_adjusted"]) < 0.10) == (row["rejected"] == "true")

    def test_rejections_monotone_in_alpha(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        rejected = {}
        for alpha in ("0.05", "0.20"):
            code, out, _ = self.scan(
                capsys, ["scan", str(pairs), "--alpha", alpha, "--kappa", "1.1"]
            )
            assert code == 0
            rejected[alpha] = {
                row["id"] for row in parse_csv(out) if row["rejected"] == "true"
            }
        assert rejected["0.05"] <= rejected["0.20"]

    def test_omnibus_scan_leaves_kappa_max_blank(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS[:3])
        code, out, _ = self.scan(capsys, ["scan", str(pairs), "--kind", "omnibus"])
        assert code == 0
        for row in parse_csv(out):
            assert row["kappa_max"] == ""

    def test_empty_data_section(self, tmp_path, capsys):
        pairs = tmp_path / "empty.csv"
        write_pairs(pairs, [])
        code, out, _ = self.scan(capsys, ["scan", str(pairs)])
        assert code == 0
        assert out.strip() == "id,statistic,p_raw,p_adjusted,kappa_max,rejected"

    def test_lenient_skips_bad_rows_and_shrinks_m(self, tmp_path, capsys):
        pairs = tmp_path / "mixed.csv"
        rows = list(TABLE_ROWS[:2]) + [
            ("BROKEN", 1.0, -0.5, 2.0, 0.1),
            ("ZERO_SE", 1.0, 0.0, 2.0, 0.5),
            ("", 1.0, 0.5, 2.0, 0.5),
            ("NAN_EST", math.nan, 0.5, 2.0, 0.5),
        ]
        write_pairs(pairs, rows)
        code, out, err = self.scan(capsys, ["scan", str(pairs), "--alpha", "0.10"])
        assert code == 0
        assert err.splitlines() == [
            f"warning: skipping {pairs}:4: se1 must be finite and > 1e-300, got -0.5",
            f"warning: skipping {pairs}:5: se1 must be finite and > 1e-300, got 0.0",
            f"warning: skipping {pairs}:6: id must be nonempty",
            f"warning: skipping {pairs}:7: est1 must be finite, got nan",
        ]
        parsed = parse_csv(out)
        assert {row["id"] for row in parsed} == {"GRB2", "APC"}
        for row in parsed:  # m counts only the two rows actually tested
            expected = float(f"{min(1.0, 2 * float(row['p_raw'])):.10g}")
            assert float(row["p_adjusted"]) == expected

    def test_warnings_name_the_file_line_after_a_blank_line(self, tmp_path, capsys):
        pairs = tmp_path / "blank.csv"
        pairs.write_text(
            "id,est1,se1,est2,se2\n"
            "GRB2,-0.06,0.31,-1.66,0.68\n"
            "APC,1.34,0.32,-0.09,0.33\n"
            "\n"
            "NAN_EST,nan,0.5,2.0,0.5\n"
        )
        code, out, err = self.scan(capsys, ["scan", str(pairs), "--alpha", "0.10"])
        assert code == 0
        assert err.splitlines() == [
            f"warning: skipping {pairs}:5: est1 must be finite, got nan"
        ]
        assert {row["id"] for row in parse_csv(out)} == {"GRB2", "APC"}

    def test_strict_mode_rejects_bad_rows(self, tmp_path, capsys):
        pairs = tmp_path / "mixed.csv"
        write_pairs(pairs, list(TABLE_ROWS[:2]) + [("BROKEN", 1.0, -0.5, 2.0, 0.1, None)])
        code, _, err = self.scan(capsys, ["scan", str(pairs), "--strict"])
        assert code == 2
        assert "BROKEN" not in err or "invalid rows" in err

    def test_duplicate_ids(self, tmp_path, capsys):
        pairs = tmp_path / "dup.csv"
        write_pairs(pairs, [TABLE_ROWS[0], TABLE_ROWS[0]])
        code, out, err = self.scan(capsys, ["scan", str(pairs)])
        assert code == 0
        assert "duplicate id" in err
        assert len(parse_csv(out)) == 1
        code, _, _ = self.scan(capsys, ["scan", str(pairs), "--strict"])
        assert code == 2

    def test_wrong_header_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,a,b,c,d\nx,1,1,1,1\n")
        code, _, err = self.scan(capsys, ["scan", str(bad)])
        assert code == 2
        assert "expected header" in err

    def test_rd_scan_requires_small_alpha(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS[:1])
        code, _, err = self.scan(capsys, ["scan", str(pairs), "--alpha", "0.6"])
        assert code == 2
        assert err == "error: alpha must lie in (0, 0.5), got 0.6\n"

    def test_json_format(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS[:2])
        code, out, _ = self.scan(capsys, ["scan", str(pairs), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["tested"] == 2
        assert len(payload["results"]) == 2
        assert all("kappa_max" in row for row in payload["results"])


@pytest.mark.parametrize(
    "command",
    [["scan", "--kind", "rd"], ["scan", "--kind", "omnibus"], ["scan", "--kind", "gs"],
     ["kappa-max"]],
    ids=["scan-rd", "scan-omnibus", "scan-gs", "kappa-max"],
)
def test_subnormal_se_row_is_skipped_not_fatal(tmp_path, capsys, command):
    # 1e-310 > 0, but below the core's 1e-300 floor: the reader must apply
    # the core's rule and skip the row instead of failing the whole batch
    pairs = tmp_path / "subnormal.csv"
    write_pairs(pairs, [TABLE_ROWS[0], ("TINY", 1.0, 1e-310, 0.5, 0.2), *TABLE_ROWS[1:3]])
    argv = [command[0], str(pairs), *command[1:], "--alpha", "0.1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines() == [
        f"warning: skipping {pairs}:3: se1 must be finite and > 1e-300, got 1e-310"
    ]
    rows = parse_csv(captured.out)
    assert sorted(row["id"] for row in rows) == ["APC", "BAX", "GRB2"]
    if command[0] == "scan":  # Bonferroni m counts the three tested rows
        for row in rows:
            expected = float(f"{min(1.0, 3 * float(row['p_raw'])):.10g}")
            assert float(row["p_adjusted"]) == expected

    code = main([*argv, "--strict"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "error: invalid rows:",
        f"  {pairs}:3: se1 must be finite and > 1e-300, got 1e-310",
    ]


@pytest.mark.parametrize(
    "command", [["scan", "--kind", "rd"], ["kappa-max"]], ids=["scan-rd", "kappa-max"]
)
def test_kappa_max_past_1e9_is_written_not_fatal(tmp_path, capsys, command):
    # row b's kappa_max is about 6.1e9; a root search capped at 1e9 used to
    # abort the whole batch
    pairs = tmp_path / "far.csv"
    pairs.write_text(
        "id,est1,se1,est2,se2\na,1.34,0.32,-0.09,0.33\nb,1e10,1,1e-3,1\nc,0.5,1,0.4,1\n"
    )
    code = main([command[0], str(pairs), *command[1:], "--alpha", "0.1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = {row["id"]: row for row in parse_csv(captured.out)}
    assert sorted(rows) == ["a", "b", "c"]
    assert float(rows["b"]["kappa_max"]) == pytest.approx(6.08e9, rel=1e-3)
    assert float(rows["c"]["kappa_max"]) == 1.0


BIG_CELL = "x" * 200_000


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("scan", f"id,est1,se1,est2,se2\na,1,1,1,1\n{BIG_CELL},1,1,1,1\n", 3),
        ("kappa-max", f"id,est1,se1,est2,se2\n{BIG_CELL},1,1,1,1\n", 2),
        ("network", f"a,b\n1,2\n{BIG_CELL},1\n3,4\n", 3),
        ("network", f"a,{BIG_CELL}\n1,2\n2,1\n3,4\n", 1),
    ],
    ids=["scan", "kappa-max", "network-cell", "network-header"],
)
def test_cell_past_the_csv_field_limit_is_usage_error(tmp_path, capsys, command, text, line):
    # csv.reader refuses a field longer than 131072 characters; the run
    # ended with an uncaught csv.Error traceback
    path = tmp_path / "big.csv"
    path.write_text(text)
    inputs = [str(path)] * (2 if command == "network" else 1)
    code = main([command, *inputs])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}:{line}: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "command, bad, rows",
    [("scan", 0, 0), ("kappa-max", 0, 0), ("network", 0, 0), ("network", 1, 0), ("scan", 0, 1000)],
    ids=["scan", "kappa-max", "network-matrix1", "network-matrix2", "scan-past-8192-bytes"],
)
def test_input_that_is_not_utf8_is_usage_error_naming_its_file(tmp_path, capsys, command, bad,
                                                               rows):
    # the decode error was printed without the path, so a network run did
    # not say which of its two matrices failed; its position counts from the
    # file's first byte, not from that of a chunk the reader decoded
    if command == "network":
        texts = [b"a,b\n1,2\n2,1\n3,4\n", b"a,b\n1,2\n2,1\n3,4\n"]
        texts[bad] = b"a,b\n1,2\n2,1\n3,\xe9\n"
    else:
        good = b"".join(b"p%d,1,1,1,1\n" % i for i in range(rows))
        texts = [b"id,est1,se1,est2,se2\n" + good + b"a\xe9,1,1,1,1\n"]
        assert (texts[0].index(b"\xe9") > 8192) == (rows > 0)
    paths = [tmp_path / f"in{i}.csv" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    code = main([command, *map(str, paths)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    position = texts[bad].index(b"\xe9")
    assert captured.err == (
        f"error: {paths[bad]}: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
        "invalid continuation byte\n"
    )


def test_kappa_max_csv_prints_inf_where_rounding_passes_the_float_range(tmp_path, capsys):
    # kappa_max = 1.7976931346e308 is finite, but its 10-digit text reads back
    # as inf, and kappa-max decides its order by that: the CSV prints inf
    pairs = tmp_path / "edge.csv"
    pairs.write_text("id,est1,se1,est2,se2\nc,1.7976931346e300,1e-299,1e-8,1e-299\n"
                     "a,1.34,0.32,-0.09,0.33\n")
    code = main(["kappa-max", str(pairs), "--alpha", "0.1"])
    rows = parse_csv(capsys.readouterr().out)
    assert code == 0 and [row["id"] for row in rows] == ["c", "a"]
    assert rows[0]["kappa_max"] == "inf" and rows[1]["kappa_max"] == "1.919381639"


def test_estimate_past_the_float_range_is_written_not_fatal(tmp_path, capsys):
    # est1 / se1 of row b is 1e599; the rescaled estimate overflowed and the
    # run exited 2 with "bvn_upper_tail requires finite thresholds"
    pairs = tmp_path / "wide.csv"
    pairs.write_text("id,est1,se1,est2,se2\nb,1e300,1e-299,1.0,1e-299\na,1.34,0.32,-0.09,0.33\n")
    code = main(["scan", str(pairs), "--kind", "rd", "--alpha", "0.1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = {row["id"]: row for row in parse_csv(captured.out)}
    assert sorted(rows) == ["a", "b"]
    assert rows["b"]["statistic"] == "inf" and rows["b"]["p_raw"] == "0"
    assert float(rows["b"]["kappa_max"]) == pytest.approx(1e300, rel=1e-9)
    assert rows["b"]["rejected"] == "true"


def test_sort_keys_read_the_rounded_column(tmp_path, capsys):
    # b's raw p-value is below a's only past the 10th significant digit, so
    # the rounded values tie and the id decides: a before b
    pairs = tmp_path / "tie.csv"
    pairs.write_text("id,est1,se1,est2,se2\nb,2.000000000001,1,-10,1\na,2,1,-10,1\n")
    p_b, p_a = (ndtr(-z) for z in (2.000000000001, 2.0))
    assert p_b < p_a and f"{p_b:.10g}" == f"{p_a:.10g}"
    code = main(["scan", str(pairs), "--kind", "gs", "--adjust", "none"])
    rows = parse_csv(capsys.readouterr().out)
    assert code == 0
    assert [row["id"] for row in rows] == ["a", "b"]
    assert rows[0]["p_raw"] == rows[1]["p_raw"] == f"{p_a:.10g}"


def test_column_no_decision_reads_keeps_its_digits_past_the_rounded_range(tmp_path, capsys):
    # kappa_max = 1.7976931346e308 is finite but its 10-digit text reads back
    # as inf: scan's kappa_max column, read by no decision, prints the text
    # in CSV; JSON carries the float the text reads back as, and strict JSON
    # writes that inf as null
    pairs = tmp_path / "edge.csv"
    pairs.write_text("id,est1,se1,est2,se2\nc,1.7976931346e300,1e-299,1e-8,1e-299\n")
    code = main(["scan", str(pairs), "--kind", "rd", "--alpha", "0.1"])
    (row,) = parse_csv(capsys.readouterr().out)
    assert code == 0 and row["kappa_max"] == "1.797693135e+308"
    code = main(["scan", str(pairs), "--kind", "rd", "--alpha", "0.1", "--format", "json"])
    (result,) = strict_json(capsys.readouterr().out)["results"]
    assert code == 0 and result["kappa_max"] is None


WIDE = ["--est1", "1e300", "--se1", "1e-299", "--est2", "1", "--se2", "1e-299"]


@pytest.mark.parametrize(
    "argv, path, expected",
    [
        # est1 / se1 = 1e599: the statistic is +inf
        (["test", "--kind", "rd", *WIDE], ["statistic"], None),
        (["test", "--kind", "omnibus", *WIDE], ["statistic"], None),
        (["test", "--kind", "rd", *WIDE], ["p_value"], 0.0),
        (["kappa-max", *WIDE], ["kappa_max"], 1e300),
        # kappa_max of 1.7976931346e308 rounds to the 10-digit text
        # 1.797693135e+308, which reads back as inf
        (["kappa-max", "--est1", "1.7976931346e300", "--se1", "1e-299", "--est2", "1e-8",
          "--se2", "1e-299", "--alpha", "0.1"], ["kappa_max"], None),
    ],
)
def test_json_writes_non_finite_numbers_as_null(capsys, argv, path, expected):
    code = main(argv)
    payload = strict_json(capsys.readouterr().out)
    assert code == 0
    for key in path:
        payload = payload[key]
    assert payload == (None if expected is None else pytest.approx(expected))


@pytest.mark.parametrize("alpha", ["1e-16", "1e-17", "1e-300", "5e-324", "1e-323"])
@pytest.mark.parametrize("argv", [
    ["kappa-max", "--est1", "3", "--se1", "0.1", "--est2", "0.1", "--se2", "0.1"],
    ["power", "--kind", "rd", "--c1-steps", "3", "--c2-steps", "3"],
    ["power", "--kind", "omnibus", "--c1-steps", "3", "--c2-steps", "3"],
    ["scan", "{pairs}", "--kind", "rd"],
], ids=["kappa-max", "power-rd", "power-omnibus", "scan-rd"])
def test_any_accepted_alpha_gives_a_result(tmp_path, capsys, argv, alpha):
    # the normal points were Phi^-1(1 - alpha/2), and 1 - alpha/2 rounds to
    # 1 below alpha = 1.1e-16, which the quantile refused; then -Phi^-1(alpha/2),
    # and alpha/2 rounds to 0 at alpha = 5e-324
    pairs = tmp_path / "pairs.csv"
    write_pairs(pairs, TABLE_ROWS)
    code = main([a.format(pairs=pairs) for a in argv] + ["--alpha", alpha])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize("command", ["scan", "kappa-max"])
def test_json_tables_write_non_finite_numbers_as_null(tmp_path, capsys, command):
    pairs = tmp_path / "wide.csv"
    pairs.write_text(
        "id,est1,se1,est2,se2\n"
        "b,1e300,1e-299,1.0,1e-299\n"
        "c,1.7976931346e300,1e-299,1e-8,1e-299\n"
        "a,1.34,0.32,-0.09,0.33\n"
    )
    code = main([command, str(pairs), "--alpha", "0.1", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = {row["id"]: row for row in strict_json(captured.out)["results"]}
    assert rows["c"]["kappa_max"] is None
    assert rows["a"]["kappa_max"] == pytest.approx(1.91, abs=0.1)
    if command == "scan":
        assert rows["b"]["statistic"] is None and rows["c"]["statistic"] is None
        assert rows["b"]["p_raw"] == 0.0


# ---------------------------------------------------------------------------
# network subcommand
# ---------------------------------------------------------------------------


class TestNetworkCommand:
    def test_identical_groups_never_reject(self, tmp_path, capsys):
        names = ["f1", "f2", "f3", "f4"]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((40, 4))
            m1 = tmp_path / f"g1_{seed}.csv"
            m2 = tmp_path / f"g2_{seed}.csv"
            write_matrix(m1, names, data)
            write_matrix(m2, names, data)
            code = main(["network", str(m1), str(m2), "--kappa", "1.0000000001"])
            out = capsys.readouterr().out
            assert code == 0
            footer = parse_footer(out)
            assert footer["rejected"] == 0
            for row in parse_csv(out):
                assert float(row["p_raw"]) == 1.0
                assert row["stronger_group"] == "0"

    def test_planted_edge_is_detected(self, tmp_path, capsys):
        rng = np.random.default_rng(99)
        n = 500
        base = rng.standard_normal((n, 3))
        group1 = base.copy()
        group1[:, 1] = 0.9 * group1[:, 0] + math.sqrt(1 - 0.81) * group1[:, 1]
        group2 = rng.standard_normal((n, 3))
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        names = ["a", "b", "c"]
        write_matrix(m1, names, group1)
        write_matrix(m2, names, group2)
        code = main(
            ["network", str(m1), str(m2), "--kappa", "1.5", "--alpha", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = {(row["feature_a"], row["feature_b"]): row for row in parse_csv(out)}
        planted = rows[("a", "b")]
        assert float(planted["p_adjusted"]) < 0.05
        assert planted["stronger_group"] == "1"
        assert parse_footer(out)["rejected"] >= 1

    def test_rows_sorted_by_adjusted_p(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        names = ["a", "b", "c", "d"]
        write_matrix(m1, names, rng.standard_normal((30, 4)))
        write_matrix(m2, names, rng.standard_normal((30, 4)))
        code = main(["network", str(m1), str(m2)])
        out = capsys.readouterr().out
        assert code == 0
        adjusted = [float(row["p_adjusted"]) for row in parse_csv(out)]
        assert adjusted == sorted(adjusted)

    def test_column_mismatch_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        write_matrix(m1, ["a", "b", "c"], rng.standard_normal((10, 3)))
        write_matrix(m2, ["a", "b", "x"], rng.standard_normal((10, 3)))
        code = main(["network", str(m1), str(m2)])
        err = capsys.readouterr().err
        assert code == 2
        assert "feature columns differ" in err

    def test_constant_column_pairs_skipped(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data1 = rng.standard_normal((25, 3))
        data1[:, 2] = 7.0  # degenerate: no variance in one group-1 feature
        data2 = rng.standard_normal((25, 3))
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        names = ["a", "b", "k"]
        write_matrix(m1, names, data1)
        write_matrix(m2, names, data2)
        code = main(["network", str(m1), str(m2)])
        captured = capsys.readouterr()
        assert code == 0
        footer = parse_footer(captured.out)
        assert footer == {
            "features": 3,
            "pairs": 3,
            "tested": 1,
            "skipped": 2,
            "rejected": footer["rejected"],
        }
        assert captured.err.count("skipping pair") == 2
        assert len(parse_csv(captured.out)) == 1

    @pytest.mark.parametrize(
        "group, make_k, reasons",
        [
            # a duplicated column correlates exactly: r = 1
            (1, lambda d: d[:, 0], {("a", "k"): "|r| = 1 leaves a degenerate standard error"}),
            (1, lambda d: -d[:, 0], {("a", "k"): "|r| = 1 leaves a degenerate standard error"}),
            # constant in group 2 only: k is y in (a, k) and x in (k, b)
            (2, lambda d: np.full(d.shape[0], 7.0), {
                ("a", "k"): "k is constant; correlation is undefined",
                ("k", "b"): "k is constant; correlation is undefined",
            }),
            # a constant whose mean is inexact is skipped in both positions too
            (1, lambda d: np.full(d.shape[0], 0.1), {
                ("a", "k"): "k is constant; correlation is undefined",
                ("k", "b"): "k is constant; correlation is undefined",
            }),
        ],
        ids=["duplicate", "negated-duplicate", "constant-in-group-2", "inexact-constant"],
    )
    def test_degenerate_pairs_skipped(self, tmp_path, capsys, group, make_k, reasons):
        rng = np.random.default_rng(15)
        data = [rng.standard_normal((25, 3)), rng.standard_normal((25, 3))]
        data[group - 1][:, 1] = make_k(data[group - 1])
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        write_matrix(m1, ["a", "k", "b"], data[0])
        write_matrix(m2, ["a", "k", "b"], data[1])
        code = main(["network", str(m1), str(m2), "--alpha", "0.5"])
        captured = capsys.readouterr()
        assert code == 0
        tested = 3 - len(reasons)
        footer = parse_footer(captured.out)
        assert footer == {
            "features": 3,
            "pairs": 3,
            "tested": tested,
            "skipped": len(reasons),
            "rejected": footer["rejected"],
        }
        assert captured.err.splitlines() == [
            f"warning: skipping pair ({a}, {b}): {reason}" for (a, b), reason in reasons.items()
        ]
        rows = parse_csv(captured.out)
        assert {(row["feature_a"], row["feature_b"]) for row in rows}.isdisjoint(reasons)
        for row in rows:  # Bonferroni over the tested pairs only
            p_raw = float(row["p_raw"])
            assert float(row["p_adjusted"]) == float(f"{min(1.0, tested * p_raw):.10g}")

    @pytest.mark.parametrize("exponent", [-565, 565])
    def test_column_scale_does_not_change_output(self, tmp_path, capsys, exponent):
        # the squares of such a column underflow or overflow unless each
        # column is rescaled before its sums are formed
        rng = np.random.default_rng(16)
        data1, data2 = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
        outputs = []
        for name, scale in (("plain", 0), ("scaled", exponent)):
            m1, m2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
            scaled = data1.copy()
            scaled[:, 1] = np.ldexp(scaled[:, 1], scale)
            with open(m1, "w", newline="") as fh:  # repr round-trips exactly
                csv.writer(fh).writerows([["a", "b", "c", "d"], *scaled.tolist()])
            write_matrix(m2, ["a", "b", "c", "d"], data2)
            code = main(["network", str(m1), str(m2)])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_too_few_rows_is_usage_error(self, tmp_path, capsys):
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        write_matrix(m1, ["a", "b"], np.ones((2, 2)))
        write_matrix(m2, ["a", "b"], np.ones((2, 2)))
        code = main(["network", str(m1), str(m2)])
        capsys.readouterr()
        assert code == 2

    def test_non_numeric_cell_is_usage_error(self, tmp_path, capsys):
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        m1.write_text("a,b\n1,2\n3,oops\n4,5\n")
        write_matrix(m2, ["a", "b"], np.random.default_rng(0).standard_normal((5, 2)))
        code = main(["network", str(m1), str(m2)])
        err = capsys.readouterr().err
        assert code == 2
        assert "g1.csv:3" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\n2,inf\n3,4\n4,1\n", "3: b must be finite, got inf"),
            ("1,2\nnan,1\n3,4\n4,1\n", "3: a must be finite, got nan"),
            ("1,2\n2,1\n3,4\n4,-inf\n", "5: b must be finite, got -inf"),
            # the first bad cell in line order names the problem
            ("1,2\n2,1\n3,nan\n-inf,1\n", "4: b must be finite, got nan"),
            # a quoted cell spanning a blank line: lines count file lines
            ('1,"2\n\n"\n2,1\n3,4\ninf,1\n', "7: a must be finite, got inf"),
            # a blank line outside quotes is a row of no cells
            ("1,2\n\n3,4\n4,inf\n", "3: expected 2 cells, got 0"),
        ],
        ids=["inf", "nan", "-inf", "first", "after-quoted-blank-line", "blank-line"],
    )
    def test_non_finite_cell_is_named_by_line_and_feature(self, tmp_path, capsys, body, message):
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        m1.write_text("a,b\n" + body)
        write_matrix(m2, ["a", "b"], np.random.default_rng(0).standard_normal((5, 2)))
        code = main(["network", str(m1), str(m2)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {m1}:{message}\n"

    def test_json_format_carries_summary(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        m1, m2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        names = ["a", "b", "c"]
        write_matrix(m1, names, rng.standard_normal((20, 3)))
        write_matrix(m2, names, rng.standard_normal((20, 3)))
        code = main(["network", str(m1), str(m2), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["pairs"] == 3
        assert payload["summary"]["tested"] == 3
        assert len(payload["results"]) == 3


# ---------------------------------------------------------------------------
# power subcommand
# ---------------------------------------------------------------------------


class TestPowerCommand:
    def grid(self, capsys, extra=()):
        code = main(
            [
                "power",
                "--c1-min",
                "-3",
                "--c1-max",
                "3",
                "--c1-steps",
                "3",
                "--c2-min",
                "-3",
                "--c2-max",
                "3",
                "--c2-steps",
                "3",
                "--kappa",
                "2",
                "--alpha",
                "0.05",
                *extra,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        return {
            (float(r["c1"]), float(r["c2"])): float(r["power"]) for r in parse_csv(out)
        }

    @pytest.mark.parametrize("kind", ["rd", "omnibus"])
    def test_origin_within_level(self, capsys, kind):
        grid = self.grid(capsys, ("--kind", kind))
        assert grid[(0.0, 0.0)] <= 0.05 + 1e-12

    def test_balanced_grid_is_exchange_symmetric(self, capsys):
        grid = self.grid(capsys)
        for (c1, c2), value in grid.items():
            assert grid[(c2, c1)] == pytest.approx(value, abs=1e-12)

    def test_lopsided_alternative_dominates_origin(self, capsys):
        # rd rejects when one effect magnitude dwarfs the other; equal
        # magnitudes sit inside its null no matter the signs.
        grid = self.grid(capsys)
        assert grid[(3.0, 0.0)] > 20 * grid[(0.0, 0.0)]
        assert grid[(3.0, 0.0)] > grid[(3.0, 3.0)]
        assert grid[(3.0, 0.0)] > grid[(3.0, -3.0)]

    def test_omnibus_crossover_corner_dominates(self, capsys):
        # the sign-sensitive variant is the one that lights up on crossovers
        grid = self.grid(capsys, ("--kind", "omnibus"))
        assert grid[(3.0, -3.0)] > 0.9
        assert grid[(3.0, -3.0)] > grid[(3.0, 3.0)]

    def test_empty_grid_is_usage_error(self, capsys):
        code = main(["power", "--c1-steps", "0"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("kind", ["rd", "omnibus"])
    def test_power_at_both_ends_of_the_float_range(self, capsys, kind):
        # subnormal sigma: the rescale factor overflowed to inf; an effect
        # 1e310 times its sigma: the orthant thresholds were infinite; both
        # effects 1e500 sigmas: the contrasts were inf - inf = NaN; all three
        # exited 2
        def powers(*flags):
            code = main(["power", "--kind", kind, "--c1-steps", "1", "--c2-steps", "1", *flags])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            return [float(row["power"]) for row in parse_csv(captured.out)]

        unit = powers("--c1-min=1", "--c1-max=1", "--c2-min=-3", "--c2-max=-3")
        subnormal = powers("--sigma1", "1e-310", "--sigma2", "1e-310", "--c1-min=1e-310",
                           "--c1-max=1e-310", "--c2-min=-3e-310", "--c2-max=-3e-310")
        assert subnormal == pytest.approx(unit, abs=1e-9)
        assert powers("--sigma1", "1e-10", "--sigma2", "1e-10", "--c1-min", "1e300",
                      "--c1-max", "1e300") == [1.0]
        # ratio 1 is inside the kappa = 2 null, ratio 1.7e8 far outside it
        assert powers("--c1-min", "1e300", "--c1-max", "1.7e308", "--c2-min", "1e300",
                      "--c2-max", "1.7e308", "--c1-steps", "2", "--c2-steps", "2",
                      "--sigma1", "1e-200", "--sigma2", "1e-200") == [0.0, 1.0, 1.0, 0.0]

    @pytest.mark.parametrize("flags", [["--sigma1", "1e9"], ["--kappa", "1.0000000000001"]])
    def test_omnibus_threshold_at_an_exact_root(self, capsys, flags):
        # nu rounds to 1, so the zero-point tail is exactly alpha at the first
        # bracket end; the root search queued an empty bracket and exited 1
        code = main(["power", "--kind", "omnibus", "--alpha", "0.45", "--c1-steps", "1",
                     "--c2-steps", "1", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        [row] = parse_csv(captured.out)
        assert math.isfinite(float(row["power"]))

    @pytest.mark.parametrize("axis", ["c1", "c2"])
    def test_axis_span_past_the_float_range_is_a_usage_error(self, capsys, axis):
        # np.linspace formed max - min = inf, warned twice, and the command
        # blamed the local effects
        code = main(["power", f"--{axis}-min=-1.7976931348623157e308",
                     f"--{axis}-max=1.7976931348623157e308", f"--{axis}-steps", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"--{axis}-min and --{axis}-max must be finite" in captured.err

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "c1,c2,power\n1.797693135e+308,-6,1\n1.797693135e+308,6,1\n"),
        ("json", [None, None]),
    ])
    def test_axis_value_whose_text_reads_back_as_inf(self, capsys, fmt, expected):
        # the CSV writes the rounded digits, strict JSON writes null
        code = main(["power", "--c1-min=1.7976931348623157e308",
                     "--c1-max=1.7976931348623157e308", "--c1-steps", "1", "--c2-steps", "2",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        if fmt == "json":
            results = strict_json(captured.out)["results"]
            assert [row["c1"] for row in results] == expected
            assert [row["c2"] for row in results] == [-6.0, 6.0]
        else:
            assert captured.out == expected

    def test_unbalanced_lambda_accepted(self, capsys):
        code = main(
            ["power", "--c1-steps", "1", "--c2-steps", "1", "--lambda", "0.25"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(parse_csv(out)) == 1

    def test_grid_past_the_cell_bound_is_usage_error(self, monkeypatch):
        # the bound, lowered here to 20 cells, is checked before either axis
        # is built: 4 x 5 cells run, 3 x 7 do not
        monkeypatch.setattr(cli, "_POWER_CELLS_LIMIT", 20)
        code, out, _ = run_cli(["power", "--c1-steps", "4", "--c2-steps", "5"])
        assert (code, len(parse_csv(out))) == (0, 20)
        with mock.patch.object(cli, "_grid_axis") as grid_axis:
            code, out, err = run_cli(["power", "--c1-steps", "3", "--c2-steps", "7"])
        assert (code, out, grid_axis.call_count) == (2, "", 0)
        assert err == ("error: --c1-steps and --c2-steps ask for 3 x 7 grid cells; "
                       "a power grid holds at most 20 cells\n")

    def test_oversized_grid_is_refused_in_bounded_memory(self):
        # 1e10 cells, refused before an axis is built; the child may not map
        # more than 1.5 GB, so a regression fails by exit 1 instead of asking
        # this machine for the memory
        child = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
            from qualint.cli import main
            sys.exit(main(["power", "--c1-steps", "100000", "--c2-steps", "100000"]))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: --c1-steps and --c2-steps ask for 100000 x 100000 ")


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--theta1",
        "1.0",
        "--theta2-min",
        "-0.5",
        "--theta2-max",
        "0.5",
        "--theta2-step",
        "0.5",
        "--n",
        "20",
        "--reps",
        "10",
        "--kappas",
        "2",
        "--alpha",
        "0.05",
        "--seed",
        "7",
    ]

    def run(self, capsys, prefix, extra=()):
        code = main([*self.ARGS, "--output", str(prefix), *extra])
        capsys.readouterr()
        assert code == 0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        self.run(capsys, tmp_path / "one")
        self.run(capsys, tmp_path / "two")
        for suffix in ("_n20_rates.csv", "_n20_kappa_max.csv", "_config.json"):
            first = (tmp_path / ("one" + suffix)).read_bytes()
            second = (tmp_path / ("two" + suffix)).read_bytes()
            assert first == second, suffix

    def test_seed_changes_rates(self, tmp_path, capsys):
        self.run(capsys, tmp_path / "a")
        code = main(
            [*self.ARGS[:-1], "8", "--output", str(tmp_path / "b")]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "a_n20_rates.csv").read_bytes() != (
            tmp_path / "b_n20_rates.csv"
        ).read_bytes()

    def test_config_echo_and_schemas(self, tmp_path, capsys):
        self.run(capsys, tmp_path / "study")
        config = json.loads((tmp_path / "study_config.json").read_text())
        assert config == {
            "theta1": 1.0,
            "theta2_grid": [-0.5, 0.0, 0.5],
            "n": [20],
            "replications": 10,
            "kappas": [2.0],
            "alpha": 0.05,
            "seed": 7,
        }
        with open(tmp_path / "study_n20_rates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 1 * 2  # grid x kappas x tests
        assert set(rows[0]) == {"theta2", "kappa", "test", "rejection_rate", "mc_se"}
        with open(tmp_path / "study_n20_kappa_max.csv", newline="") as fh:
            qrows = list(csv.DictReader(fh))
        assert [row["theta2"] for row in qrows] == ["-0.5", "0", "0.5"]
        for row in qrows:
            assert float(row["q10"]) <= float(row["q50"]) <= float(row["q90"])

    def test_multiple_sample_sizes_write_separate_files(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--theta2-min",
                "0",
                "--theta2-max",
                "0",
                "--theta2-step",
                "0.5",
                "--n",
                "10",
                "20",
                "--reps",
                "5",
                "--kappas",
                "2",
                "--seed",
                "1",
                "--output",
                str(tmp_path / "multi"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "multi_n10_rates.csv").exists()
        assert (tmp_path / "multi_n20_rates.csv").exists()
        config = json.loads((tmp_path / "multi_config.json").read_text())
        assert config["n"] == [10, 20]

    def test_dropped_replicates_are_reported(self, tmp_path, capsys):
        # at theta1 = 5e307 some y pass the float range: 31 of 50 replicates
        # are dropped, and 10 of the 19 kept have kappa_max = +inf, so q50
        # and q90 read inf, not NaN; numpy warnings fail the suite, and the
        # run raises none.  A study that drops nothing warns nothing.
        code = main([*self.ARGS, "--output", str(tmp_path / "quiet")])
        assert code == 0 and capsys.readouterr().err == ""
        prefix = tmp_path / "far"
        code = main(["simulate", "--theta1", "5e307", "--theta2-min", "0", "--theta2-max", "0",
                     "--theta2-step", "1", "--n", "100", "--reps", "50", "--kappas", "2",
                     "--alpha", "0.05", "--seed", "1", "--output", str(prefix)])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == (
            "warning: n=100, theta2=0: 31 of 50 replicates dropped (degenerate estimation)\n"
        )
        assert out.split() == [f"{prefix}{suffix}" for suffix in
                               ("_n100_rates.csv", "_n100_kappa_max.csv", "_config.json")]
        assert (tmp_path / "far_n100_kappa_max.csv").read_text() == (
            "theta2,q10,q50,q90\n0,1.377375237e+308,inf,inf\n"
        )

    def test_overflowing_slope_drops_its_replicate(self, tmp_path, capsys):
        # at theta1 = DBL_MAX and n = 3 some replicates' OLS slopes pass the
        # float range with a finite SE: they are dropped, not a failed batch
        code = main(["simulate", "--theta1", "1.7976931348623157e308", "--theta2-min", "0",
                     "--theta2-max", "0", "--theta2-step", "1", "--n", "3", "--reps", "5000",
                     "--kappas", "2", "--seed", "1", "--output", str(tmp_path / "s")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: n=3, theta2=0: 4582 of 5000 replicates dropped (degenerate estimation)\n"
        )

    def test_failing_study_leaves_no_output(self, tmp_path, capsys):
        # the n = 2 study fails (an OLS slope needs 3 pairs) after the n = 30
        # study has run: no file of either is written
        code = main(["simulate", "--n", "30", "2", "--reps", "5", "--theta2-step", "0.5",
                     "--output", str(tmp_path / "s")])
        assert code == 2
        assert "need at least 3 pairs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_is_usage_error(self, capsys):
        code = main(["simulate", "--theta2-min", "1", "--theta2-max", "0"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--theta2-max", "inf"], "must be finite"),
            (["--theta2-max", "nan"], "must be finite"),
            # 2e300 points: refused before any is built
            (["--theta2-step", "1e-300"], "fewer than 2**32 points"),
            # points rounded to 10 decimals: six 0.0 and five 1e-10
            (["--theta2-min", "0", "--theta2-max", "1e-10", "--theta2-step", "1e-11",
              "--n", "10", "--reps", "3", "--kappas", "2"],
             "error: --theta2-step is too small: theta2 grid points repeat at 10 decimals"),
        ],
        ids=["infinite-max", "nan-max", "tiny-step", "repeated-point"],
    )
    def test_unbuildable_grid_is_usage_error(self, capsys, tmp_path, flags, message):
        code = main(["simulate", *flags, "--output", str(tmp_path / "study")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lo, hi, step, grid",
        [
            # a step that does not divide the span stops short of hi, where
            # the grid ran on to 1.05 and 1.1
            ("0", "1", "0.35", [0.0, 0.35, 0.7]),
            ("-1", "1", "0.3", [-1.0, -0.7, -0.4, -0.1, 0.2, 0.5, 0.8]),
            # 0.3 / 0.1 is an ulp short of 3: the grid still reaches hi
            ("0", "0.3", "0.1", [0.0, 0.1, 0.2, 0.3]),
        ],
        ids=["0-to-1-by-0.35", "-1-to-1-by-0.3", "0-to-0.3-by-0.1"],
    )
    def test_grid_stops_at_theta2_max(self, tmp_path, lo, hi, step, grid):
        prefix = tmp_path / "study"
        code, _, err = run_cli(["simulate", "--theta2-min", lo, "--theta2-max", hi,
                                "--theta2-step", step, "--n", "10", "--reps", "2",
                                "--kappas", "2", "--output", str(prefix)])
        assert (code, err) == (0, "")
        config = json.loads((tmp_path / "study_config.json").read_text())
        assert config["theta2_grid"] == grid

    def test_grid_spanning_past_the_float_range(self, tmp_path):
        # hi - lo and 2 * step pass the float range: the grid was refused as
        # holding 2**32 points or more
        prefix = tmp_path / "study"
        code, _, err = run_cli(["simulate", "--theta2-min=-1e308", "--theta2-max", "1e308",
                                "--theta2-step", "1e308", "--n", "10", "--reps", "2",
                                "--kappas", "2", "--output", str(prefix)])
        assert code == 0
        assert "theta2=0:" not in err  # only the points at +-1e308 may drop replicates
        config = json.loads((tmp_path / "study_config.json").read_text())
        assert config["theta2_grid"] == [-1e308, 0.0, 1e308]

    def test_repeated_sample_size_runs_once(self, tmp_path, monkeypatch):
        # each distinct n is studied, written and printed once, in the order
        # given; the config echo keeps --n as given
        from qualint import simulation

        study, runs = simulation.run_rejection_study, []
        monkeypatch.setattr(simulation, "run_rejection_study",
                            lambda config: runs.append(config.n) or study(config))
        prefix = tmp_path / "s"
        code, out, _ = run_cli([*self.ARGS, "--n", "20", "10", "20", "--output", str(prefix)])
        assert code == 0 and runs == [20, 10]
        assert out.split() == [f"{prefix}{suffix}" for suffix in (
            "_n20_rates.csv", "_n20_kappa_max.csv", "_n10_rates.csv", "_n10_kappa_max.csv",
            "_config.json")]
        assert json.loads((tmp_path / "s_config.json").read_text())["n"] == [20, 10, 20]

    def test_study_past_the_replicate_bound_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # the bound, lowered here to 21 replicates, is checked before any
        # grid point is built: 21 points x 1 replicate run, x 2 do not
        from qualint import simulation

        monkeypatch.setattr(simulation, "_STUDY_REPLICATES_LIMIT", 21)
        argv = ["simulate", "--n", "10", "--kappas", "2", "--output", str(tmp_path / "s")]
        assert run_cli([*argv, "--reps", "1"])[0] == 0
        code, out, err = run_cli([*argv, "--reps", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: --theta2-step and --reps ask for 21 theta2 grid points x 2 "
                       "replicates; a study holds at most 21 replicates\n")

    def test_oversized_study_is_refused_in_bounded_memory(self, tmp_path):
        # 2e9 grid points x 1000 replicates, refused before the grid is
        # built; the child may not map more than 1.5 GB, so a regression
        # fails by exit 1 instead of asking this machine for the memory
        child = textwrap.dedent(f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
            from qualint.cli import main
            sys.exit(main(["simulate", "--theta2-step", "1e-9", "--reps", "1000",
                           "--output", {str(tmp_path / "s")!r}]))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: --theta2-step and --reps ask for 2000000001 ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_the_older_set(self, capsys, tmp_path, monkeypatch):
        # the second file of the set fails to write: the run exits 1 and the
        # set of an earlier run is left as it was, with no temporary file
        prefix = tmp_path / "study"
        self.run(capsys, prefix)
        older = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(older) == 3
        write_table, calls = cli._write_table, []

        def failing_second_write(out, *args, **kwargs):
            calls.append(out.name)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            write_table(out, *args, **kwargs)

        monkeypatch.setattr(cli, "_write_table", failing_second_write)
        code = main([*self.ARGS[:-1], "8", "--output", str(prefix)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", "i/o failure: [Errno 28] No space left on device\n")
        assert len(calls) == 2 and not any(name.endswith(".csv") for name in calls)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == older


# ---------------------------------------------------------------------------
# kappa-max subcommand
# ---------------------------------------------------------------------------


class TestKappaMaxCommand:
    def test_pair_flags_json(self, capsys):
        code = main(
            [
                "kappa-max",
                "--est1",
                "-0.06",
                "--se1",
                "0.31",
                "--est2",
                "-1.66",
                "--se2",
                "0.68",
                "--alpha",
                "0.10",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa_max"] == pytest.approx(2.04, abs=0.1)
        assert payload["binding_root"] == "normal_boundary"
        assert "roots" not in payload
        assert set(payload["p_values"]) == {"1.5", "2", "4"}
        ordered = [payload["p_values"][k] for k in ("1.5", "2", "4")]
        assert ordered == sorted(ordered)  # p grows with the ratio bound

    def test_weak_pair_reports_none(self, capsys):
        code = main(
            ["kappa-max", "--est1", "1", "--se1", "0.1", "--est2", "1", "--se2", "0.1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa_max"] == 1.0
        assert payload["binding_root"] == "none"

    def test_csv_mode_matches_published_bounds(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS)
        code = main(["kappa-max", str(pairs), "--alpha", "0.10"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == len(TABLE_ROWS)
        published = {name: bound for name, *_, bound in TABLE_ROWS}
        for row in rows:
            assert abs(float(row["kappa_max"]) - published[row["id"]]) <= 0.1
            assert row["binding_root"] == "normal_boundary"
        values = [float(row["kappa_max"]) for row in rows]
        assert values == sorted(values, reverse=True)

    def test_csv_mode_matches_flag_mode(self, tmp_path, capsys):
        pairs = tmp_path / "one.csv"
        write_pairs(pairs, TABLE_ROWS[:1])
        code = main(["kappa-max", str(pairs), "--alpha", "0.10"])
        out_csv = capsys.readouterr().out
        assert code == 0
        (row,) = parse_csv(out_csv)
        code = main(
            [
                "kappa-max",
                "--est1",
                "-0.06",
                "--se1",
                "0.31",
                "--est2",
                "-1.66",
                "--se2",
                "0.68",
                "--alpha",
                "0.10",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(row["kappa_max"]) == payload["kappa_max"]
        assert float(row["p_rd_2"]) == payload["p_values"]["2"]

    # the larger estimate within an ulp of z se: each row rejects at the
    # probe kappa 1 + 1e-9 at its alpha, where the closed-form root is NaN
    # or 0 (the first two at alpha = 0.4999, the third at the second alpha)
    @pytest.mark.parametrize("command", [["kappa-max"], ["scan", "--kind", "rd"]])
    @pytest.mark.parametrize("alpha", ["0.4999", "0.0002854646921200725"])
    def test_rows_at_the_probe_edge_get_the_probe_kappa(self, tmp_path, capsys, command, alpha):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, [
            ("zero", "0.6746471018004875", "1", "0", "1e-200"),
            ("tiny", "0.6746471018004875", "1", "1e-300", "1e-200"),
            ("wide", "1.062547750696676e+46", "2.9286252003518044e+45",
             "1.062547750696676e+16", "4.3126392994307884e-79"),
        ])
        code = main([*command, str(pairs), "--alpha", alpha])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        bounds = {row["id"]: row["kappa_max"] for row in parse_csv(out)}
        edge = ("zero", "tiny") if alpha == "0.4999" else ("wide",)
        for name, bound in bounds.items():
            assert float(bound) >= 1.0, (name, bound)  # no nan, 0 or blank
            assert (bound == "1.000000001") == (name in edge), (name, bound)

    def test_missing_inputs_is_usage_error(self, capsys):
        code = main(["kappa-max", "--est1", "1", "--se1", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "kappa-max needs" in err

    @pytest.mark.parametrize("flag", ["--est1", "--se1", "--est2", "--se2"])
    def test_input_csv_with_a_pair_flag_is_usage_error(self, tmp_path, capsys, flag):
        # the CSV was read and the flag silently ignored, with exit 0
        pairs, out = tmp_path / "pairs.csv", tmp_path / "out.csv"
        write_pairs(pairs, TABLE_ROWS)
        code = main(["kappa-max", str(pairs), flag, "1", "--output", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: kappa-max needs either an input CSV or all of "
            "--est1/--se1/--est2/--se2, not both\n"
        )


# ---------------------------------------------------------------------------
# text cells: quoting and order of ids and feature names
# ---------------------------------------------------------------------------

# ids holding the CSV specials (comma, quote, LF, CR), padding the reader
# strips, and non-ASCII text; several rows tie on p_adjusted = 1
HOSTILE_PAIRS = (
    "id,est1,se1,est2,se2\n"
    '"a,b",-0.06,0.31,-1.66,0.68\n'
    '"say ""hi""",1.34,0.32,-0.09,0.33\n'
    '"line\nbreak",-1.05,0.24,0.04,0.36\n'
    '"carriage\rreturn",1.13,0.28,0.14,0.32\n'
    "  padded id  ,1.13,0.36,-0.10,0.37\n"
    '" quoted pad ",-0.36,0.09,0.00,0.17\n'
    "naïve β,-0.87,0.27,0.03,0.35\n"
    '"ünï,""q""",-0.52,0.13,-0.07,0.19\n'
)
HOSTILE_FEATURES = '"gene,1","gene ""2""","gène\n3", spaced ,"cr\rfour"\n'
HOSTILE_MATRIX1 = (
    "0.1,1.2,-0.3,0.8,2.1\n1.4,2.2,0.5,-0.6,1.9\n-0.7,0.3,-1.1,1.5,0.2\n"
    "2.0,2.9,0.9,0.1,-0.4\n0.6,1.1,-0.2,-1.3,0.7\n-1.2,-0.5,-1.8,0.4,1.1\n"
)
HOSTILE_MATRIX2 = (
    "0.3,-1.0,0.7,0.2,1.4\n-0.9,0.8,0.1,1.6,-0.3\n1.7,-1.4,-0.6,0.9,0.5\n"
    "0.2,0.1,1.2,-0.8,2.2\n-1.5,1.9,-0.4,0.3,-1.0\n0.8,-0.2,0.6,-1.1,0.9\n"
)
HOSTILE_OUTPUTS = {
    "scan": (
        "id,statistic,p_raw,p_adjusted,kappa_max,rejected\n"
        '"say ""hi""",2.044355946,0.04091839601,0.3273471681,1.919381639,false\n'
        '"a,b",1.905832484,0.05667194291,0.4533755433,2.064880609,false\n'
        '"line\nbreak",1.675321172,0.09387123351,0.7509698681,1.530934266,false\n'
        '"carriage\rreturn",1.655576227,0.09780766784,0.7824613427,1.510013719,false\n'
        "naïve β,1.397452261,0.162277613,1,1.224675935,false\n"
        "padded id,1.481409119,0.1384975861,1,1.319999958,false\n"
        "quoted pad,1.331280471,0.1830967416,1,1.173550075,false\n"
        '"ünï,""q""",1.324824228,0.185229457,1,1.212566311,false\n'
    ),
    "kappa-max": (
        "id,kappa_max,binding_root,p_rd_1.5,p_rd_2,p_rd_4\n"
        '"a,b",2.064880609,normal_boundary,0.05667194291,0.09422543559,0.3153344498\n'
        '"say ""hi""",1.919381639,normal_boundary,0.04091839601,0.1137657098,0.4705865166\n'
        '"line\nbreak",1.530934266,normal_boundary,0.09387123351,0.2012186742,0.5420961708\n'
        '"carriage\rreturn",1.510013719,normal_boundary,0.09780766784,0.2236911815,'
        "0.6635437084\n"
        "padded id,1.319999958,normal_boundary,0.1384975861,0.2584257587,0.6317476427\n"
        "naïve β,1.224675935,normal_boundary,0.162277613,0.2803131223,0.5988734707\n"
        '"ünï,""q""",1.212566311,normal_boundary,0.185229457,0.3440649524,0.755596436\n'
        "quoted pad,1.173550075,normal_boundary,0.1830967416,0.3060383071,0.5996979845\n"
    ),
    "network": (
        "feature_a,feature_b,r1,r2,statistic,p_raw,p_adjusted,stronger_group\n"
        '"gene,1","gène\n3",0.9876799145,0.06512303596,1.459350165,0.144468755,'
        "0.144468755,1\n"
        '"gene ""2""","gène\n3",0.992200073,-0.1424060154,1.297679038,0.1943976499,'
        "0.1943976499,1\n"
        '"gène\n3","cr\rfour",-0.1062514785,0.8118603661,1.050280074,0.2935893637,'
        "0.2935893637,2\n"
        'spaced,"cr\rfour",-0.1055438503,-0.5936482874,0.658849783,0.5099922354,'
        "0.5099922354,2\n"
        '"gene ""2""","cr\rfour",-0.1506936712,-0.6216432935,0.6097721045,0.5420127827,'
        "0.5420127827,2\n"
        '"gene,1","cr\rfour",-0.1730219285,0.5747156307,0.4819771365,0.6298221882,'
        "0.6298221882,2\n"
        '"gene ""2""",spaced,-0.3789244094,0.08073062479,0.3674391082,0.7132915045,'
        "0.7132915045,1\n"
        '"gene,1",spaced,-0.5255065863,-0.2476267505,0.2383703419,0.8115938683,'
        "0.8115938683,1\n"
        '"gene,1","gene ""2""",0.9845462891,-0.92225729,-4.318018234,1,1,1\n'
        '"gène\n3",spaced,-0.4543474683,-0.6476318461,-0.06267922627,1,1,2\n'
        "# features=5 pairs=10 tested=10 skipped=0 rejected=3\n"
    ),
}
# scan --format json on the same rows: (id, statistic, p_raw, p_adjusted, kappa_max)
HOSTILE_SCAN_JSON = [
    ('say "hi"', 2.044355946, 0.04091839601, 0.3273471681, 1.919381639),
    ("a,b", 1.905832484, 0.05667194291, 0.4533755433, 2.064880609),
    ("line\nbreak", 1.675321172, 0.09387123351, 0.7509698681, 1.530934266),
    ("carriage\rreturn", 1.655576227, 0.09780766784, 0.7824613427, 1.510013719),
    ("naïve β", 1.397452261, 0.162277613, 1.0, 1.224675935),
    ("padded id", 1.481409119, 0.1384975861, 1.0, 1.319999958),
    ("quoted pad", 1.331280471, 0.1830967416, 1.0, 1.173550075),
    ('ünï,"q"', 1.324824228, 0.185229457, 1.0, 1.212566311),
]


def test_hostile_text_cells_are_quoted_and_ordered_exactly(tmp_path, capsys):
    # byte-exact on every Python: a cell holding a comma, quote, CR or LF is
    # quoted, and string sort keys order by code point, ties on p_adjusted
    # broken by the id
    for name, text in (
        ("pairs.csv", HOSTILE_PAIRS),
        ("m1.csv", HOSTILE_FEATURES + HOSTILE_MATRIX1),
        ("m2.csv", HOSTILE_FEATURES + HOSTILE_MATRIX2),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    pairs = str(tmp_path / "pairs.csv")
    argvs = {
        "scan": ["scan", pairs, "--kind", "rd", "--kappa", "1.5", "--alpha", "0.1"],
        "kappa-max": ["kappa-max", pairs, "--alpha", "0.1"],
        "network": ["network", str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv"),
                    "--kappa", "1.5", "--alpha", "0.5", "--adjust", "none"],
    }
    for command, argv in argvs.items():
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), command
        assert captured.out == HOSTILE_OUTPUTS[command], command
    code = main([*argvs["scan"], "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    fields = ("id", "statistic", "p_raw", "p_adjusted", "kappa_max")
    results = [{**dict(zip(fields, row)), "rejected": False} for row in HOSTILE_SCAN_JSON]
    expected = {"results": results, "summary": {"tested": len(results)}}
    assert captured.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# columnar table path: properties against the row-at-a-time forms it replaced
# ---------------------------------------------------------------------------

PAIR_FIELDS = ("id", "est1", "se1", "est2", "se2")
# csv writes and reads NUL from Python 3.11 on
NUL = "\x00" if sys.version_info >= (3, 11) else ""
# the CSV specials, padding, non-ASCII text, a % conversion mark and NUL
TEXT = st.text(alphabet=',"\r\n \taAé€%' + NUL, max_size=5)
FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def table_columns(draw):
    """(columns as the writer takes them, the cells csv.writer is given, the
    values json.dumps is given)."""
    rows = draw(st.integers(0, 5))
    columns, cells, values = [], [], []
    kinds = ["text", "objects", "float", "g10", "bool", "int", "blank"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=5)):
        if kind in ("text", "objects"):  # a list, or an array of str objects
            column = draw(st.lists(TEXT, min_size=rows, max_size=rows))
            columns.append(column if kind == "text" else np.array(column, dtype=object))
            cells.append(column)
            values.append(column)
        elif kind in ("float", "g10"):  # formatted by the writer, or kept text of _g10s
            column = np.array(draw(st.lists(FLOAT_CELLS, min_size=rows, max_size=rows)), float)
            columns.append(column if kind == "float" else _g10s(column))
            text = [f"{v:.10g}" for v in column.tolist()]
            # kept text is that of the rounded value: inf where rounding passes the range
            cells.append(text if kind == "float" else [f"{float(cell):.10g}" for cell in text])
            rounded = [float(cell) for cell in cells[-1]]
            values.append([v if math.isfinite(v) else None for v in rounded])
        elif kind == "bool":
            column = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), bool)
            columns.append(column)
            cells.append(["true" if v else "false" for v in column.tolist()])
            values.append(column.tolist())
        elif kind == "int":
            column = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)))
            columns.append(column)
            cells.append([str(v) for v in column.tolist()])
            values.append(column.tolist())
        else:
            columns.append([None] * rows)
            cells.append([None] * rows)
            values.append([None] * rows)
    fieldnames = draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns)))
    return fieldnames, columns, cells, values


def csv_cell(cell):
    """A cell as csv.writer quotes it mid-row.  The CRLF terminator makes
    every Python quote CR and LF, and mid-row an empty cell is not quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(["x", cell, "x"])
    return out.getvalue()[2:-4]


# summaries: none, empty, or nested with non-ASCII keys and an empty list
SUMMARY_KEYS = st.text(alphabet='aé€"%[]' + NUL, max_size=3)
SUMMARIES = st.one_of(st.none(), st.just({}), st.dictionaries(
    SUMMARY_KEYS,
    st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=2),
              st.dictionaries(SUMMARY_KEYS, st.integers(-3, 3), max_size=2)),
    min_size=1, max_size=3,
))


@given(table_columns(), SUMMARIES, st.none() | TEXT, st.data())
def test_table_writer_matches_csv_writer(table, summary, footer, data):
    # the writer gathers the rows in the given order: the text is that of the
    # permuted rows, from one % pass or from passes that split the body; CSV
    # ends with the footer line and JSON holds the summary (and no footer)
    fieldnames, columns, cells, values = table
    order = np.array(data.draw(st.permutations(range(len(cells[0])))), dtype=np.intp)

    def permuted(columns):
        rows = list(zip(*columns))
        return [rows[i] for i in order.tolist()]

    rows = [fieldnames, *permuted(cells)]
    expected_csv = "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)
    expected_csv += "" if footer is None else footer + "\n"
    payload = {"results": [dict(zip(fieldnames, row)) for row in permuted(values)]}
    if summary is not None:
        payload["summary"] = summary
    expected_json = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for fmt, expected in (("csv", expected_csv), ("json", expected_json)):
        for chunk in (cli._WRITE_ROWS, 2, 1):
            out = io.StringIO()
            with mock.patch.object(cli, "_WRITE_ROWS", chunk):
                _write_table(out, fmt, fieldnames, columns, order, summary, footer)
            assert out.getvalue() == expected, (fmt, chunk)


@given(st.integers(2, 4).flatmap(
    lambda width: st.lists(st.lists(TEXT, min_size=width, max_size=width), min_size=1, max_size=5)
))
def test_csv_reader_reads_the_written_cells_back(table):
    fieldnames, *rows = table
    columns = [[row[c] for row in rows] for c in range(len(fieldnames))]
    out = io.StringIO()
    _write_table(out, "csv", fieldnames, columns)
    assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == table


IDS = st.text(alphabet="aAé" + NUL, min_size=1, max_size=3)
# repeated values make ties in p_adjusted (and in kappa_max)
TIED_VALUES = [(1.0, 0.5, 0.2, 0.5), (-1.0, 0.4, 2.0, 0.3), (0.5, 1.0, 0.5, 1.0), (3.0, 0.2, 0.1, 0.3)]


@settings(max_examples=40)
@given(st.lists(st.tuples(IDS, st.sampled_from(TIED_VALUES)), min_size=1, max_size=8,
                unique_by=lambda row: row[0]))
def test_command_order_is_the_tuple_order(rows):
    # ids that differ by case or by a trailing NUL, on tied sort keys
    with tempfile.TemporaryDirectory() as tmp:
        pairs = Path(tmp) / "pairs.csv"
        with open(pairs, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([PAIR_FIELDS, *((row_id, *values) for row_id, values in rows)])
        for command, key in (
            (["scan", "--kind", "rd"], lambda row: (row["p_adjusted"], row["id"])),
            (["scan", "--kind", "gs", "--adjust", "none"], lambda row: (row["p_adjusted"], row["id"])),
            (["kappa-max"], lambda row: (-row["kappa_max"], row["id"])),
        ):
            code, out, _ = run_cli([command[0], str(pairs), *command[1:], "--alpha", "0.1",
                                    "--format", "json"])
            results = strict_json(out)["results"]
            assert code == 0 and len(results) == len(rows)
            assert results == sorted(results, key=key)


@settings(max_examples=40)
@given(st.lists(IDS, min_size=3, max_size=5, unique=True), st.integers(0, 2**32 - 1))
def test_network_order_is_the_tuple_order(names, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "g1.csv", Path(tmp) / "g2.csv"]
        for path in paths:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([names, *rng.standard_normal((6, len(names))).tolist()])
        code, out, _ = run_cli(["network", *map(str, paths), "--format", "json"])
    results = strict_json(out)["results"]
    assert code == 0 and len(results) == len(names) * (len(names) - 1) // 2
    assert results == sorted(
        results, key=lambda row: (row["p_adjusted"], row["feature_a"], row["feature_b"])
    )


def reference_read_pairs(path):
    """The row-at-a-time pair reader the columnar one replaced: the ids and
    batch of the valid rows, and the problem lines in the order reported."""
    problems, ids, lines, values = [], [], [], []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        assert tuple(next(reader)) == PAIR_FIELDS
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            try:
                if len(row) < 5:
                    raise ValueError(f"expected 5 cells, got {len(row)}")
                parsed = [float(cell) for cell in row[1:5]]
                if not row[0].strip():
                    raise ValueError("id must be nonempty")
            except ValueError as exc:
                problems.append((line_no, str(exc)))
                continue
            ids.append(row[0].strip())
            lines.append(line_no)
            values.append(parsed)
    columns = np.array(values, dtype=float).reshape(-1, 4).T
    is_se = [False, True, False, True]
    bad = np.array([~_valid(column, se) for column, se in zip(columns, is_se)])
    invalid = bad.any(axis=0)
    for i in np.flatnonzero(invalid).tolist():
        c = int(np.argmax(bad[:, i]))
        problems.append((lines[i], _rule_violation(PAIR_FIELDS[1 + c], columns[c, i], is_se[c])))
    keep, seen = [], set()
    for i in np.flatnonzero(~invalid).tolist():
        if ids[i] in seen:
            problems.append((lines[i], f"duplicate id {ids[i]!r}"))
        else:
            seen.add(ids[i])
            keep.append(i)
    problems.sort(key=lambda problem: problem[0])
    listed = [f"{path}:{line_no}: {text}" for line_no, text in problems]
    return [ids[i] for i in keep], PairBatch(*columns[:, keep]), listed


# characters str.splitlines ends a line at; neither csv.reader nor qualint does
ODD_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
VALUE_CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1_0", " 2.5 ", "", "x", "0", "-0.0", "1e-310",
                     "-0.5", "0.25", "1e300", "  7 ", "\x0c2\x85", "3\u2028", "4\v5"]),
    # cells np.loadtxt and float() read differently: whitespace to loadtxt
    # only (\x1c-\x1f), a non-ASCII digit, and text neither reads
    st.sampled_from(["\x1c1", "2\x1f", "\uff11", "nan(1)", "1d2", "  "]),
    st.floats().map(repr),
)
# ids that need no quotes, then ids that do
PLAIN_IDS = ["a", "b", " a ", "", "  ", "c" + ODD_BREAKS, "\x85", "d\u2029e" + NUL]
QUOTED_IDS = ["multi\nline", "x\n\ny", "c,d", 'q"q', "cr\rid"]
TERMINATORS = st.sampled_from(["\n", "\r", "\r\n"])


def csv_line(cells):
    """Cells as one CSV record, quoted as csv.writer quotes them."""
    return ",".join('"' + c.replace('"', '""') + '"' if re.search('[,"\r\n]', c) else c
                    for c in cells)


@st.composite
def csv_texts(draw, records):
    """The text of a CSV file of the drawn records (None is a blank line),
    each line ended by a drawn terminator, the last one maybe by none."""
    text = "".join(("" if record is None else csv_line(record)) + draw(TERMINATORS)
                   for record in draw(records))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


# a row is a blank line (None) or an id and zero to five value cells; half
# the files draw no quoted id, so both of the reader's tokenizers run
PAIR_TEXTS = csv_texts(st.booleans().flatmap(lambda quoted: st.lists(
    st.one_of(st.none(), st.tuples(st.sampled_from(PLAIN_IDS + QUOTED_IDS * quoted),
                                   st.lists(VALUE_CELLS, max_size=5))),
    max_size=8,
)).map(lambda rows: [PAIR_FIELDS, *(row and [row[0], *row[1]] for row in rows)]))


def read_with_csv_reader_count(read, path):
    """read(path) and the number of csv.reader objects it made."""
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        result = read(path)
    return result, reader.call_count


def read_with_call_counts(read, path):
    """read(path) and the number of np.loadtxt and float() calls it made."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(cli, "float", wraps=float, create=True) as to_float:
        result = read(path)
    return result, loadtxt.call_count, to_float.call_count


@given(PAIR_TEXTS)
def test_pair_reader_matches_the_row_reader(text):
    check_pair_reader(text)


def check_pair_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "pairs.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        expected_ids, expected, listed = reference_read_pairs(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            (ids, batch), readers = read_with_csv_reader_count(
                lambda p: _read_pairs(p, strict=False), path)
        assert readers == 1  # one record stream per file, whatever its text
        assert ids == expected_ids
        for name in PAIR_FIELDS[1:]:  # bit for bit
            assert getattr(batch, name).tobytes() == getattr(expected, name).tobytes()
        assert err.getvalue().splitlines() == [f"warning: skipping {line}" for line in listed]
        if listed:
            with pytest.raises(UsageError) as info:
                _read_pairs(path, strict=True)
            assert str(info.value) == "invalid rows:\n  " + "\n  ".join(listed)
        else:
            assert _read_pairs(path, strict=True)[0] == ids


def reference_read_matrix(path):
    """The row-at-a-time matrix reader: (names, values) or the error text."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return f"{path}: empty file"
        header = tuple(name.strip() for name in header)
        if len(header) < 2 or not all(header):
            return f"{path}: need at least two named feature columns"
        if len(set(header)) != len(header):
            return f"{path}: duplicate feature names"
        rows, lines = [], []
        for row in reader:
            if len(row) != len(header):
                return f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}"
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                return f"{path}:{reader.line_num}: {exc}"
            lines.append(reader.line_num)
    if len(rows) < 3:
        return f"{path}: need at least 3 sample rows, got {len(rows)}"
    for line_no, row in zip(lines, rows):
        for name, value in zip(header, row):
            if not math.isfinite(value):
                return f"{path}:{line_no}: {_rule_violation(name, value, False)}"
    return header, np.array(rows, dtype=float)


FEATURES = ["g1", "g2", " g3 ", "\x1cg\x85", "g\u2028"]


@st.composite
def matrix_records(draw):
    """A header and rows: mostly a well-formed matrix, else any cells."""
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(FEATURES + QUOTED_IDS), min_size=2, max_size=4,
                              unique=True))
        cells = st.floats(-5.0, 5.0).map(repr)
        row = st.lists(cells, min_size=len(names), max_size=len(names))
        return [names, *draw(st.lists(row, min_size=2, max_size=6))]
    names = draw(st.lists(st.sampled_from(FEATURES + PLAIN_IDS), min_size=1, max_size=4))
    row = st.lists(VALUE_CELLS, min_size=len(names) - 1, max_size=len(names) + 1)
    return [names, *draw(st.lists(st.one_of(st.none(), row), max_size=6))]


@given(csv_texts(matrix_records()))
def test_matrix_reader_matches_the_row_reader(text):
    check_matrix_reader(text)


def check_matrix_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "matrix.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        expected = reference_read_matrix(path)

        def read(p):
            try:
                return _read_matrix(p)
            except UsageError as exc:
                return str(exc)

        got, readers = read_with_csv_reader_count(read, path)
    assert readers == 1  # one record stream per file, whatever its text
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0] == expected[0] and got[1].tobytes() == expected[1].tobytes()


# body lines that both readers read: a pair file takes the first cell as id
PLAIN_LINES = ["1,0.5,2,0.25,3", "2,-1.5,0.75,1e-3,4", "3,2.5,1,-0.5,0.5"]


@pytest.mark.parametrize(
    "lines",
    [
        [*PLAIN_LINES, "4,0.5,2,0.25"],
        [*PLAIN_LINES, "4,0.5,2,0.25,3,7"],
        [*PLAIN_LINES[:2], "  ", PLAIN_LINES[2]],
        [*PLAIN_LINES[:2], "", PLAIN_LINES[2]],
        [*PLAIN_LINES, "4,\x1c1,2,0.25,3"],
        [*PLAIN_LINES, "4,0.5,2,0.25,3\x1f"],
        [line.rpartition(",")[0] for line in PLAIN_LINES],
    ],
    ids=["three-commas", "five-commas", "whitespace-line", "blank-line", "x1c-cell", "x1f-cell",
         "every-line-three-commas"],
)
@pytest.mark.parametrize("end", ["\n", ""], ids=["newline-ended", "no-final-newline"])
def test_readers_match_the_row_readers_on_named_lines(lines, end):
    body = "\n".join(lines) + end
    check_pair_reader(",".join(PAIR_FIELDS) + "\n" + body)
    check_matrix_reader("g1,g2,g3,g4,g5\n" + body)


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline-ended", "no-final-newline"])
def test_plain_ascii_files_are_read_by_loadtxt(tmp_path, end):
    # one np.loadtxt call and no float() per cell: a fallback that reads the
    # same values would hide its cost from every equivalence test
    pairs, matrix = tmp_path / "pairs.csv", tmp_path / "matrix.csv"
    body = "\n".join(PLAIN_LINES) + end
    pairs.write_text(",".join(PAIR_FIELDS) + "\n" + body, encoding="utf-8")
    matrix.write_text("g1,g2,g3,g4,g5\n" + body, encoding="utf-8")
    (ids, batch), loadtxt, to_float = read_with_call_counts(lambda p: _read_pairs(p, True), pairs)
    assert (ids, loadtxt, to_float) == (["1", "2", "3"], 1, 0)
    (_, data), loadtxt, to_float = read_with_call_counts(_read_matrix, matrix)
    assert (data.shape, loadtxt, to_float) == ((3, 5), 1, 0)
    # CRLF and CR lines reach loadtxt too, each keeping its terminator
    for newline in ("\r\n", "\r"):
        text = (",".join(PAIR_FIELDS) + "\n" + body).replace("\n", newline)
        pairs.write_text(text, encoding="utf-8", newline="")
        (ids, got), loadtxt, to_float = read_with_call_counts(lambda p: _read_pairs(p, True), pairs)
        assert (ids, loadtxt, to_float) == (["1", "2", "3"], 1, 0)
        for name in PAIR_FIELDS[1:]:
            assert getattr(got, name).tobytes() == getattr(batch, name).tobytes()
    # a cell loadtxt would read and float() refuses never reaches loadtxt
    pairs.write_text(",".join(PAIR_FIELDS) + "\n" + body.replace(",2,", ",\x1c2,"))
    with mock.patch.object(np, "loadtxt") as loadtxt, \
            pytest.raises(UsageError, match="could not convert string to float"):
        _read_pairs(pairs, True)
    assert loadtxt.call_count == 0


def test_blank_line_keeps_a_plain_pair_file_from_loadtxt(tmp_path):
    # np.loadtxt skips a blank line, so it would number the rows after it
    # wrongly; the float() pass skips it too and reads the same rows
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    header = ",".join(PAIR_FIELDS) + "\n"
    plain.write_text(header + "\n".join(PLAIN_LINES) + "\n", encoding="utf-8")
    blank.write_text(header + "\n".join([*PLAIN_LINES[:2], "", PLAIN_LINES[2]]) + "\n",
                     encoding="utf-8")
    expected_ids, expected = _read_pairs(plain, True)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        ids, batch = _read_pairs(blank, True)
    assert (ids, loadtxt.call_count) == (expected_ids, 0)
    for name in PAIR_FIELDS[1:]:
        assert getattr(batch, name).tobytes() == getattr(expected, name).tobytes()


def test_float_pass_converts_each_kept_row_once(tmp_path, monkeypatch, capsys):
    # 100 good rows and one bad row: 4 float() calls a good row and one for
    # the bad row's first cell.  A float subclass counts the calls, as numpy
    # reads it as float64 where a mock is refused as a dtype.
    calls = []

    class CountingFloat(float):
        def __new__(cls, *args):
            calls.append(args)
            return super().__new__(cls, *args)

    pairs, rows = tmp_path / "pairs.csv", 100
    good = [f"p{i},0.5,1,{i},2" for i in range(rows)]
    pairs.write_text("\n".join([",".join(PAIR_FIELDS), *good, "bad,x,1,1,1"]) + "\n",
                     encoding="utf-8")
    monkeypatch.setattr(cli, "float", CountingFloat, raising=False)
    ids, batch = _read_pairs(pairs, False)
    assert ids == [f"p{i}" for i in range(rows)]
    assert batch.est2.tobytes() == np.arange(rows, dtype=float).tobytes()
    assert len(calls) <= 4 * rows + 1
    assert capsys.readouterr().err.startswith(f"warning: skipping {pairs}:{rows + 2}: could not")


def g10s_by_rows(values):
    """_g10s row by row, the reference for its one-pass form: (the bytes of
    the values the text reads back as, the text)."""
    rounded, text = [], []
    for value in values.tolist():
        cell = "1" if value == 1.0 else f"{value:.10g}"
        back = float(cell)
        if math.isinf(back) and math.isfinite(value):  # rounding passed the float range
            cell = "inf" if back > 0.0 else "-inf"
        rounded.append(back)
        text.append(cell)
    return np.array(rounded, float).tobytes(), text


@given(st.lists(st.one_of(FLOAT_CELLS, st.floats(1.79769313e308, 1.7976931348623157e308),
                          st.floats(-1.7976931348623157e308, -1.79769313e308), st.just(1.0)),
               max_size=8))
@example([1.0] * 4)  # every p-value at its clamp
@example([0.5, 1.0 - 2.0**-53, 1.0 + 2.0**-52, -1.0])  # no value at it
@example([1.7976931348623157e308, 1.0, -1.7976931348623157e308])  # text "inf", "1", "-inf"
def test_decision_columns_are_formatted_once(values):
    # the kept text is the 10-digit text of the rounded float, and that float
    # is what the text reads back as: the text of the value itself, except
    # where 10-digit rounding passes the float range and reads back as inf
    column = np.array(values, dtype=float)
    rounded = _g10s(column)
    assert rounded.text.dtype == object
    assert (rounded.values.tobytes(), rounded.text.tolist()) == g10s_by_rows(column)
    for value, back, text in zip(values, rounded.values.tolist(), rounded.text.tolist()):
        assert struct.pack("<d", back) == struct.pack("<d", float(f"{value:.10g}"))
        assert text == f"{back:.10g}"
        if math.isfinite(back) or not math.isfinite(value):
            assert text == f"{value:.10g}"


def log_uniform(low: float, high: float):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])


# the flag-only subcommands' numbers, out to the SE floor 1e-300, which they refuse
ESTIMATES = signed(log_uniform(-300.0, 300.0)) | st.just(0.0)
SES = log_uniform(-300.0, 300.0)
KAPPAS = log_uniform(-12.0, 300.0).map(lambda d: 1.0 + d)
ALPHAS = log_uniform(-323.0, math.log10(0.49)) | st.just(5e-324)


@st.composite
def flag_only_argv(draw):
    """argv of test (rd, omnibus, gs), kappa-max with pair flags or power
    (rd, omnibus); every value is written --flag=value, so negative values
    parse as values."""
    command = draw(st.sampled_from(["test", "kappa-max", "power"]))
    if command == "power":
        flags = {"--kind": draw(st.sampled_from(["rd", "omnibus"]))}
        for axis in ("c1", "c2"):
            flags[f"--{axis}-min"], flags[f"--{axis}-max"] = draw(
                st.tuples(ESTIMATES, ESTIMATES))
            flags[f"--{axis}-steps"] = draw(st.integers(1, 3))
        flags.update({"--sigma1": draw(SES), "--sigma2": draw(SES),
                      "--lambda": draw(st.floats(1e-12, 1.0 - 1e-9))})
    else:
        flags = {f"--{field}": draw(SES if field.startswith("se") else ESTIMATES)
                 for field in PAIR_FIELDS[1:]}
        if command == "test":
            flags["--kind"] = draw(st.sampled_from(["rd", "omnibus", "gs"]))
    if flags.get("--kind") != "gs" and command != "kappa-max":
        flags["--kappa"] = draw(KAPPAS)
    flags["--alpha"] = draw(ALPHAS)
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]


@settings(max_examples=300)
@example(["power", "--kind", "omnibus", "--alpha", "5e-324", "--sigma2", "1e10",
          "--c1-steps", "1", "--c2-steps", "1"])  # subnormal tails in the threshold search
@given(flag_only_argv())
def test_flag_only_commands_give_a_result_or_name_a_flag(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    if code == 0:
        assert "nan" not in out.lower() and err == "", (argv, out, err)
    else:
        named = {arg.split("=")[0].lstrip("-") for arg in argv if arg.startswith("--")}
        assert code == 2 and any(name in err for name in named), (argv, err)


def matrix_text(names, draw):
    """A matrix CSV of 3-8 rows: per column a scale 10**(-300..300) and a
    kind, where near-constant columns vary by 1e-15 relative and a
    collinear column is an affine map of an earlier one."""
    rows = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rows, len(names)))
    columns = []
    for j in range(len(names)):
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        kind = draw(st.sampled_from(["normal", "constant", "near-constant", "collinear"]))
        if kind == "constant":
            column = np.full(rows, z[0, j])
        elif kind == "near-constant":
            column = z[0, j] * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, rows))
        elif kind == "collinear" and j:
            column = rng.uniform(-2.0, 2.0) * z[:, draw(st.integers(0, j - 1))] + rng.uniform()
        else:
            column = z[:, j]
        columns.append(column * scale)
    cells = np.column_stack(columns).tolist()
    return "\n".join([",".join(names), *(",".join(map(repr, row)) for row in cells)])


@st.composite
def file_argv(draw):
    """(argv with {tmp} for the scratch directory, {file name: text}) of
    scan (rd, omnibus, gs; csv or json, to stdout or a file), network, or
    simulate with a grid of at most 8 points; values as in flag_only_argv,
    study values out to 1e308."""
    command = draw(st.sampled_from(["scan", "network", "simulate"]))
    flags, files = {"--alpha": draw(ALPHAS)}, {}
    if command == "scan":
        rows = draw(st.lists(st.tuples(ESTIMATES, SES, ESTIMATES, SES), min_size=1, max_size=6))
        files["pairs.csv"] = "\n".join(
            [",".join(PAIR_FIELDS), *(",".join([f"p{i}", *map(repr, row)])
                                      for i, row in enumerate(rows))])
        flags["--kind"] = draw(st.sampled_from(["rd", "omnibus", "gs"]))
        flags["--format"] = draw(st.sampled_from(["csv", "json"]))
        if draw(st.booleans()):
            flags["--output"] = "{tmp}/out"
        inputs = ["{tmp}/pairs.csv"]
    elif command == "network":
        names = [f"f{j}" for j in range(draw(st.integers(2, 5)))]
        files["g1.csv"], files["g2.csv"] = matrix_text(names, draw), matrix_text(names, draw)
        inputs = ["{tmp}/g1.csv", "{tmp}/g2.csv"]
    else:
        study_values = signed(log_uniform(-300.0, 308.0)) | st.just(0.0)
        lo, hi = sorted(draw(st.tuples(study_values, study_values)))
        points = draw(st.integers(1, 8))
        flags.update({
            "--theta1": draw(study_values),
            "--theta2-min": lo,
            "--theta2-max": hi,
            # points - 1 steps across the span, or one step past it
            "--theta2-step": ((hi - lo) / (points - 1) if points > 1 else 2.0 * (hi - lo)) or 1.0,
            "--n": draw(st.integers(3, 12)),
            "--reps": draw(st.integers(1, 4)),
            "--kappas": draw(log_uniform(-12.0, 300.0).map(lambda d: 1.0 + d)),
            "--seed": draw(st.integers(0, 2**64 - 1)),
            "--output": "{tmp}/study",
        })
        inputs = []
    if command != "simulate" and (command == "network" or flags["--kind"] != "gs"):
        flags["--kappa"] = draw(KAPPAS)
    return [command, *inputs, *(f"{flag}={value}" for flag, value in flags.items())], files


@settings(max_examples=200)
@given(file_argv())
def test_file_commands_give_a_result_or_name_a_flag(case):
    template, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text + "\n", encoding="utf-8")
        argv = [arg.replace("{tmp}", tmp) for arg in template]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
        written = {path.name: path.read_text(encoding="utf-8")
                   for path in Path(tmp).iterdir() if path.name not in files}
    if code == 0:
        assert "nan" not in out.lower(), (argv, out)
        assert not any("nan" in text.lower() for text in written.values()), (argv, written)
    else:
        # a flag as a word, so that --n is not named by every n in the text
        flags = {arg.split("=")[0].lstrip("-") for arg in argv if arg.startswith("--")}
        paths = [arg for arg in argv[1:] if not arg.startswith("--")]
        assert code == 2 and (
            any(re.search(rf"(?<!\w){flag}(?![\w-])", err) for flag in flags)
            or any(path in err for path in paths)
        ), (argv, err)


# ---------------------------------------------------------------------------
# top-level dispatch
# ---------------------------------------------------------------------------


class TestMain:
    def test_no_subcommand_is_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_cleanly(self, capsys):
        code = main(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa-max" in out

    @pytest.mark.parametrize(
        "command", ["test", "scan", "network", "power", "simulate", "kappa-max"]
    )
    def test_subcommand_help_exits_cleanly(self, capsys, command):
        code = main([command, "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(f"usage: qualint {command}")

    def test_successive_calls_match_fresh_calls(self, tmp_path):
        # the parser is built once per process and reused by every call
        commands = [
            ["test", "--est1", "1.3", "--se1", "0.4", "--est2", "0.2", "--se2", "0.3"],
            ["power", "--c1-steps", "2", "--c2-steps", "3", "--format", "json"],
            ["kappa-max", "--est1", "1.3", "--se1", "0.4", "--est2", "0.2", "--se2", "0.3"],
        ]
        fresh = []
        for argv in commands:
            _build_parser.cache_clear()
            fresh.append(run_cli(argv))
        assert _build_parser() is _build_parser()
        # simulate reads the list defaults of --n and --kappas
        study = ["simulate", "--reps", "2", "--theta2-step", "1", "--output", str(tmp_path / "s")]
        assert run_cli(study)[0] == 0
        assert [run_cli(argv) for argv in commands] == fresh
        defaults = _build_parser().parse_args(["simulate"])
        assert defaults.n == [50, 100] and defaults.kappas == [2.0, 4.0]

    SIMULATE = ["simulate", "--n", "10", "--reps", "2", "--theta2-step", "1", "--output"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["scan", "{pairs}"], ["--seed", "1"]),
            (["network", "{matrix}", "{matrix}"], ["--strict"]),
            (["power", "--c1-steps", "1", "--c2-steps", "1"], ["--seed", "1"]),
            # --kappa must not pass for an abbreviation of --kappas
            ([*SIMULATE, "{tmp}/study"], ["--kappa", "3"]),
            ([*SIMULATE, "{tmp}/study"], ["--format", "json"]),
            (["kappa-max", "{pairs}"], ["--kappa", "3"]),
            (["test", "--est1", "1", "--se1", "0.2", "--est2", "0", "--se2", "0.2"],
             ["--format", "json"]),
        ],
        ids=lambda value: value[0],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(
        self, tmp_path, capsys, argv, flag
    ):
        # without the flag each command line is valid and succeeds
        pairs, matrix = tmp_path / "pairs.csv", tmp_path / "matrix.csv"
        write_pairs(pairs, TABLE_ROWS[:2])
        write_matrix(matrix, ["a", "b", "c"], np.random.default_rng(8).normal(size=(10, 3)))
        argv = [arg.format(pairs=pairs, matrix=matrix, tmp=tmp_path) for arg in argv]
        assert main(argv) == 0
        capsys.readouterr()
        code = main([*argv, *flag])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--est1", "1", "--se1", "0.5", "--est2", "{value}", "--se2", "0.3"],
            ["kappa-max", "--est1", "{value}", "--se1", "0.5", "--est2", "1", "--se2", "0.3"],
            ["power", "--c1-min", "{value}", "--c1-steps", "2", "--c2-steps", "2"],
            ["simulate", "--theta1", "{value}", "--theta2-min", "{value}", "--theta2-max", "0",
             "--n", "10", "--reps", "2", "--kappas", "2", "--output", "{tmp}/s"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_number_in_any_spelling_is_a_value(self, tmp_path, argv):
        # every spelling of -0.001 that float() reads runs as -0.001 does;
        # argparse's own test took the exponent forms for flags
        def run(value):
            result = run_cli([arg.format(value=value, tmp=tmp_path) for arg in argv])
            return result, sorted((path.name, path.read_text()) for path in tmp_path.iterdir())

        expected = run("-0.001")
        assert expected[0][0] == 0
        for value in ("-1e-3", "-1E-3", "-.1e-2", "-0.01e-1", "-1_0e-4", "-1.e-3"):
            assert run(value) == expected

    @given(st.one_of(st.text("-+._0123456789eEinfatyINFATY", max_size=10),
                     st.floats().map(lambda x: f"-{abs(x)!r}")))
    @example("-1e-3")
    @example("-1_0.0_1E+0_5")
    def test_negative_number_matcher_reads_what_float_reads(self, token):
        try:
            float(token)
        except ValueError:
            reads = False
        else:
            reads = token.startswith("-")
        assert bool(cli._NEGATIVE_NUMBER.match(token)) == reads

    @pytest.mark.parametrize(
        "flags, code, text",
        [
            (["-h"], 0, "usage: qualint test"),
            (["--alpha", "-1"], 2, "error: alpha must lie in (0, 1), got -1.0\n"),
            (["--est2", "-e3"], 2, "argument --est2: expected one argument"),
        ],
        ids=["help", "negative-alpha", "not-a-number"],
    )
    def test_other_dashed_tokens_keep_their_reading(self, flags, code, text):
        result = run_cli(["test", "--est1", "1", "--se1", "0.5", "--est2", "1", "--se2", "0.3",
                          *flags])
        assert result[0] == code and text in result[1] + result[2]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # an input that cannot be read is a usage error naming it
            (["scan", "{tmp}/missing/p.csv"], 2,
             "error: cannot read {tmp}/missing/p.csv: "
             "[Errno 2] No such file or directory: '{tmp}/missing/p.csv'"),
            (["scan", "{tmp}"], 2, "error: cannot read {tmp}: [Errno 21] Is a directory: '{tmp}'"),
            # an output that cannot be written is an i/o failure
            (["scan", "{pairs}", "--output", "{tmp}/missing/out.csv"], 1,
             "i/o failure: [Errno 2] No such file or directory: '{tmp}/missing/out.csv'"),
            (["test", "--est1", "1", "--se1", "0.1", "--est2", "0.2", "--se2", "0.1",
              "--output", "{tmp}"], 1, "i/o failure: [Errno 21] Is a directory: '{tmp}'"),
            (["simulate", "--n", "10", "--reps", "2", "--theta2-step", "1",
              "--output", "{tmp}/missing/st"], 1,
             "i/o failure: [Errno 2] No such file or directory: '{tmp}/missing/st_n10_rates.csv'"),
        ],
        ids=["missing-input", "directory-input", "missing-output-directory",
             "directory-output", "study-output-in-missing-directory"],
    )
    def test_unreadable_input_or_unwritable_output(self, tmp_path, capsys, argv, code, message):
        pairs = tmp_path / "pairs.csv"
        write_pairs(pairs, TABLE_ROWS[:2])
        argv = [arg.format(pairs=pairs, tmp=tmp_path) for arg in argv]
        assert (main(argv), capsys.readouterr().err) == (code, message.format(tmp=tmp_path) + "\n")

    @pytest.mark.parametrize(
        "argv, target, error, message",
        [
            (["power", "--c1-steps", "2", "--c2-steps", "2"], "rd_local_power",
             MemoryError("Unable to allocate 74.5 GiB for an array"),
             "memory failure: power: Unable to allocate 74.5 GiB for an array\n"),
            (["scan", "{pairs}"], "_read_pairs", MemoryError(),
             "memory failure: scan: out of memory\n"),
        ],
        ids=["with-message", "bare"],
    )
    def test_memory_error_is_a_runtime_failure(
        self, tmp_path, capsys, monkeypatch, argv, target, error, message
    ):
        # the handler's callee raises as an allocation that fails would;
        # nothing here asks for the memory
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, out_of_memory)
        argv = [arg.format(pairs=tmp_path / "pairs.csv") for arg in argv]
        assert (main(argv), capsys.readouterr()) == (1, ("", message))

    def test_kernel_domain_error_is_a_numerical_failure(self, capsys, monkeypatch):
        # the validators accepted the input, so a kernel that refuses the
        # statistic it is handed is a numerical failure (1), not usage (2)
        argv = ["scan", str(Path(__file__).parent / "golden" / "pairs.csv"),
                "--kind", "omnibus", "--kappa", "1.5", "--alpha", "0.1"]
        statistic = inference._omnibus_stat

        def nan_statistic(rows, m, s):
            t, region = statistic(rows, m, s)
            return np.full_like(t, np.nan), region

        monkeypatch.setattr(inference, "_omnibus_stat", nan_statistic)
        code = main(argv)
        assert (code, capsys.readouterr().err) == (
            1, "numerical failure: chi2_1_tail requires a non-NaN argument\n"
        )
        # a validator's error still exits 2
        code = main([*argv[:-3], "0.5", *argv[-2:]])
        assert (code, capsys.readouterr().err) == (2, "error: kappa must be > 1, got 0.5\n")
        # and library callers still get a ValueError
        with pytest.raises(ValueError, match="^chi2_1_tail requires a non-NaN argument$"):
            chi2_1_tail(math.nan)
