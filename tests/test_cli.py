"""End-to-end checks for the command-line interface.

Everything goes through ``qualint.cli.main`` with an argv list -- no
subprocesses -- so exit codes, stdout payloads, and emitted files can be
asserted directly.  The serialization contract under test: every numeric
column carries 10 significant digits, and re-parsing our own output
reproduces the adjustment and rejection decisions exactly.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from qualint.cli import main

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


# ---------------------------------------------------------------------------
# scan subcommand
# ---------------------------------------------------------------------------


class TestScanCommand:
    def scan(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

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
        assert "alpha" in err

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
                ("a", "k"): "y is constant; correlation is undefined",
                ("k", "b"): "x is constant; no slope or correlation exists",
            }),
            # a constant whose mean is inexact is skipped in both positions too
            (1, lambda d: np.full(d.shape[0], 0.1), {
                ("a", "k"): "y is constant; correlation is undefined",
                ("k", "b"): "x is constant; no slope or correlation exists",
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

    def test_unbalanced_lambda_accepted(self, capsys):
        code = main(
            ["power", "--c1-steps", "1", "--c2-steps", "1", "--lambda", "0.25"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(parse_csv(out)) == 1


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

    def test_bad_grid_is_usage_error(self, capsys):
        code = main(["simulate", "--theta2-min", "1", "--theta2-max", "0"])
        capsys.readouterr()
        assert code == 2


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
        assert payload["roots"]["normal_boundary"] == payload["kappa_max"]
        assert payload["roots"]["zero_point"] is None  # no finite crossing
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
        assert payload["roots"] is None

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

    def test_missing_inputs_is_usage_error(self, capsys):
        code = main(["kappa-max", "--est1", "1", "--se1", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "kappa-max needs" in err


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
