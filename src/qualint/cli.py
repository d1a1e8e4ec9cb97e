"""Command-line front end: pair tests, batch scans, network scans, power grids.

Subcommands
-----------
test       one estimate pair -> JSON verdict
scan       PairRecord CSV -> ScanResult CSV/JSON with multiplicity adjustment
network    two sample-by-feature matrices -> differential-correlation edges
power      local asymptotic power over a (c1, c2) grid -> CSV/JSON
simulate   seeded Monte Carlo study -> rate and quantile files + config echo
kappa-max  effect-ratio summary for a pair or a CSV of pairs

Conventions shared by every command: numeric output is serialized with 10
significant digits, and downstream decisions (Bonferroni adjustment,
rejection flags) are computed from the serialized values so that re-parsing
our own output reproduces them exactly.  Exit codes: 0 success, 1
runtime/numerical failure, 2 usage or validation failure.  Input CSV is
comma-separated UTF-8 with a mandatory header row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from qualint.estimators import EstimationError, FeatureMatrix, pearson
from qualint.inference import (
    EstimatePair,
    LocalAlternative,
    PairBatch,
    SubgroupEstimate,
    gail_simon_test,
    kappa_max,
    omnibus_local_power,
    omnibus_test,
    rd_local_power,
    rd_test,
)
from qualint.simulation import SimulationConfig, run_rejection_study

__all__ = ["PairRecord", "ScanResult", "main"]

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


class _Output:
    """Write to --output PATH or stdout; newline-stable for byte-identical runs."""

    def __init__(self, path: str | None):
        self.path = path
        self._handle = None

    def __enter__(self) -> io.TextIOBase:
        if self.path is None:
            self._handle = sys.stdout
        else:
            self._handle = open(self.path, "w", encoding="utf-8", newline="")
        return self._handle

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None and self._handle is not sys.stdout:
            self._handle.close()


def _emit_csv(out, fieldnames, rows, footer: str | None = None) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_cell(row[name]) for name in fieldnames])
    if footer is not None:
        out.write(footer + "\n")


def _emit_json(out, rows, summary: dict | None = None) -> None:
    payload: dict = {"results": rows}
    if summary is not None:
        payload["summary"] = summary
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    """One row of a pair-scan input file."""

    id: str
    est1: float
    se1: float
    est2: float
    se2: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("id must be nonempty")
        for name in ("est1", "se1", "est2", "se2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.se1 <= 0.0 or self.se2 <= 0.0:
            raise ValueError("standard errors must be positive")


def _pair_batch(records: list[PairRecord]) -> PairBatch:
    return PairBatch.from_rows((r.est1, r.se1, r.est2, r.se2) for r in records)


@dataclass(frozen=True)
class ScanResult:
    """One adjusted scan row; p_adjusted is never below p_raw."""

    id: str
    statistic: float
    p_raw: float
    p_adjusted: float
    kappa_max: float | None
    rejected: bool

    def __post_init__(self) -> None:
        if self.p_adjusted < self.p_raw or self.p_adjusted > 1.0:
            raise ValueError("p_adjusted must lie in [p_raw, 1]")


def _read_pair_records(path: str, strict: bool) -> list[PairRecord]:
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    problems: list[str] = []
    records: list[PairRecord] = []
    seen: set[str] = set()
    with handle:
        reader = csv.DictReader(handle)
        header = tuple(reader.fieldnames or ())
        if header != _PAIR_FIELDS:
            raise UsageError(
                f"{path}: expected header {','.join(_PAIR_FIELDS)}, "
                f"got {','.join(header) if header else '(none)'}"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                record = PairRecord(
                    id=(row["id"] or "").strip(),
                    est1=float(row["est1"]),
                    se1=float(row["se1"]),
                    est2=float(row["est2"]),
                    se2=float(row["se2"]),
                )
                if record.id in seen:
                    raise ValueError(f"duplicate id {record.id!r}")
            except (TypeError, ValueError) as exc:
                problems.append(f"{path}:{line_no}: {exc}")
                continue
            seen.add(record.id)
            records.append(record)
    if problems:
        if strict:
            raise UsageError("invalid rows:\n  " + "\n  ".join(problems))
        for problem in problems:
            _warn(f"skipping {problem}")
    return records


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
    with _Output(args.output) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_records(
    records: list[PairRecord], kind: str, kappa: float, alpha: float, adjust: str
) -> list[ScanResult]:
    m = len(records)
    batch = _pair_batch(records)
    outcome = _run_pair_test(batch, kind, kappa, alpha)
    if kind == "rd":
        bounds = [_g10(k) for k in kappa_max(batch, alpha).kappa_max.tolist()]
    else:
        bounds = [None] * m
    results = []
    for record, statistic, p_value, km in zip(
        records, outcome.statistic.tolist(), outcome.p_value.tolist(), bounds
    ):
        p_raw = _g10(p_value)
        p_adj = _g10(min(1.0, m * p_raw)) if adjust == "bonferroni" else p_raw
        results.append(
            ScanResult(
                id=record.id,
                statistic=_g10(statistic),
                p_raw=p_raw,
                p_adjusted=p_adj,
                kappa_max=km,
                rejected=bool(p_adj < alpha),
            )
        )
    results.sort(key=lambda r: (r.p_adjusted, r.id))
    return results


def _cmd_scan(args) -> int:
    if args.kind == "rd" and not args.alpha < 0.5:
        raise UsageError("rd scans report kappa_max, which requires --alpha < 0.5")
    records = _read_pair_records(args.input, args.strict)
    results = _scan_records(records, args.kind, args.kappa, args.alpha, args.adjust)
    fieldnames = ("id", "statistic", "p_raw", "p_adjusted", "kappa_max", "rejected")
    rows = [
        {
            "id": r.id,
            "statistic": r.statistic,
            "p_raw": r.p_raw,
            "p_adjusted": r.p_adjusted,
            "kappa_max": r.kappa_max,
            "rejected": r.rejected,
        }
        for r in results
    ]
    with _Output(args.output) as out:
        if args.format == "json":
            _emit_json(out, rows, summary={"tested": len(records)})
        else:
            _emit_csv(out, fieldnames, rows)
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
        for line_no, row in enumerate(reader, start=2):
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
    edges = []
    rejected_count = 0
    for a, b, est1, est2, statistic, p_value in zip(
        first[kept].tolist(),
        second[kept].tolist(),
        r1.tolist(),
        r2.tolist(),
        outcome.statistic.tolist(),
        outcome.p_value.tolist(),
    ):
        p_raw = _g10(p_value)
        p_adj = _g10(min(1.0, m * p_raw)) if args.adjust == "bonferroni" else p_raw
        if p_adj < args.alpha:
            rejected_count += 1
        if abs(est1) > abs(est2):
            stronger = 1
        elif abs(est2) > abs(est1):
            stronger = 2
        else:
            stronger = 0  # exact tie: neither group dominates
        edges.append(
            {
                "feature_a": features[a],
                "feature_b": features[b],
                "r1": _g10(est1),
                "r2": _g10(est2),
                "statistic": _g10(statistic),
                "p_raw": p_raw,
                "p_adjusted": p_adj,
                "stronger_group": stronger,
            }
        )
    edges.sort(key=lambda e: (e["p_adjusted"], e["feature_a"], e["feature_b"]))

    summary = {
        "features": p,
        "pairs": total_pairs,
        "tested": m,
        "skipped": skipped,
        "rejected": rejected_count,
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
        f"skipped={skipped} rejected={rejected_count}"
    )
    with _Output(args.output) as out:
        if args.format == "json":
            _emit_json(out, edges, summary=summary)
        else:
            _emit_csv(out, fieldnames, edges, footer=footer)
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
    rows = [
        {"c1": _g10(a), "c2": _g10(b), "power": _g10(value)}
        for a, b, value in zip(c1.tolist(), c2.tolist(), powers.tolist())
    ]
    with _Output(args.output) as out:
        if args.format == "json":
            _emit_json(out, rows)
        else:
            _emit_csv(out, ("c1", "c2", "power"), rows)
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
        rates_path = f"{prefix}_n{n}_rates.csv"
        with open(rates_path, "w", encoding="utf-8", newline="") as out:
            _emit_csv(
                out,
                ("theta2", "kappa", "test", "rejection_rate", "mc_se"),
                [
                    {key: _g10(v) if isinstance(v, float) else v for key, v in row.items()}
                    for row in result.rate_rows()
                ],
            )
        written.append(rates_path)
        if result.kappa_max_quantiles:
            quant_path = f"{prefix}_n{n}_kappa_max.csv"
            with open(quant_path, "w", encoding="utf-8", newline="") as out:
                _emit_csv(
                    out,
                    ("theta2", "q10", "q50", "q90"),
                    [
                        {k: _g10(v) for k, v in row.items()}
                        for row in result.quantile_rows()
                    ],
                )
            written.append(quant_path)
    config_path = f"{prefix}_config.json"
    with open(config_path, "w", encoding="utf-8", newline="") as out:
        json.dump(
            {
                "theta1": args.theta1,
                "theta2_grid": list(grid),
                "n": list(args.n),
                "replications": args.reps,
                "kappas": list(args.kappas),
                "alpha": args.alpha,
                "seed": args.seed,
            },
            out,
            indent=2,
            sort_keys=True,
        )
        out.write("\n")
    written.append(config_path)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# kappa-max
# ---------------------------------------------------------------------------


def _kappa_max_payloads(batch: PairBatch, alpha: float) -> list[dict]:
    """The kappa-max JSON payload of every row of the batch."""
    summaries = kappa_max(batch, alpha)
    context = {_num(k): rd_test(batch, k, alpha).p_value.tolist() for k in _CONTEXT_KAPPAS}
    payloads = []
    for i in range(len(batch)):
        summary = summaries[i]
        roots = None
        if summary.roots is not None:
            pi1, pi2 = summary.roots
            roots = {
                "normal_boundary": _g10(pi1),
                "zero_point": None if math.isinf(pi2) else _g10(pi2),
            }
        payloads.append(
            {
                "kappa_max": _g10(summary.kappa_max),
                "alpha": _g10(alpha),
                "binding_root": summary.binding_root,
                "roots": roots,
                "p_values": {k: _g10(p[i]) for k, p in context.items()},
            }
        )
    return payloads


def _cmd_kappa_max(args) -> int:
    if args.input is None:
        if None in (args.est1, args.se1, args.est2, args.se2):
            raise UsageError(
                "kappa-max needs either an input CSV or all of "
                "--est1/--se1/--est2/--se2"
            )
        batch = PairBatch.from_rows([(args.est1, args.se1, args.est2, args.se2)])
        (payload,) = _kappa_max_payloads(batch, args.alpha)
        with _Output(args.output) as out:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        return 0

    records = _read_pair_records(args.input, args.strict)
    rows = []
    for record, payload in zip(records, _kappa_max_payloads(_pair_batch(records), args.alpha)):
        rows.append(
            {
                "id": record.id,
                "kappa_max": payload["kappa_max"],
                "binding_root": payload["binding_root"],
                "p_rd_1.5": payload["p_values"]["1.5"],
                "p_rd_2": payload["p_values"]["2"],
                "p_rd_4": payload["p_values"]["4"],
            }
        )
    rows.sort(key=lambda r: (-r["kappa_max"], r["id"]))
    fieldnames = ("id", "kappa_max", "binding_root", "p_rd_1.5", "p_rd_2", "p_rd_4")
    with _Output(args.output) as out:
        if args.format == "json":
            _emit_json(out, rows)
        else:
            _emit_csv(out, fieldnames, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=0.05, help="test level")
    common.add_argument("--kappa", type=float, default=2.0, help="ratio bound > 1")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (simulate)")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="tabular output format"
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="fail on invalid input rows instead of skipping with a warning",
    )

    parser = argparse.ArgumentParser(
        prog="qualint",
        description="Tests and summaries for qualitative interactions "
        "between two sub-populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", parents=[common], help="test one estimate pair")
    p_test.add_argument("--kind", choices=("rd", "omnibus", "gs"), default="rd")
    p_test.add_argument("--est1", type=float, required=True)
    p_test.add_argument("--se1", type=float, required=True)
    p_test.add_argument("--est2", type=float, required=True)
    p_test.add_argument("--se2", type=float, required=True)
    p_test.set_defaults(handler=_cmd_test)

    p_scan = sub.add_parser("scan", parents=[common], help="scan a PairRecord CSV")
    p_scan.add_argument("input", help="CSV with header id,est1,se1,est2,se2")
    p_scan.add_argument("--kind", choices=("rd", "omnibus", "gs"), default="rd")
    p_scan.add_argument(
        "--adjust", choices=("bonferroni", "none"), default="bonferroni"
    )
    p_scan.set_defaults(handler=_cmd_scan)

    p_net = sub.add_parser(
        "network", parents=[common], help="differential-correlation edge scan"
    )
    p_net.add_argument("matrix1", help="group-1 matrix CSV (features in header)")
    p_net.add_argument("matrix2", help="group-2 matrix CSV (same features)")
    p_net.add_argument(
        "--adjust", choices=("bonferroni", "none"), default="bonferroni"
    )
    p_net.set_defaults(handler=_cmd_network)

    p_power = sub.add_parser(
        "power", parents=[common], help="local asymptotic power grid"
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
    p_power.set_defaults(handler=_cmd_power)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="seeded Monte Carlo study"
    )
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
    p_sim.set_defaults(handler=_cmd_simulate)

    p_km = sub.add_parser(
        "kappa-max", parents=[common], help="largest kappa still rejected"
    )
    p_km.add_argument("input", nargs="?", help="optional PairRecord CSV")
    p_km.add_argument("--est1", type=float)
    p_km.add_argument("--se1", type=float)
    p_km.add_argument("--est2", type=float)
    p_km.add_argument("--se2", type=float)
    p_km.set_defaults(handler=_cmd_kappa_max)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.handler(args)
    except (ValueError, EstimationError) as exc:
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
