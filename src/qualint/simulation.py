"""Seeded Monte Carlo engine: rejection-rate curves, kappa_max bands, oracles.

The synthetic model is linear: X ~ N(0, 1), Y = theta * X + eps with
eps ~ N(0, 1).  A study draws, for every (theta2 grid point, replicate),
one sample per group (group 1 at theta1, group 2 at theta2), estimates the
slopes by OLS, and runs the relative-difference and omnibus tests at each
configured kappa, plus the kappa_max inversion.  Estimation runs replicate
by replicate; the tests and the inversion then run once per kappa on the
whole study's estimates as one batch.

Reproducibility contract: the stream for replicate r of grid point g is
``numpy.random.default_rng([seed, g, r])``; the group-1 sample is drawn
before the group-2 sample from that stream.  Results are therefore
bit-identical for a given config regardless of how many workers execute
the replicates.

Replicates whose estimation degenerates (an event with probability zero
under the model, but possible with adversarial configs) are dropped and
counted per grid point; rates are computed over the surviving replicates
rather than silently resampled.

``mc_null_oracle`` is the validation oracle for the analytic null tails:
it samples estimate pairs from the limiting normal at theta = 0,
computes the chosen statistic for all of them in one batch, and returns an
immutable empirical exceedance function.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from qualint.estimators import EstimationError, Sample2D, ols_slope
from qualint.inference import (
    PairBatch,
    kappa_max,
    omnibus_statistic,
    omnibus_test,
    rd_statistic,
    rd_test,
)

__all__ = [
    "EmpiricalTail",
    "RateCell",
    "SimulationConfig",
    "StudyResult",
    "generate_dataset",
    "mc_null_oracle",
    "run_kappa_max_study",
    "run_rejection_study",
]

_KMAX_QUANTILES = (0.10, 0.50, 0.90)
_TEST_KINDS = ("rd", "omnibus")


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one study; immutable and hashable once constructed."""

    theta1: float
    theta2_grid: tuple[float, ...]
    n: int
    replications: int
    kappas: tuple[float, ...]
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta1", float(self.theta1))
        object.__setattr__(
            self, "theta2_grid", tuple(float(v) for v in self.theta2_grid)
        )
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "seed", int(self.seed))
        if not math.isfinite(self.theta1):
            raise ValueError("theta1 must be finite")
        if not self.theta2_grid:
            raise ValueError("theta2_grid must be nonempty")
        if not all(math.isfinite(v) for v in self.theta2_grid):
            raise ValueError("theta2_grid must be finite")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not self.kappas or not all(
            math.isfinite(k) and k > 1.0 for k in self.kappas
        ):
            raise ValueError("kappas must be a nonempty tuple of values > 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class RateCell:
    """One rejection-rate estimate at a (theta2, kappa, test) cell."""

    theta2: float
    kappa: float
    test: str
    rejection_rate: float
    mc_std_error: float
    replicates: int


@dataclass(frozen=True)
class StudyResult:
    """Long-format rejection rates plus per-theta2 kappa_max quantiles.

    ``rates`` is ordered by (grid position, kappa position, test kind).
    ``kappa_max_quantiles`` maps theta2 -> {0.1: v, 0.5: v, 0.9: v}; it is
    empty when the study did not compute the inversion.  ``dropped`` counts
    discarded replicates per theta2 (degenerate estimation).
    """

    config: SimulationConfig
    rates: tuple[RateCell, ...]
    kappa_max_quantiles: Mapping[float, Mapping[float, float]]
    dropped: Mapping[float, int] = field(default_factory=dict)

    def rate(self, theta2: float, kappa: float, test: str) -> RateCell:
        for cell in self.rates:
            if (
                cell.test == test
                and math.isclose(cell.theta2, theta2, abs_tol=1e-12)
                and math.isclose(cell.kappa, kappa, abs_tol=1e-12)
            ):
                return cell
        raise KeyError(f"no rate cell for theta2={theta2}, kappa={kappa}, {test!r}")

    def rate_rows(self) -> list[dict]:
        """Long-format rows (theta2, kappa, test, rejection_rate, mc_se)."""
        return [
            {
                "theta2": c.theta2,
                "kappa": c.kappa,
                "test": c.test,
                "rejection_rate": c.rejection_rate,
                "mc_se": c.mc_std_error,
            }
            for c in self.rates
        ]

    def quantile_rows(self) -> list[dict]:
        """One row per theta2 with the 0.10/0.50/0.90 kappa_max quantiles."""
        return [
            {
                "theta2": theta2,
                "q10": qs[0.10],
                "q50": qs[0.50],
                "q90": qs[0.90],
            }
            for theta2, qs in self.kappa_max_quantiles.items()
        ]

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "theta1": self.config.theta1,
                "theta2_grid": list(self.config.theta2_grid),
                "n": self.config.n,
                "replications": self.config.replications,
                "kappas": list(self.config.kappas),
                "alpha": self.config.alpha,
                "seed": self.config.seed,
            },
            "rates": self.rate_rows(),
            "kappa_max_quantiles": [
                {"theta2": t, **{f"q{int(q * 100)}": v for q, v in qs.items()}}
                for t, qs in self.kappa_max_quantiles.items()
            ],
            "dropped": {str(t): c for t, c in self.dropped.items()},
        }


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def generate_dataset(theta: float, n: int, rng_stream: np.random.Generator) -> Sample2D:
    """Draw n pairs from the linear model Y = theta X + eps, X, eps ~ N(0,1).

    Consumes exactly 2n variates from the stream: the x block first, then
    the noise block.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    x = rng_stream.standard_normal(n)
    y = theta * x + rng_stream.standard_normal(n)
    return Sample2D(x, y)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _replicate_stream(seed: int, grid_index: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng([seed, grid_index, replicate])


def _estimate_grid_point(
    config: SimulationConfig, grid_index: int
) -> tuple[list[tuple[float, float, float, float]], int]:
    """(est1, se1, est2, se2) of every valid replicate at one grid point,
    and the number of replicates dropped for degenerate estimation."""
    theta2 = config.theta2_grid[grid_index]
    rows = []
    dropped = 0
    for replicate in range(config.replications):
        rng = _replicate_stream(config.seed, grid_index, replicate)
        try:
            sample1 = generate_dataset(config.theta1, config.n, rng)
            sample2 = generate_dataset(theta2, config.n, rng)
            fit1, fit2 = ols_slope(sample1), ols_slope(sample2)
        except EstimationError:
            dropped += 1
            continue
        rows.append((fit1.estimate, fit1.std_error, fit2.estimate, fit2.std_error))
    return rows, dropped


def _run_study(
    config: SimulationConfig, want_rates: bool, want_kmax: bool, workers: int
) -> StudyResult:
    # kappa_max inversion is defined for alpha < 1/2 only; rate-only studies
    # at larger alpha simply skip the inversion summaries
    want_kmax = want_kmax and config.alpha < 0.5
    indices = range(len(config.theta2_grid))
    task = lambda gi: _estimate_grid_point(config, gi)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(task, indices))
    else:
        outcomes = [task(gi) for gi in indices]

    # the whole study is tested in one batch per kappa; replicates of grid
    # point gi are rows bounds[gi]:bounds[gi + 1]
    batch = PairBatch.from_rows(row for rows, _ in outcomes for row in rows)
    bounds = np.cumsum([0] + [len(rows) for rows, _ in outcomes]).tolist()
    rejected = {}
    if want_rates:
        for kappa in config.kappas:
            rejected[(kappa, "rd")] = rd_test(batch, kappa, config.alpha).rejected
            rejected[(kappa, "omnibus")] = omnibus_test(batch, kappa, config.alpha).rejected
    kmax = kappa_max(batch, config.alpha).kappa_max if want_kmax else None

    rates: list[RateCell] = []
    quantile_map: dict[float, dict[float, float]] = {}
    dropped: dict[float, int] = {}
    for gi in indices:
        theta2 = config.theta2_grid[gi]
        lo, hi = bounds[gi], bounds[gi + 1]
        valid = hi - lo
        if outcomes[gi][1]:
            dropped[theta2] = outcomes[gi][1]
        if valid == 0:
            continue
        for (kappa, test), flags in rejected.items():
            p_hat = int(flags[lo:hi].sum()) / valid
            rates.append(
                RateCell(
                    theta2=theta2,
                    kappa=kappa,
                    test=test,
                    rejection_rate=p_hat,
                    mc_std_error=math.sqrt(p_hat * (1.0 - p_hat) / valid),
                    replicates=valid,
                )
            )
        if kmax is not None:
            quantile_map[theta2] = {
                q: float(np.quantile(kmax[lo:hi], q)) for q in _KMAX_QUANTILES
            }
    return StudyResult(
        config=config,
        rates=tuple(rates),
        kappa_max_quantiles=quantile_map,
        dropped=dropped,
    )


def run_rejection_study(config: SimulationConfig, workers: int = 1) -> StudyResult:
    """Rejection-rate curves for both tests at every configured kappa.

    Also accumulates kappa_max values per replicate (when alpha < 1/2, the
    inversion's domain), so the result carries quantile summaries alongside
    the rates.  Deterministic in config alone; ``workers`` only parallelizes
    the estimation of grid points.
    """
    return _run_study(config, want_rates=True, want_kmax=True, workers=workers)


def run_kappa_max_study(config: SimulationConfig, workers: int = 1) -> StudyResult:
    """Empirical 0.10/0.50/0.90 quantiles of kappa_max per theta2 grid point."""
    if not config.alpha < 0.5:
        raise ValueError("kappa_max studies require alpha < 0.5")
    return _run_study(config, want_rates=False, want_kmax=True, workers=workers)


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the analytic null tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalTail:
    """Empirical exceedance function over a frozen sorted sample.

    Immutable after construction; safe to share across threads.  Query with
    ``tail(t)`` or ``tail.exceedance(t)`` for any t > 0.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.sort(np.asarray(self.values, dtype=float))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def draws(self) -> int:
        return int(self.values.shape[0])

    def exceedance(self, t: float) -> float:
        """Fraction of draws strictly above t."""
        if not t > 0.0:
            raise ValueError(f"tail queries require t > 0, got {t!r}")
        below_or_equal = int(np.searchsorted(self.values, t, side="right"))
        return (self.draws - below_or_equal) / self.draws

    __call__ = exceedance

    def __repr__(self) -> str:
        return f"EmpiricalTail(draws={self.draws})"


def mc_null_oracle(
    kappa: float,
    se1: float,
    se2: float,
    draws: int,
    rng_stream: np.random.Generator,
    test_kind: str,
) -> EmpiricalTail:
    """Sample the chosen statistic's null distribution at theta = (0, 0).

    Estimate pairs come straight from the limiting normal N(0, se1^2) x
    N(0, se2^2); the statistic is computed in one batch by the same code
    the tests use.  At least 10^4 draws are required for the
    tail to be worth querying.
    """
    if draws < 10_000:
        raise ValueError(f"draws must be >= 10000, got {draws}")
    if test_kind not in _TEST_KINDS:
        raise ValueError(f"test_kind must be one of {_TEST_KINDS}, got {test_kind!r}")
    if not (kappa >= 1.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be >= 1, got {kappa!r}")
    if not (se1 > 0.0 and se2 > 0.0):
        raise ValueError("standard errors must be positive")
    th1 = rng_stream.normal(0.0, se1, size=draws)
    th2 = rng_stream.normal(0.0, se2, size=draws)
    statistic = rd_statistic if test_kind == "rd" else omnibus_statistic
    return EmpiricalTail(statistic(PairBatch(th1, se1, th2, se2), kappa))
