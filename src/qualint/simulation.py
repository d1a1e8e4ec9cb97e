"""Seeded Monte Carlo engine: rejection-rate curves, kappa_max bands, oracles.

The synthetic model is linear: X ~ N(0, 1), Y = theta * X + eps with
eps ~ N(0, 1).  A study draws, for every (theta2 grid point, replicate),
one sample per group (group 1 at theta1, group 2 at theta2), estimates the
slopes by OLS, and runs the relative-difference and omnibus tests at each
configured kappa, plus the kappa_max inversion.  Each grid point's
replicates are drawn into one block and all their slopes fitted in one
call; the tests and the inversion then run once per kappa on the whole
study's estimates as one batch.

Reproducibility contract: the stream for replicate r of grid point g is
``numpy.random.default_rng([seed, g, r])``; the group-1 sample is drawn
before the group-2 sample from that stream, each exactly as
``generate_dataset`` draws it.  Results are therefore bit-identical for a
given config.

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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from qualint.estimators import Sample2D, SampleBatch, ols_slope
from qualint.inference import (
    PairBatch,
    _check_input,
    _check_kappa,
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
    x, y = np.empty(n), np.empty(n)
    _draw(theta, rng_stream, x, y)
    return Sample2D(x, y)


def _draw(theta: float, rng_stream: np.random.Generator, x: np.ndarray, y: np.ndarray) -> None:
    """Fill the 1-D arrays x and y with one sample of the model: the x block
    is drawn first, then the noise block."""
    rng_stream.standard_normal(out=x)
    rng_stream.standard_normal(out=y)
    y += theta * x  # y = theta x + eps


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _replicate_stream(seed: int, grid_index: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng([seed, grid_index, replicate])


def _estimate_grid_point(
    config: SimulationConfig, grid_index: int
) -> tuple[tuple[np.ndarray, ...], int]:
    """(est1, se1, est2, se2) arrays over the valid replicates at one grid
    point, in replicate order, and the number of replicates dropped for
    degenerate estimation."""
    reps, n = config.replications, config.n
    thetas = (config.theta1, config.theta2_grid[grid_index])
    x, y = np.empty((reps, 2, n)), np.empty((reps, 2, n))
    for replicate in range(reps):
        rng = _replicate_stream(config.seed, grid_index, replicate)
        for group, theta in enumerate(thetas):
            _draw(theta, rng, x[replicate, group], y[replicate, group])
    fit = ols_slope(SampleBatch(x.reshape(-1, n), y.reshape(-1, n)))
    valid = fit.ok.reshape(reps, 2).all(axis=1)
    est = fit.estimate.reshape(reps, 2)[valid]
    se = fit.std_error.reshape(reps, 2)[valid]
    return (est[:, 0], se[:, 0], est[:, 1], se[:, 1]), reps - int(valid.sum())


def _run_study(config: SimulationConfig, want_rates: bool, want_kmax: bool) -> StudyResult:
    # kappa_max inversion is defined for alpha < 1/2 only; rate-only studies
    # at larger alpha simply skip the inversion summaries
    want_kmax = want_kmax and config.alpha < 0.5
    indices = range(len(config.theta2_grid))
    estimates, drops = zip(*(_estimate_grid_point(config, gi) for gi in indices))

    # the whole study is tested in one batch per kappa; replicates of grid
    # point gi are rows bounds[gi]:bounds[gi + 1]
    batch = PairBatch(*(np.concatenate(column) for column in zip(*estimates)))
    bounds = np.cumsum([0] + [len(est1) for est1, *_ in estimates]).tolist()
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
        if drops[gi]:
            dropped[theta2] = drops[gi]
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


def run_rejection_study(config: SimulationConfig) -> StudyResult:
    """Rejection-rate curves for both tests at every configured kappa.

    Also accumulates kappa_max values per replicate (when alpha < 1/2, the
    inversion's domain), so the result carries quantile summaries alongside
    the rates.  Deterministic in config alone.
    """
    return _run_study(config, want_rates=True, want_kmax=True)


def run_kappa_max_study(config: SimulationConfig) -> StudyResult:
    """Empirical 0.10/0.50/0.90 quantiles of kappa_max per theta2 grid point."""
    if not config.alpha < 0.5:
        raise ValueError("kappa_max studies require alpha < 0.5")
    return _run_study(config, want_rates=False, want_kmax=True)


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
    _check_kappa(kappa)
    _check_input("se1", se1, se=True)
    _check_input("se2", se2, se=True)
    th1 = rng_stream.normal(0.0, se1, size=draws)
    th2 = rng_stream.normal(0.0, se2, size=draws)
    statistic = rd_statistic if test_kind == "rd" else omnibus_statistic
    return EmpiricalTail(statistic(PairBatch(th1, se1, th2, se2), kappa))
