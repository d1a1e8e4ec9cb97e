"""Seeded Monte Carlo engine: rejection-rate curves, kappa_max bands, oracles.

The synthetic model is linear: X ~ N(0, 1), Y = theta * X + eps with
eps ~ N(0, 1).  A study draws, for every (theta2 grid point, replicate),
one sample per group (group 1 at theta1, group 2 at theta2), estimates the
slopes by OLS, and runs the relative-difference and omnibus tests at each
configured kappa, plus the kappa_max inversion.  Whole grid points are
drawn and fitted in blocks: as many as fit in ``_BLOCK_VALUES`` = 2**16
sample values (x and noise of both groups of every replicate), and at
least one, so a grid point past the budget is a block of its own.  All
slopes of a block are fitted in one call, and each replicate's fit does
not depend on the rows beside it, so results do not depend on the block
size.  The tests and the inversion then run once per kappa on the whole
study's estimates as one batch.  The summaries are taken once per study
too: each batch row is tagged once with its grid point, each (kappa,
test) column of rejection flags is counted per grid point by one
``np.bincount`` over the tags of its rejected rows, and the kappa_max
quantiles of all grid points with the same replicate count come from one
``np.quantile`` call on their (points, replicates) block.

Reproducibility contract: the stream for replicate r of grid point g is
``numpy.random.default_rng([seed, g, r])``.  From it the group-1 sample is
drawn before the group-2 sample, each as an x block of n standard normals
and then a noise block eps of n more, with y = theta * x + eps.  Results
are therefore bit-identical for a given config.

The streams are not built by ``default_rng``, whose SeedSequence hashing
costs more than a replicate's draws.  One vectorised pass of numpy's
SeedSequence algorithm computes the seed-sequence words of every
(g, r) of the study at once; numpy's own PCG64 seeding turns each
replicate's words into its generator; one call draws the replicate's
x, noise, x, noise blocks.  The contract is unchanged, and
``test_stream_states_equal_default_rng`` (tests/test_simulation.py)
checks the generator states against ``default_rng``'s, so a numpy that
hashes differently fails loudly rather than drifting silently.

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
from typing import Iterator, Mapping

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from qualint.estimators import SampleBatch, _require_size, ols_slope
from qualint.inference import (
    _KAPPA_MAX_ALPHA,
    PairBatch,
    _check_alpha,
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
    "mc_null_oracle",
    "run_rejection_study",
]

_KMAX_QUANTILES = (0.10, 0.50, 0.90)
_TEST_KINDS = ("rd", "omnibus")
# a stream's grid and replicate indices are one 32-bit seed word each, so
# the grid length and the replications must stay below this
_STREAM_INDEX_LIMIT = 2**32
# see the module docstring: sample values per block of whole grid points
_BLOCK_VALUES = 2**16


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
        _check_input("theta1", self.theta1, se=False)
        if not self.theta2_grid:
            raise ValueError("theta2_grid must be nonempty")
        if not all(math.isfinite(v) for v in self.theta2_grid):
            raise ValueError("theta2_grid must be finite")
        if len(set(self.theta2_grid)) != len(self.theta2_grid):  # results are keyed by theta2
            raise ValueError("theta2_grid must not repeat a value")
        _require_size(self.n)
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if max(self.replications, len(self.theta2_grid)) >= _STREAM_INDEX_LIMIT:
            raise ValueError("replications and the theta2 grid length must be < 2**32")
        if not self.kappas:
            raise ValueError("kappas must be nonempty")
        for kappa in self.kappas:
            _check_kappa(kappa, strict=True)
        _check_alpha(self.alpha)
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
    empty when alpha >= 1/2, outside the inversion's domain.  ``dropped`` counts
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
# studies
# ---------------------------------------------------------------------------


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words mixed by hashmix/mix, then generate_state's output hash
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint64, np.uint64]]:
    """(xor, multiplier) constants of count consecutive hash steps: a step
    xors with the hash constant, advances it by mult, multiplies by it."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return [(np.uint64(c), np.uint64(d)) for c, d in zip(consts, consts[1:])]


_MIX_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE**2)
_OUTPUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(value: np.ndarray, xor_const: np.uint64, mult_const: np.uint64) -> np.ndarray:
    value = (value ^ xor_const) * mult_const & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _stream_words(config: SimulationConfig) -> np.ndarray:
    """(grid points, replications, 4) uint64 array whose [g, r] row is
    ``SeedSequence([seed, g, r]).generate_state(4, np.uint64)``.

    The entropy words are the seed's 32-bit words, least significant first
    (one word for seed 0), then g, then r: at most four, one pool's worth,
    since the seed has at most two and the config keeps both indices below
    2**32.
    """
    seed = config.seed
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    g, r = np.ogrid[: len(config.theta2_grid), : config.replications]
    entropy = [*seed_words, g, r] + [0] * (_POOL_SIZE - len(seed_words) - 2)
    # arrays throughout: uint64 arithmetic wraps silently on arrays only
    entropy = np.broadcast_arrays(*(np.asarray(word, dtype=np.uint64) for word in entropy))

    steps = iter(_MIX_STEPS)
    pool = [_hash(word, *next(steps)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    state = [_hash(pool[i % _POOL_SIZE], *step) for i, step in enumerate(_OUTPUT_STEPS)]
    # generate_state reads consecutive 32-bit words as little-endian uint64s
    words = [state[i] | state[i + 1] << np.uint64(32) for i in range(0, len(state), 2)]
    return np.stack(words, axis=-1)


class _StateWords(ISeedSequence):
    """Hands a PCG64 its precomputed ``generate_state(4, np.uint64)``
    words, so that numpy's own seeding turns them into the state."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _grid_point_estimates(
    config: SimulationConfig,
) -> Iterator[tuple[tuple[np.ndarray, ...], int]]:
    """For each grid point in grid order: (est1, se1, est2, se2) arrays over
    its valid replicates, in replicate order, and the number of replicates
    dropped for degenerate estimation."""
    reps, n = config.replications, config.n
    grid = config.theta2_grid
    words = _stream_words(config)
    points = min(max(1, _BLOCK_VALUES // (4 * reps * n)), len(grid))
    # per replicate: group-1 x, group-1 noise, group-2 x, group-2 noise;
    # reused across blocks, since the fit keeps no view of it
    block = np.empty((points, reps, 4, n))
    for first in range(0, len(grid), points):
        thetas = grid[first : first + points]
        draws = block[: len(thetas)]
        states = words[first : first + len(thetas)].reshape(-1, 4)
        for row, state in zip(draws.reshape(-1, 4, n), states):
            np.random.Generator(np.random.PCG64(_StateWords(state))).standard_normal(out=row)
        x, y = draws[:, :, 0::2], draws[:, :, 1::2]
        theta = np.array([[config.theta1, theta2] for theta2 in thetas])
        # y = theta x + eps; a y past the float range is flagged by ols_slope
        with np.errstate(over="ignore"):
            y += theta[:, None, :, None] * x
        fit = ols_slope(SampleBatch(x.reshape(-1, n), y.reshape(-1, n)))
        valid = fit.ok.reshape(-1, reps, 2).all(axis=2)
        est = fit.estimate.reshape(-1, reps, 2)
        se = fit.std_error.reshape(-1, reps, 2)
        for keep, e, s in zip(valid, est, se):
            e, s = e[keep], s[keep]
            yield (e[:, 0], s[:, 0], e[:, 1], s[:, 1]), reps - int(keep.sum())


def _kappa_max_quantiles(block: np.ndarray, q) -> np.ndarray:
    """The q-quantiles of each row of a block of values in [1, +inf].  Linear
    interpolation gives NaN only toward +inf (inf - inf, or 0 * inf at an
    integral index); there the higher order statistic is the limit."""
    with np.errstate(invalid="ignore"):
        values = np.quantile(block, q, axis=1).T
    nan = np.isnan(values)
    if nan.any():
        values[nan] = np.quantile(block, q, axis=1, method="higher").T[nan]
    return values


def run_rejection_study(config: SimulationConfig) -> StudyResult:
    """Rejection-rate curves for both tests at every configured kappa.

    Also accumulates kappa_max values per replicate (when alpha < 1/2, the
    inversion's domain), so the result carries quantile summaries alongside
    the rates.  Deterministic in config alone.
    """
    estimates, drops = zip(*_grid_point_estimates(config))

    # the whole study is tested in one batch per kappa; row i of the batch
    # is a replicate of grid point point[i], each point's rows in one run
    batch = PairBatch(*(np.concatenate(column) for column in zip(*estimates)))
    counts = np.array([len(est1) for est1, *_ in estimates])
    point = np.repeat(np.arange(len(counts)), counts)
    # summaries cover the points that kept a replicate
    kept = np.flatnonzero(counts)
    rejection_counts = {}
    for kappa in config.kappas:
        for test, run in (("rd", rd_test), ("omnibus", omnibus_test)):
            rejected = point[run(batch, kappa, config.alpha).rejected]
            rejection_counts[(kappa, test)] = np.bincount(rejected, minlength=len(counts)).tolist()
    want_kmax = config.alpha < _KAPPA_MAX_ALPHA
    quantiles = np.full((len(counts), len(_KMAX_QUANTILES)), np.nan)
    if want_kmax:
        kmax = kappa_max(batch, config.alpha).kappa_max
        # one call per distinct replicate count, on a (points, count) block
        for count in np.unique(counts[kept]).tolist():
            same = counts == count
            block = kmax[same[point]].reshape(-1, count)
            quantiles[same] = _kappa_max_quantiles(block, _KMAX_QUANTILES)

    grid = config.theta2_grid
    rates: list[RateCell] = []
    quantile_map: dict[float, dict[float, float]] = {}
    for gi, valid, values in zip(kept.tolist(), counts[kept].tolist(), quantiles[kept].tolist()):
        for (kappa, test), per_point in rejection_counts.items():
            p_hat = per_point[gi] / valid
            rates.append(
                RateCell(
                    theta2=grid[gi],
                    kappa=kappa,
                    test=test,
                    rejection_rate=p_hat,
                    mc_std_error=math.sqrt(p_hat * (1.0 - p_hat) / valid),
                    replicates=valid,
                )
            )
        if want_kmax:
            quantile_map[grid[gi]] = dict(zip(_KMAX_QUANTILES, values))
    return StudyResult(
        config=config,
        rates=tuple(rates),
        kappa_max_quantiles=quantile_map,
        dropped={grid[gi]: drop for gi, drop in enumerate(drops) if drop},
    )


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
