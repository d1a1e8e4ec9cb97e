"""Seeded Monte Carlo engine: rejection-rate curves, kappa_max bands, oracles.

The synthetic model is linear: X ~ N(0, 1), Y = theta * X + eps with
eps ~ N(0, 1).  A study draws, for every (theta2 grid point, replicate),
one sample per group (group 1 at theta1, group 2 at theta2), estimates the
slopes by OLS, and runs the relative-difference and omnibus tests at each
configured kappa, plus the kappa_max inversion.  The study is kept as
whole-study arrays: (grid points, replicates, 2) slopes and standard
errors and a (grid points, replicates) mask of the usable replicates.
They are filled block by block, a block being a range of replicates in
(grid point, replicate) order, as many as fit in ``_BLOCK_VALUES`` = 2**16
sample values (x and noise of both groups of each replicate), and at
least one; so no block holds more than max(2**16, 4 n) values, and a grid
point past the budget is split into replicate ranges.  All slopes of a
block are fitted in one call, and each replicate's fit does not depend on
the rows beside it, so results do not depend on the block size.  The
usable replicates then form one batch, on which rd_test and omnibus_test
run once per distinct kappa, one kappa after another, so the study holds
one kappa's rows at a time however many kappas it has.  The inversion runs
once on the batch.  The summaries are taken once per study too: the
rejections of each (kappa, test) are counted per grid point by one
``np.bincount`` over the grid points of its rejected rows, and the
kappa_max quantiles of all grid points with the same replicate count come
from one ``np.quantile`` call on their (points, replicates) block.  The
result holds them as columns, the rates formed from the count table by
array arithmetic and their theta2, kappa and test labels by np.repeat and
np.tile; no object is built per cell.

Reproducibility contract: the stream for replicate r of grid point g is
``numpy.random.default_rng([seed, g, r])``.  From it the group-1 sample is
drawn before the group-2 sample, each as an x block of n standard normals
and then a noise block eps of n more, with y = theta * x + eps.  Results
are therefore bit-identical for a given config.

The streams are not built by ``default_rng``, whose SeedSequence hashing
costs more than a replicate's draws.  One vectorised pass of numpy's
SeedSequence algorithm computes the seed-sequence words of every
(g, r) of the study at once, each pool word's three mixes into the others
in one operation; numpy's own PCG64 seeding turns each replicate's words
into its generator, one words holder serving every PCG64 of a block in
turn, since a PCG64 reads it only when it is built; one call draws the
replicate's x, noise, x, noise blocks.  The contract is unchanged, and
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
from typing import Mapping

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
# the CLI refuses a study of more replicates (grid points x replications)
# than this before it builds the grid.  The whole-study arrays take 65
# bytes a replicate (slopes, standard errors, mask and stream words), and
# a study's RSS grows by about 740 bytes a replicate whatever its kappa
# count, the kappas being tested in turn: about 3.1 GB at this bound
_STUDY_REPLICATES_LIMIT = 2**22
# see the module docstring: sample values per block of replicates
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


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Long-format rejection rates plus per-theta2 kappa_max quantiles, as
    dicts of equal-length columns.

    ``rates`` has RateCell's columns, test an object array of str, one row
    per (grid point, kappa, test) in that order over the grid points that
    kept a replicate; ``rate()`` returns one row as a RateCell.
    ``kappa_max_quantiles`` has the columns theta2, q10, q50 and q90 over
    the same points, and no rows when alpha >= 1/2, outside the inversion's
    domain.  ``dropped`` counts discarded replicates per theta2 (degenerate
    estimation).  Equality compares the columns by np.array_equal.
    """

    config: SimulationConfig
    rates: Mapping[str, np.ndarray]
    kappa_max_quantiles: Mapping[str, np.ndarray]
    dropped: Mapping[float, int] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StudyResult):
            return NotImplemented
        tables = ((self.rates, other.rates), (self.kappa_max_quantiles, other.kappa_max_quantiles))
        return (self.config, self.dropped) == (other.config, other.dropped) and all(
            list(mine) == list(theirs) and all(map(np.array_equal, mine.values(), theirs.values()))
            for mine, theirs in tables)

    def rate(self, theta2: float, kappa: float, test: str) -> RateCell:
        """The first row of test whose theta2 and kappa are each
        math.isclose(..., abs_tol=1e-12) to the ones given."""
        match = self.rates["test"] == test
        for column, value in ((self.rates["theta2"], float(theta2)),
                              (self.rates["kappa"], float(kappa))):
            tol = np.maximum(1e-9 * np.maximum(np.abs(column), abs(value)), 1e-12)
            match &= (np.abs(column - value) <= tol) & math.isfinite(value)  # inf: close to no cell
        if not match.any():
            raise KeyError(f"no rate cell for theta2={theta2}, kappa={kappa}, {test!r}")
        return RateCell(*(column.item(np.argmax(match)) for column in self.rates.values()))


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


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) constants of count consecutive hash steps, as
    (count, 1, 1) arrays: a step xors with the hash constant, advances it
    by mult, multiplies by it."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(np.array(c, dtype=np.uint64).reshape(-1, 1, 1) for c in (consts[:-1], consts[1:]))


_MIX_XOR, _MIX_MULT = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE**2)
_OUTPUT_XOR, _OUTPUT_MULT = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(value: np.ndarray, xor_const: np.ndarray, mult_const: np.ndarray) -> np.ndarray:
    value = (value ^ xor_const) * mult_const & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _stream_words(config: SimulationConfig) -> np.ndarray:
    """C-contiguous (grid points, replications, 4) uint64 array whose
    [g, r] row is ``SeedSequence([seed, g, r]).generate_state(4, np.uint64)``.

    The entropy words are the seed's 32-bit words, least significant first
    (one word for seed 0), then g, then r: at most four, one pool's worth,
    since the seed has at most two and the config keeps both indices below
    2**32.  Each pool word's hashes into the other three are one operation.
    """
    seed = config.seed
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    g, r = np.ogrid[: len(config.theta2_grid), : config.replications]
    entropy = [*seed_words, g, r] + [0] * (_POOL_SIZE - len(seed_words) - 2)
    # arrays throughout: uint64 arithmetic wraps silently on arrays only
    entropy = np.broadcast_arrays(*(np.asarray(word, dtype=np.uint64) for word in entropy))
    pool = _hash(np.stack(entropy), _MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
    for src in range(_POOL_SIZE):  # src's mixes into the others take three steps
        dst = [i for i in range(_POOL_SIZE) if i != src]
        steps = slice(_POOL_SIZE + len(dst) * src, _POOL_SIZE + len(dst) * (src + 1))
        pool[dst] = _mix(pool[dst], _hash(pool[src], _MIX_XOR[steps], _MIX_MULT[steps]))
    state = _hash(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE], _OUTPUT_XOR, _OUTPUT_MULT)
    # generate_state reads consecutive 32-bit words as little-endian uint64s
    words = state[0::2] | state[1::2] << np.uint64(32)
    # a PCG64 reads a row's buffer as it is, so the rows must be contiguous
    return np.ascontiguousarray(np.moveaxis(words, 0, -1))


class _StateWords(ISeedSequence):
    """Hands a PCG64 its precomputed ``generate_state(4, np.uint64)``
    words, so that numpy's own seeding turns them into the state.  A PCG64
    reads them once, when it is built, so one holder serves many in turn."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _study_estimates(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid points, replications, 2) arrays of every replicate's slopes and
    standard errors, group 1 then group 2, and the (grid points,
    replications) mask of the replicates whose estimation did not degenerate."""
    reps, n = config.replications, config.n
    theta2 = np.array(config.theta2_grid)
    words = _stream_words(config).reshape(-1, 4)  # replicate r of point g at g * reps + r
    est, se = np.empty((2, len(words), 2))
    ok = np.empty(len(words), dtype=bool)
    size = min(max(1, _BLOCK_VALUES // (4 * n)), len(words))  # replicates per block
    # per replicate: group-1 x, group-1 noise, group-2 x, group-2 noise;
    # reused across blocks, since the fit keeps no view of it
    block = np.empty((size, 4, n))
    seeds = _StateWords(words[0])
    for first in range(0, len(words), size):
        last = min(first + size, len(words))
        draws = block[: last - first]
        for row, state in zip(draws, words[first:last]):
            seeds.words = state
            np.random.Generator(np.random.PCG64(seeds)).standard_normal(out=row)
        x, y = draws[:, 0::2], draws[:, 1::2]
        theta = np.full((last - first, 2, 1), config.theta1)
        theta[:, 1, 0] = theta2[np.arange(first, last) // reps]
        # y = theta x + eps; a y past the float range is flagged by ols_slope
        with np.errstate(over="ignore"):
            y += theta * x
        fit = ols_slope(SampleBatch(x.reshape(-1, n), y.reshape(-1, n)))
        est[first:last] = fit.estimate.reshape(-1, 2)
        se[first:last] = fit.std_error.reshape(-1, 2)
        ok[first:last] = fit.ok.reshape(-1, 2).all(axis=1)
    shape = (len(theta2), reps)
    return est.reshape(*shape, 2), se.reshape(*shape, 2), ok.reshape(shape)


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
    est, se, ok = _study_estimates(config)
    counts = ok.sum(axis=1)
    # the usable replicates as one batch; row i is a replicate of grid point point[i]
    point = np.nonzero(ok)[0]
    est, se = est[ok], se[ok]
    batch = PairBatch(est[:, 0], se[:, 0], est[:, 1], se[:, 1])
    kappas = list(dict.fromkeys(config.kappas))  # a repeated kappa is reported once
    per_point = len(kappas) * len(_TEST_KINDS)  # rate rows of a grid point
    # rejections per grid point, one column per (kappa, test) in that order
    rejections = np.stack([
        np.bincount(point[test(batch, kappa, config.alpha).rejected], minlength=len(counts))
        for kappa in kappas for test in (rd_test, omnibus_test)  # _TEST_KINDS order
    ], axis=1)
    # summaries cover the points that kept a replicate, each a block of rate rows
    kept = np.flatnonzero(counts)
    theta2 = np.array(config.theta2_grid)[kept]
    valid = np.repeat(counts[kept], per_point)
    p_hat = rejections[kept].reshape(-1) / valid
    rates = {
        "theta2": np.repeat(theta2, per_point),
        "kappa": np.tile(np.repeat(kappas, len(_TEST_KINDS)), len(kept)),
        "test": np.tile(np.array(_TEST_KINDS, dtype=object), len(kept) * len(kappas)),
        "rejection_rate": p_hat,
        "mc_std_error": np.sqrt(p_hat * (1.0 - p_hat) / valid),
        "replicates": valid,
    }
    quantiles = np.empty((len(kept), len(_KMAX_QUANTILES)))
    if config.alpha >= _KAPPA_MAX_ALPHA:  # outside the inversion's domain: no rows
        theta2, quantiles = theta2[:0], quantiles[:0]
    elif len(kept):
        kmax = kappa_max(batch, config.alpha).kappa_max
        # one call per distinct replicate count, on a (points, count) block
        for count in np.unique(counts[kept]).tolist():
            same = counts == count
            block = kmax[same[point]].reshape(-1, count)
            quantiles[same[kept]] = _kappa_max_quantiles(block, _KMAX_QUANTILES)
    kappa_max_quantiles = {"theta2": theta2, **{
        f"q{100 * q:.0f}": column for q, column in zip(_KMAX_QUANTILES, quantiles.T)}}
    return StudyResult(config, rates, kappa_max_quantiles, {
        config.theta2_grid[gi]: config.replications - count
        for gi, count in enumerate(counts.tolist()) if count < config.replications})


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
