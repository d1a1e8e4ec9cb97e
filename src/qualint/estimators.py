"""Per-group association estimators feeding the interaction tests.

Both estimators consume paired numeric samples (x_i, y_i) and return
estimates whose standard error makes them asymptotically standard normal
after centering and scaling:

* :func:`ols_slope` - least-squares slope of y on x with the classical
  homoskedastic standard error;
* :func:`pearson` - product-moment correlation with the large-sample
  standard error (1 - r^2) / sqrt(n).

Each accepts one :class:`Sample2D` and returns a
:class:`~qualint.inference.SubgroupEstimate`, or many samples at once and
returns an :class:`EstimateBatch`: a :class:`SampleBatch` of equal-size
samples stacked as rows, or a :class:`FeatureMatrix`, whose every feature
pair is one sample.  The single sample is the size-1 case of the same code.

Degenerate samples (non-finite values, zero spread in a needed
coordinate, or a perfect linear fit that would zero out the standard
error) raise :class:`EstimationError` for a single sample instead of
emitting an estimate the tests cannot standardize; in a batch they are
reported per row.  Fewer than three points is an error either way.

Every row is scaled exactly by the power of two of its largest |value|
before centering, and the slope and its SE are scaled back.  Results are
the same as without the scaling wherever the unscaled sums of squares
neither overflow nor underflow; at extreme scales, where they would, the
scaled sums stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from qualint.inference import SubgroupEstimate, _rule_violation, _valid

__all__ = [
    "EstimateBatch",
    "EstimationError",
    "FeatureMatrix",
    "Sample2D",
    "SampleBatch",
    "ols_slope",
    "pearson",
]

# degeneracy codes of EstimateBatch.code, indexing _REASONS; _SE_RULE marks
# a standard error that is positive but breaks the core's input rule
_OK, _NON_FINITE, _X_CONSTANT, _Y_CONSTANT, _R_ONE, _PERFECT_FIT, _SE_RULE = range(7)
_REASONS = (
    None,
    "sample contains non-finite values",
    "x is constant; no slope or correlation exists",
    "y is constant; correlation is undefined",
    "|r| = {:g} leaves a degenerate standard error",
    "residuals have zero variance (perfect fit); slope standard error is degenerate",
    None,  # the core's wording, from _rule_violation
)


class EstimationError(ValueError):
    """Raised when a sample cannot support the requested estimate."""


def _require_size(n: int) -> None:
    if n < 3:
        raise EstimationError(f"need at least 3 pairs, got {n}")


@dataclass(frozen=True, eq=False)
class Sample2D:
    """One sub-population's paired observations, validated on construction.

    Arrays are coerced to 1-D float64.  Requirements: equal lengths, at
    least three pairs (the slope standard error spends two degrees of
    freedom), all values finite, and non-constant x.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise EstimationError("x and y must be one-dimensional")
        if x.shape[0] != y.shape[0]:
            raise EstimationError(
                f"x and y lengths differ: {x.shape[0]} vs {y.shape[0]}"
            )
        _require_size(x.shape[0])
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise EstimationError(_REASONS[_NON_FINITE])
        if np.ptp(x) == 0.0:
            raise EstimationError(_REASONS[_X_CONSTANT])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def __repr__(self) -> str:
        return f"Sample2D(n={len(self)})"


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Many samples of a common size n, stacked as the rows of (k, n) arrays.

    Row i is the sample (x[i], y[i]).  The arrays must be 2-D of one shape
    with n >= 3; a row with non-finite values or constant x is not an
    error here but a degenerate row of the estimators' result.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise EstimationError(
                f"x and y must be 2-D arrays of one shape, got {x.shape} and {y.shape}"
            )
        _require_size(x.shape[1])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.shape[0])


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n observations (rows) of p >= 2 features (columns), n >= 3.

    An estimator over it estimates every feature pair (i, j), i < j, in
    row-major order (the order of :meth:`pairs`), with feature i as x and
    feature j as y, without copying the data per pair.  A pair with a
    non-finite value or constant x is a degenerate row of the result.
    """

    data: np.ndarray
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] < 2:
            raise EstimationError(f"need a 2-D array of at least 2 features, got {data.shape}")
        _require_size(data.shape[0])
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", np.ascontiguousarray(data.T))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices (i, j) of every pair, i < j, in row-major order."""
        return np.triu_indices(self.data.shape[1], 1)

    def __len__(self) -> int:
        p = self.data.shape[1]
        return p * (p - 1) // 2


@dataclass(frozen=True, eq=False)
class EstimateBatch:
    """One estimate per row of a SampleBatch or pair of a FeatureMatrix.

    ``ok`` marks the rows with a usable estimate; ``reason(i)`` says why row
    i is degenerate, in the words a single-sample call raises, or returns
    None.  ``estimate`` and ``std_error`` carry no meaning on degenerate rows.
    """

    estimate: np.ndarray
    std_error: np.ndarray
    sample_size: int
    code: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.code == _OK

    def reason(self, row: int) -> str | None:
        code = int(self.code[row])
        if code == _R_ONE:
            return _REASONS[code].format(abs(float(self.estimate[row])))
        if code == _SE_RULE:
            return _rule_violation("std_error", self.std_error[row], se=True)
        return _REASONS[code]

    def __len__(self) -> int:
        return int(self.code.shape[0])


# ---------------------------------------------------------------------------
# the centered-sum kernel
# ---------------------------------------------------------------------------


class _Sums(NamedTuple):
    """Centered sums of each row on power-of-two scaled coordinates."""

    n: int
    sxx: np.ndarray
    sxy: np.ndarray
    syy: np.ndarray
    shift: np.ndarray  # the slope and its SE are 2**shift times their scaled values
    code: np.ndarray  # _OK, _NON_FINITE or _X_CONSTANT
    y_constant: np.ndarray  # by range, as for x: an inexact mean leaves Syy > 0


def _scaled_deviations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of each row from its mean, after scaling the row exactly by
    the power of two that puts its largest |value| in [0.5, 1); and the
    exponents of those powers."""
    exponent = np.frexp(np.abs(rows).max(axis=-1))[1]
    scaled = np.ldexp(rows, -exponent[..., None])
    return scaled - scaled.mean(axis=-1, keepdims=True), exponent


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis.

    A stack of vector-vector products reproduces the 1-D ``a @ b`` bit for
    bit; a matrix-vector or matrix-matrix product sums in another order.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _data_codes(finite: np.ndarray, x_constant: np.ndarray) -> np.ndarray:
    return np.where(finite, np.where(x_constant, _X_CONSTANT, _OK), _NON_FINITE)


def _is_constant(rows: np.ndarray) -> np.ndarray:
    return rows.max(axis=-1) == rows.min(axis=-1)


def _sums(sample: Sample2D | SampleBatch | FeatureMatrix) -> _Sums:
    # non-finite rows are flagged by code; their arithmetic is discarded
    with np.errstate(invalid="ignore"):
        if isinstance(sample, FeatureMatrix):
            columns = sample.columns
            dev, exponent = _scaled_deviations(columns)
            squares = _dot(dev, dev)
            cross = np.concatenate([_dot(dev[i + 1 :], dev[i]) for i in range(len(dev) - 1)])
            first, second = sample.pairs()
            finite = np.isfinite(columns).all(axis=1)
            constant = _is_constant(columns)
            code = _data_codes(finite[first] & finite[second], constant[first])
            return _Sums(
                columns.shape[1],
                squares[first],
                cross,
                squares[second],
                exponent[second] - exponent[first],
                code,
                constant[second],
            )
        x, y = np.atleast_2d(sample.x), np.atleast_2d(sample.y)
        dx, ex = _scaled_deviations(x)
        dy, ey = _scaled_deviations(y)
        finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
        code = _data_codes(finite, _is_constant(x))
        return _Sums(
            x.shape[1], _dot(dx, dx), _dot(dx, dy), _dot(dy, dy), ey - ex, code, _is_constant(y)
        )


def _result(sample, batch: EstimateBatch) -> SubgroupEstimate | EstimateBatch:
    """The batch for a batch input; for one Sample2D its only estimate."""
    if not isinstance(sample, Sample2D):
        return batch
    reason = batch.reason(0)
    if reason is not None:
        raise EstimationError(reason)
    return SubgroupEstimate(
        estimate=float(batch.estimate[0]),
        std_error=float(batch.std_error[0]),
        sample_size=batch.sample_size,
    )


def ols_slope(
    sample: Sample2D | SampleBatch | FeatureMatrix,
) -> SubgroupEstimate | EstimateBatch:
    """Least-squares slope of y on x with its classical standard error.

    slope = Sxy / Sxx; se = sqrt((RSS / (n - 2)) / Sxx) with
    RSS = Syy - Sxy^2 / Sxx.  A perfect fit (zero residual variance) leaves
    nothing to standardize against, and a standard error the tests do not
    accept (finite and > 1e-300) is no better: EstimationError for a
    Sample2D, a degenerate row in the EstimateBatch of a batch.
    """
    s = _sums(sample)
    # degenerate rows are flagged by code, not by floating-point warnings
    with np.errstate(all="ignore"):
        slope = s.sxy / s.sxx
        rss = s.syy - s.sxy * s.sxy / s.sxx
        se = np.sqrt(np.maximum(rss, 0.0) / (s.n - 2) / s.sxx)
        slope, se = np.ldexp(slope, s.shift), np.ldexp(se, s.shift)
        fit = np.isfinite(se) & (se > 0.0)
    usable = np.where(_valid(se, se=True), _OK, _SE_RULE)
    code = np.where(s.code != _OK, s.code, np.where(fit, usable, _PERFECT_FIT))
    return _result(sample, EstimateBatch(slope, se, s.n, code))


def pearson(
    sample: Sample2D | SampleBatch | FeatureMatrix,
) -> SubgroupEstimate | EstimateBatch:
    """Product-moment correlation with the large-sample standard error.

    r = Sxy / sqrt(Sxx Syy); se = (1 - r^2) / sqrt(n).  Constant y or a
    numerically perfect correlation (|r| >= 1) is degenerate:
    EstimationError for a Sample2D, a degenerate row in the EstimateBatch
    of a batch.
    """
    s = _sums(sample)
    with np.errstate(all="ignore"):
        r = s.sxy / np.sqrt(s.sxx * s.syy)
        se = (1.0 - r * r) / math.sqrt(s.n)
        code = np.select(
            [s.code != _OK, s.y_constant, np.abs(r) >= 1.0], [s.code, _Y_CONSTANT, _R_ONE], _OK
        )
    return _result(sample, EstimateBatch(r, se, s.n, code))
