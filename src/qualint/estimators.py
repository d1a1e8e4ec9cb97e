"""Per-group association estimators feeding the interaction tests.

Both estimators consume paired numeric samples (x_i, y_i) and return
estimates whose standard error makes them asymptotically standard normal
after centering and scaling:

* :func:`ols_slope` - least-squares slope of y on x with the classical
  homoskedastic standard error;
* :func:`pearson` - product-moment correlation with the large-sample
  standard error (1 - r^2) / sqrt(n).

Each takes many samples at once and returns an :class:`EstimateBatch`,
one estimate per sample: a :class:`SampleBatch` of equal-size samples
stacked as rows, or a :class:`FeatureMatrix`, whose every feature pair is
one sample.  One sample is a one-row SampleBatch, its estimate row 0.

Degenerate samples (non-finite values, zero spread in a needed
coordinate, or a perfect linear fit that would zero out the standard
error) are not errors: they are coded per row, and ``reason(i)`` says why
row i yields no estimate the tests can standardize.  Fewer than three
points, or arrays of the wrong shape, raise :class:`EstimationError`.

Every row is scaled exactly by the power of two of its largest |value|
before centering, and the slope and its SE are scaled back.  Results are
the same as without the scaling wherever the unscaled sums of squares
neither overflow nor underflow; at extreme scales, where they would, the
scaled sums stay in range.

One range pass serves each row: its max hi and min lo.  max(hi, -lo) is
its largest |value| exactly, and so gives the scaling exponent; that peak
is finite only if every value is, since a NaN propagates through both;
and the row is constant where hi == lo.  The scaled rows are a new array,
centered in place, so the estimators never write into the caller's arrays.
A FeatureMatrix's sums are one broadcast call of _dot, each entry one ddot
of two rows, so a pair keeps the bits of its own SampleBatch row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from qualint.inference import _rule_violation, _valid

__all__ = [
    "EstimateBatch",
    "EstimationError",
    "FeatureMatrix",
    "SampleBatch",
    "ols_slope",
    "pearson",
]

# degeneracy codes of EstimateBatch.code, indexing _REASONS; _SE_RULE marks a
# positive standard error and _EST_RULE a slope that breaks the core's input rule
_OK, _NON_FINITE, _X_CONSTANT, _Y_CONSTANT, _R_ONE, _PERFECT_FIT, _SE_RULE, _EST_RULE = range(8)
_REASONS = (
    None,
    "sample contains non-finite values",
    "x is constant; no slope or correlation exists",
    "y is constant; correlation is undefined",
    "|r| = {:g} leaves a degenerate standard error",
    "residuals have zero variance (perfect fit); slope standard error is degenerate",
    ("std_error", True), ("estimate", False),  # (field, se) of the core's rule
)


class EstimationError(ValueError):
    """Raised when a sample cannot support the requested estimate."""


def _require_size(n: int) -> None:
    if n < 3:
        raise EstimationError(f"need at least 3 pairs, got {n}")


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
    _pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] < 2:
            raise EstimationError(f"need a 2-D array of at least 2 features, got {data.shape}")
        _require_size(data.shape[0])
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", np.ascontiguousarray(data.T))
        pairs = np.array(np.triu_indices(data.shape[1], 1))  # formed once, read by every caller
        pairs.flags.writeable = False
        object.__setattr__(self, "_pairs", pairs)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices (i, j) of every pair, i < j, in row-major order (read-only)."""
        return tuple(self._pairs)

    def __len__(self) -> int:
        return self._pairs.shape[1]


@dataclass(frozen=True, eq=False)
class EstimateBatch:
    """One estimate per row of a SampleBatch or pair of a FeatureMatrix.

    ``ok`` marks the rows with a usable estimate; ``reason(i)`` says why row
    i is degenerate, or returns None.  ``estimate`` and ``std_error`` carry
    no meaning on degenerate rows.
    """

    estimate: np.ndarray
    std_error: np.ndarray
    code: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.code == _OK

    def reason(self, row: int, names: tuple[str, str] | None = None) -> str | None:
        """Why row ``row`` is degenerate, or None.  ``names`` are the names
        of its (x, y) features when the row is their correlation; a constant
        feature is then named instead of called x or y."""
        code = int(self.code[row])
        if names is not None and code in (_X_CONSTANT, _Y_CONSTANT):
            return f"{names[code == _Y_CONSTANT]} is constant; correlation is undefined"
        if code == _R_ONE:
            return _REASONS[code].format(abs(float(self.estimate[row])))
        if code in (_SE_RULE, _EST_RULE):
            name, se = _REASONS[code]
            return _rule_violation(name, getattr(self, name)[row], se)
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


def _scaled_deviations(rows: np.ndarray):
    """Deviations of each row from its mean, after scaling the row exactly by
    the power of two that puts its largest |value| in [0.5, 1); the exponents
    of those powers; and which rows are finite and which constant, all from
    one max and one min per row (see the module docstring).
    """
    hi, lo = rows.max(axis=-1), rows.min(axis=-1)
    peak = np.maximum(hi, -lo)
    exponent = np.frexp(peak)[1]
    scaled = np.ldexp(rows, -exponent[..., None])
    # the sum over the count is np.mean's own arithmetic, without its wrapper
    scaled -= scaled.sum(axis=-1, keepdims=True) / rows.shape[-1]
    return scaled, exponent, np.isfinite(peak), hi == lo


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis.

    A stack of vector-vector products, broadcast or not, is the 1-D ``a @ b``
    bit for bit; a matrix-vector or matrix-matrix product (``dev @ dev.T``)
    or einsum sums in another order.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _data_codes(finite: np.ndarray, x_constant: np.ndarray) -> np.ndarray:
    return np.where(finite, np.where(x_constant, _X_CONSTANT, _OK), _NON_FINITE)


def _sums(sample: SampleBatch | FeatureMatrix) -> _Sums:
    # non-finite rows are flagged by code; their arithmetic is discarded
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(sample, FeatureMatrix):
            dev, exponent, finite, constant = _scaled_deviations(sample.columns)
            first, second = sample.pairs()
            grid = _dot(dev[None, :, :], dev[:, None, :])  # [i, j] = dev[j] . dev[i]
            squares = grid.diagonal()
            code = _data_codes(finite[first] & finite[second], constant[first])
            return _Sums(dev.shape[1], squares[first], grid[first, second], squares[second],
                         exponent[second] - exponent[first], code, constant[second])
        dx, ex, x_finite, x_constant = _scaled_deviations(sample.x)
        dy, ey, y_finite, y_constant = _scaled_deviations(sample.y)
        code = _data_codes(x_finite & y_finite, x_constant)
        n = dx.shape[1]
        return _Sums(n, _dot(dx, dx), _dot(dx, dy), _dot(dy, dy), ey - ex, code, y_constant)


def ols_slope(sample: SampleBatch | FeatureMatrix) -> EstimateBatch:
    """Least-squares slope of y on x with its classical standard error.

    slope = Sxy / Sxx; se = sqrt((RSS / (n - 2)) / Sxx) with
    RSS = Syy - Sxy^2 / Sxx.  A perfect fit (zero residual variance) leaves
    nothing to standardize against, and a slope or standard error the tests
    do not accept (finite; finite and > 1e-300) is no better: a degenerate row.
    """
    s = _sums(sample)
    # degenerate rows are flagged by code, not by floating-point warnings
    with np.errstate(all="ignore"):
        slope = s.sxy / s.sxx
        rss = s.syy - s.sxy * s.sxy / s.sxx
        se = np.sqrt(np.maximum(rss, 0.0) / (s.n - 2) / s.sxx)
        slope, se = np.ldexp(slope, s.shift), np.ldexp(se, s.shift)
        fit = np.isfinite(se) & (se > 0.0)
    usable = np.where(np.isfinite(slope), np.where(_valid(se, se=True), _OK, _SE_RULE), _EST_RULE)
    code = np.where(s.code != _OK, s.code, np.where(fit, usable, _PERFECT_FIT))
    return EstimateBatch(slope, se, code)


def pearson(sample: SampleBatch | FeatureMatrix) -> EstimateBatch:
    """Product-moment correlation with the large-sample standard error.

    r = Sxy / sqrt(Sxx Syy); se = (1 - r^2) / sqrt(n).  Constant y or a
    numerically perfect correlation (|r| >= 1) is a degenerate row.
    """
    s = _sums(sample)
    with np.errstate(all="ignore"):
        r = s.sxy / np.sqrt(s.sxx * s.syy)
        se = (1.0 - r * r) / math.sqrt(s.n)
        code = np.where(s.code != _OK, s.code,
                        np.where(s.y_constant, _Y_CONSTANT, np.where(np.abs(r) >= 1.0, _R_ONE, _OK)))
    return EstimateBatch(r, se, code)
