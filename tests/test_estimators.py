"""Tests for the per-group association estimators.

Closed-form expectations below were worked out exactly in rationals
(slope 3/2 with standard error sqrt(1/12); correlation 6.5/sqrt(43.75));
the random-sample checks compare against brute-force reference
implementations built on numpy's lstsq/corrcoef.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qualint import estimators
from qualint.estimators import (
    EstimationError,
    FeatureMatrix,
    SampleBatch,
    ols_slope,
    pearson,
)


def one(x, y):
    """A one-row SampleBatch holding the sample (x, y)."""
    return SampleBatch([x], [y])


class TestSample2D:
    """One (x, y) sample, held as a one-row SampleBatch."""

    def test_rejects_bad_shapes(self):
        with pytest.raises(EstimationError):
            one([1, 2, 3], [1, 2])
        with pytest.raises(EstimationError):
            one([[1, 2], [3, 4]], [1, 2])
        with pytest.raises(EstimationError):
            one([1, 2], [1, 2])


class TestOlsSlope:
    def test_closed_form_example(self):
        est = ols_slope(one([-1, 0, 1], [-1, 0, 2]))
        assert est.estimate[0] == pytest.approx(1.5, abs=1e-14)
        assert est.std_error[0] == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)
        assert est.ok.tolist() == [True]

    def test_perfect_fit_is_degenerate(self):
        est = ols_slope(one([0, 1, 2, 3], [0, 2, 4, 6]))
        assert est.reason(0) == (
            "residuals have zero variance (perfect fit); slope standard error is degenerate"
        )

    def test_shift_invariance(self):
        base = ols_slope(one([-1, 0, 1, 3], [-1, 0, 2, 2.5]))
        shifted = ols_slope(one([-1, 0, 1, 3], [99 - 1, 99 + 0, 99 + 2, 99 + 2.5]))
        assert shifted.estimate[0] == pytest.approx(base.estimate[0], abs=1e-12)
        assert shifted.std_error[0] == pytest.approx(base.std_error[0], abs=1e-12)

    def test_equivariance_in_y(self):
        x = [-1.0, 0.0, 1.0, 3.0]
        y = [-1.0, 0.0, 2.0, 2.5]
        base = ols_slope(one(x, y))
        for c in (2.5, -4.0):
            scaled = ols_slope(one(x, [c * v for v in y]))
            assert scaled.estimate[0] == pytest.approx(c * base.estimate[0], rel=1e-12)
            assert scaled.std_error[0] == pytest.approx(
                abs(c) * base.std_error[0], rel=1e-12
            )

    def test_equivariance_in_x(self):
        x = [-1.0, 0.0, 1.0, 3.0]
        y = [-1.0, 0.0, 2.0, 2.5]
        base = ols_slope(one(x, y))
        for c in (2.5, -4.0):
            scaled = ols_slope(one([c * v for v in x], y))
            assert scaled.estimate[0] == pytest.approx(base.estimate[0] / c, rel=1e-12)
            assert scaled.std_error[0] == pytest.approx(
                base.std_error[0] / abs(c), rel=1e-12
            )

    def test_against_lstsq_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.7 * x + rng.normal(size=n)
            est = ols_slope(one(x, y))
            design = np.column_stack([np.ones(n), x])
            coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ coef
            sxx = float(np.sum((x - x.mean()) ** 2))
            se_ref = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
            assert est.estimate[0] == pytest.approx(coef[1], abs=1e-12, rel=1e-12)
            assert est.std_error[0] == pytest.approx(se_ref, abs=1e-12, rel=1e-12)


class TestPearson:
    def test_closed_form_example(self):
        est = pearson(one([1, 2, 3, 4], [1, 2, 3, 5]))
        r_expected = 6.5 / math.sqrt(43.75)
        assert est.estimate[0] == pytest.approx(r_expected, abs=1e-14)
        assert est.std_error[0] == pytest.approx((1 - r_expected**2) / 2.0, abs=1e-14)
        assert est.ok.tolist() == [True]

    def test_symmetric_in_x_and_y(self):
        a = pearson(one([1, 2, 3, 4], [1, 2, 3, 5]))
        b = pearson(one([1, 2, 3, 5], [1, 2, 3, 4]))
        assert a.estimate[0] == pytest.approx(b.estimate[0], abs=1e-15)
        assert a.std_error[0] == pytest.approx(b.std_error[0], abs=1e-15)

    def test_negating_x_negates_r(self):
        a = pearson(one([1, 2, 3, 4], [1, 2, 3, 5]))
        b = pearson(one([-1, -2, -3, -4], [1, 2, 3, 5]))
        assert b.estimate[0] == pytest.approx(-a.estimate[0], abs=1e-15)
        assert b.std_error[0] == pytest.approx(a.std_error[0], abs=1e-15)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = 0.4 * x + rng.normal(size=12)
        base = pearson(one(x, y))
        moved = pearson(one(3.0 * x + 7.0, 0.2 * y - 11.0))
        assert moved.estimate[0] == pytest.approx(base.estimate[0], abs=1e-12)
        assert moved.std_error[0] == pytest.approx(base.std_error[0], abs=1e-12)

    def test_independent_noise_se(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=10_000)
        y = rng.normal(size=10_000)
        est = pearson(one(x, y))
        assert abs(est.estimate[0]) < 0.05
        assert 0.0099 < est.std_error[0] <= 0.01

    def test_constant_y_is_degenerate(self):
        assert pearson(one([1, 2, 3], [4, 4, 4])).reason(0) == (
            "y is constant; correlation is undefined"
        )

    @pytest.mark.parametrize("value", [0.1, -0.1])
    def test_constant_y_is_degenerate_whatever_its_mean_rounds_to(self, value):
        # y is constant by its range, as x is, not by a centered sum of
        # squares that an inexact mean leaves tiny but positive
        assert pearson(one(np.arange(25.0), np.full(25, value))).reason(0) == (
            "y is constant; correlation is undefined"
        )

    def test_perfect_correlation_is_degenerate(self):
        for y in ([4, 7, 10, 13], [-2, -4, -6, -8]):
            assert pearson(one([1, 2, 3, 4], y)).reason(0) == (
                "|r| = 1 leaves a degenerate standard error"
            )

    def test_against_corrcoef_reference(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            est = pearson(one(x, y))
            r_ref = float(np.corrcoef(x, y)[0, 1])
            assert est.estimate[0] == pytest.approx(r_ref, abs=1e-12)
            assert est.std_error[0] == pytest.approx(
                (1 - r_ref * r_ref) / math.sqrt(n), abs=1e-12
            )


class TestExtremeScales:
    """Rows are scaled by powers of two before centering, so sums of squares
    neither overflow nor underflow and results scale exactly."""

    X = [-1.0, 0.0, 1.0, 3.0, 0.5]
    Y = [-1.0, 0.0, 2.0, 2.5, 0.25]

    @pytest.mark.parametrize(
        "ex, ey", [(560, 560), (-560, -560), (560, 0), (0, 560), (-560, 0), (0, -560)]
    )
    def test_ols_slope_scales_exactly(self, ex, ey):
        base = ols_slope(one(self.X, self.Y))
        est = ols_slope(one(np.ldexp(self.X, ex), np.ldexp(self.Y, ey)))
        assert est.estimate[0] == math.ldexp(base.estimate[0], ey - ex)
        assert est.std_error[0] == math.ldexp(base.std_error[0], ey - ex)

    @pytest.mark.parametrize("ex, ey", [(560, 560), (-560, -560), (560, -560), (-560, 0)])
    def test_pearson_is_scale_free(self, ex, ey):
        base = pearson(one(self.X, self.Y))
        est = pearson(one(np.ldexp(self.X, ex), np.ldexp(self.Y, ey)))
        assert (est.estimate[0], est.std_error[0]) == (base.estimate[0], base.std_error[0])

    @pytest.mark.parametrize("ey", [560, -560])
    def test_constant_y_is_degenerate_at_any_scale(self, ey):
        est = pearson(one(np.arange(25.0), np.full(25, math.ldexp(0.1, ey))))
        assert est.reason(0) == "y is constant; correlation is undefined"

    def test_slope_se_below_the_core_floor_is_degenerate(self):
        # the SE is positive but below 1e-300, which the tests refuse
        x = np.arange(10.0)
        y = np.sin(x) * 1e-310
        rule = "std_error must be finite and > 1e-300, got "
        batch = ols_slope(SampleBatch(np.stack([x, x]), np.stack([y, np.sin(x)])))
        assert batch.ok.tolist() == [False, True]
        assert batch.reason(0) == rule + repr(float(batch.std_error[0]))

    def test_slope_past_the_float_range_is_degenerate(self):
        # the SE is finite, but the slope overflows: a row the tests refuse
        batch = ols_slope(SampleBatch([[0, 1e-10, 2e-10]], [[0, 1e300 * (1 + 1e-5), 2e300]]))
        assert math.isinf(batch.estimate[0]) and math.isfinite(batch.std_error[0])
        assert batch.ok.tolist() == [False]
        assert batch.reason(0) == "estimate must be finite, got inf"


class TestBatches:
    """Row i of a batch is exactly row 0 of the one-row batch of sample i."""

    @staticmethod
    def row(batch, i):
        return batch.reason(i) or (batch.estimate[i], batch.std_error[i])

    def single(self, estimator, x, y):
        return self.row(estimator(one(x, y)), 0)

    def test_sample_batch_accepts_lists_and_reports_length(self):
        batch = SampleBatch([[0, 1, 2], [1, 2, 4]], [[5, 4, 3], [0, 0, 1]])
        assert len(batch) == 2
        assert batch.x.dtype == batch.y.dtype == float

    @pytest.mark.parametrize("estimator", [ols_slope, pearson])
    def test_non_finite_values_and_constant_x_are_degenerate_rows(self, estimator):
        # not construction errors: the batch holds them and codes their rows
        batch = estimator(SampleBatch([[1, 2, math.nan], [1, 2, 3], [2, 2, 2]],
                                      [[1, 2, 3], [1, math.inf, 3], [1, 2, 3]]))
        assert [batch.reason(i) for i in range(3)] == [
            "sample contains non-finite values",
            "sample contains non-finite values",
            "x is constant; no slope or correlation exists",
        ]

    @pytest.mark.parametrize("estimator", [ols_slope, pearson])
    def test_sample_batch_rows_match_single_samples(self, estimator):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 9))
        y = 0.3 * x + rng.normal(size=(6, 9))
        x[1] = 4.0  # constant x
        y[2] = 1.5 * x[2]  # perfect fit, |r| = 1
        y[3] = -2.0  # constant y
        x[4] *= 2.0**-600
        batch = estimator(SampleBatch(x, y))
        assert len(batch) == 6
        for i in range(6):
            assert self.row(batch, i) == self.single(estimator, x[i], y[i])
        # constant y is a perfect fit for the slope
        assert batch.ok.tolist() == [True, False, False, False, True, True]

    def test_sample_batch_reports_non_finite_rows(self):
        x = np.ones((2, 4)) * [0.0, 1.0, 2.0, 3.0]
        y = x.copy()
        y[0, 1] = math.nan
        y[1, 0] += 1.0
        batch = ols_slope(SampleBatch(x, y))
        assert batch.reason(0) == "sample contains non-finite values"
        assert batch.ok.tolist() == [False, True]

    @pytest.mark.parametrize("estimator", [ols_slope, pearson])
    def test_feature_matrix_pairs_match_single_samples(self, estimator):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(15, 6))
        data[:, 2] = 7.0
        data[:, 4] = -data[:, 0]
        data[:, 5] *= 2.0**600
        matrix = FeatureMatrix(data)
        batch = estimator(matrix)
        first, second = matrix.pairs()
        assert len(batch) == len(matrix) == 15
        pairs = list(zip(first.tolist(), second.tolist()))
        assert pairs == [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for k, (i, j) in enumerate(pairs):
            assert self.row(batch, k) == self.single(estimator, data[:, i], data[:, j])

    def test_constant_column_is_degenerate_in_both_positions(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(25, 3))
        data[:, 1] = 0.1  # its mean is not exactly 0.1
        batch = pearson(FeatureMatrix(data))
        assert [batch.reason(k) for k in range(3)] == [
            "y is constant; correlation is undefined",
            None,
            "x is constant; no slope or correlation exists",
        ]
        y_batch = pearson(SampleBatch(data[:, [0]].T, data[:, [1]].T))
        assert y_batch.reason(0) == "y is constant; correlation is undefined"
        # named features: the constant one is named in either position
        assert [batch.reason(k, names) for k, names in ((0, ("a", "k")), (2, ("k", "b")))] == [
            "k is constant; correlation is undefined",
            "k is constant; correlation is undefined",
        ]

    def test_batch_shapes_are_validated(self):
        with pytest.raises(EstimationError):
            SampleBatch(np.zeros((2, 5)), np.zeros((2, 4)))
        with pytest.raises(EstimationError):
            SampleBatch(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(EstimationError):
            FeatureMatrix(np.zeros((5, 1)))
        with pytest.raises(EstimationError):
            FeatureMatrix(np.zeros((2, 3)))


def multi_pass_deviations(rows):
    """The range pass written as separate passes: largest |value|, all
    finite, max == min."""
    exponent = np.frexp(np.abs(rows).max(axis=-1))[1]
    scaled = np.ldexp(rows, -exponent[..., None])
    finite = np.isfinite(rows).all(axis=-1)
    constant = rows.max(axis=-1) == rows.min(axis=-1)
    return scaled - scaled.mean(axis=-1, keepdims=True), exponent, finite, constant


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0]


@st.composite
def sample_rows(draw, size):
    """One row of a sample: arbitrary, special or constant values scaled by
    2^-1074 to 2^1000 (a product past the float range is +-inf)."""
    kind = draw(st.sampled_from(["mixed", "constant", "zeros"]))
    value = st.one_of(st.floats(-8.0, 8.0), st.sampled_from(SPECIAL))
    values = draw(st.lists(value, min_size=size, max_size=size))
    if kind == "constant":
        values = [values[0]] * size
    elif kind == "zeros":
        values = [0.0] * size
    exponent = draw(st.sampled_from([-1074, -1000, -30, 0, 30, 1000]))
    with np.errstate(over="ignore"):
        return np.ldexp(values, exponent)


@st.composite
def sample_stacks(draw):
    count, size = draw(st.integers(1, 4)), draw(st.integers(3, 7))
    rows = st.lists(sample_rows(size), min_size=count, max_size=count)
    return np.array(draw(rows)), np.array(draw(rows))


class TestRangePass:
    """One max and one min per row give the scaling exponent, finiteness
    and constancy; estimates must keep the bits of separate passes."""

    @staticmethod
    def outcomes(x, y):
        found = []
        for estimator in (ols_slope, pearson):
            for batch in (estimator(SampleBatch(x, y)),
                          estimator(FeatureMatrix(np.concatenate([x, y]).T))):
                found.append((batch.estimate.tobytes(), batch.std_error.tobytes(),
                              batch.code.tolist()))
        return found

    @given(sample_stacks())
    def test_fused_pass_matches_separate_passes(self, stacks):
        x, y = stacks
        fused = self.outcomes(x, y)
        with mock.patch.object(estimators, "_scaled_deviations", multi_pass_deviations):
            separate = self.outcomes(x, y)
        assert fused == separate


@st.composite
def feature_matrices(draw):
    """A matrix of p >= 2 features: normal columns scaled by 2^-1000, 1 or
    2^1000, whose sums of products depend on the order they are added in,
    and the rows of sample_rows (NaN, +-inf, constant and zero columns)."""
    n, p = draw(st.integers(3, 40)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normal = st.sampled_from([-1000, 0, 1000]).map(lambda e: np.ldexp(rng.standard_normal(n), e))
    return np.array(draw(st.lists(normal | sample_rows(n), min_size=p, max_size=p))).T


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def nan_as_one(array):
    """The array with every NaN the same NaN: x . y and y . x of two NaN
    rows of opposite sign differ in the sign of theirs."""
    return np.where(np.isnan(array), np.nan, array)


class TestFeatureMatrixSums:
    """A FeatureMatrix's sums come from one broadcast kernel call over every
    pair of features; each pair must keep the bits of its own ddot.  A
    matrix product (dev @ dev.T, einsum) adds in another order and fails."""

    @given(feature_matrices())
    @example(np.random.default_rng(0).standard_normal((60, 5)))
    def test_every_pair_keeps_the_bits_of_its_own_dot(self, data):
        matrix = FeatureMatrix(data)
        first, second = matrix.pairs()
        sums = estimators._sums(matrix)
        with np.errstate(all="ignore"):
            dev = estimators._scaled_deviations(matrix.columns)[0]
            for k, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
                want = [estimators._dot(dev[i], dev[i]), estimators._dot(dev[j], dev[i]),
                        estimators._dot(dev[j], dev[j])]
                assert bits(sums.sxx[k], sums.sxy[k], sums.syy[k]) == bits(*want)
        got = pearson(matrix)
        want = pearson(SampleBatch(data[:, first].T, data[:, second].T))
        assert bits(*map(nan_as_one, (got.estimate, got.std_error))) == bits(
            *map(nan_as_one, (want.estimate, want.std_error)))
        assert got.code.tolist() == want.code.tolist()


class TestInputsUntouched:
    """The estimators centre private copies; the caller's arrays keep their bytes."""

    def test_estimators_never_write_into_the_callers_arrays(self):
        rng = np.random.default_rng(19)
        # replicate rows of x, noise, x, noise, as the study engine draws them;
        # its x and y are strided views of that block
        block = rng.standard_normal((6, 4, 30)) * 1e3 + 7.0
        x, y = block[:, 0::2].reshape(-1, 30), block[:, 1::2].reshape(-1, 30)
        assert np.shares_memory(x, block) and not x.flags.c_contiguous
        data = rng.standard_normal((40, 5)) - 3.0
        samples = [SampleBatch(x, y), SampleBatch(x.copy(), y.copy()), FeatureMatrix(data),
                   FeatureMatrix(block[:, 1])]
        assert samples[0].x is x and samples[2].data is data
        arrays = [block, data, *(a for s in samples for a in vars(s).values())]
        before = [a.tobytes() for a in arrays]
        for estimator in (ols_slope, pearson):
            for sample in samples:
                estimator(sample)
            assert [a.tobytes() for a in arrays] == before
