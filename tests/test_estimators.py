"""Tests for the per-group association estimators.

Closed-form expectations below were worked out exactly in rationals
(slope 3/2 with standard error sqrt(1/12); correlation 6.5/sqrt(43.75));
the random-sample checks compare against brute-force reference
implementations built on numpy's lstsq/corrcoef.
"""

import math

import numpy as np
import pytest

from qualint.estimators import (
    EstimationError,
    FeatureMatrix,
    Sample2D,
    SampleBatch,
    ols_slope,
    pearson,
)


class TestSample2D:
    def test_accepts_lists_and_reports_length(self):
        s = Sample2D([0, 1, 2], [5, 4, 3])
        assert len(s) == 3
        assert s.x.dtype == float

    def test_rejects_bad_shapes(self):
        with pytest.raises(EstimationError):
            Sample2D([1, 2, 3], [1, 2])
        with pytest.raises(EstimationError):
            Sample2D([[1, 2], [3, 4]], [1, 2])
        with pytest.raises(EstimationError):
            Sample2D([1, 2], [1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(EstimationError):
            Sample2D([1, 2, math.nan], [1, 2, 3])
        with pytest.raises(EstimationError):
            Sample2D([1, 2, 3], [1, math.inf, 3])

    def test_rejects_constant_x(self):
        with pytest.raises(EstimationError):
            Sample2D([2, 2, 2], [1, 2, 3])


class TestOlsSlope:
    def test_closed_form_example(self):
        est = ols_slope(Sample2D([-1, 0, 1], [-1, 0, 2]))
        assert est.estimate == pytest.approx(1.5, abs=1e-14)
        assert est.std_error == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)
        assert est.sample_size == 3

    def test_perfect_fit_is_degenerate(self):
        with pytest.raises(EstimationError):
            ols_slope(Sample2D([0, 1, 2, 3], [0, 2, 4, 6]))

    def test_shift_invariance(self):
        base = ols_slope(Sample2D([-1, 0, 1, 3], [-1, 0, 2, 2.5]))
        shifted = ols_slope(Sample2D([-1, 0, 1, 3], [99 - 1, 99 + 0, 99 + 2, 99 + 2.5]))
        assert shifted.estimate == pytest.approx(base.estimate, abs=1e-12)
        assert shifted.std_error == pytest.approx(base.std_error, abs=1e-12)

    def test_equivariance_in_y(self):
        x = [-1.0, 0.0, 1.0, 3.0]
        y = [-1.0, 0.0, 2.0, 2.5]
        base = ols_slope(Sample2D(x, y))
        for c in (2.5, -4.0):
            scaled = ols_slope(Sample2D(x, [c * v for v in y]))
            assert scaled.estimate == pytest.approx(c * base.estimate, rel=1e-12)
            assert scaled.std_error == pytest.approx(
                abs(c) * base.std_error, rel=1e-12
            )

    def test_equivariance_in_x(self):
        x = [-1.0, 0.0, 1.0, 3.0]
        y = [-1.0, 0.0, 2.0, 2.5]
        base = ols_slope(Sample2D(x, y))
        for c in (2.5, -4.0):
            scaled = ols_slope(Sample2D([c * v for v in x], y))
            assert scaled.estimate == pytest.approx(base.estimate / c, rel=1e-12)
            assert scaled.std_error == pytest.approx(
                base.std_error / abs(c), rel=1e-12
            )

    def test_against_lstsq_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.7 * x + rng.normal(size=n)
            est = ols_slope(Sample2D(x, y))
            design = np.column_stack([np.ones(n), x])
            coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ coef
            sxx = float(np.sum((x - x.mean()) ** 2))
            se_ref = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
            assert est.estimate == pytest.approx(coef[1], abs=1e-12, rel=1e-12)
            assert est.std_error == pytest.approx(se_ref, abs=1e-12, rel=1e-12)


class TestPearson:
    def test_closed_form_example(self):
        est = pearson(Sample2D([1, 2, 3, 4], [1, 2, 3, 5]))
        r_expected = 6.5 / math.sqrt(43.75)
        assert est.estimate == pytest.approx(r_expected, abs=1e-14)
        assert est.std_error == pytest.approx((1 - r_expected**2) / 2.0, abs=1e-14)
        assert est.sample_size == 4

    def test_symmetric_in_x_and_y(self):
        a = pearson(Sample2D([1, 2, 3, 4], [1, 2, 3, 5]))
        b = pearson(Sample2D([1, 2, 3, 5], [1, 2, 3, 4]))
        assert a.estimate == pytest.approx(b.estimate, abs=1e-15)
        assert a.std_error == pytest.approx(b.std_error, abs=1e-15)

    def test_negating_x_negates_r(self):
        a = pearson(Sample2D([1, 2, 3, 4], [1, 2, 3, 5]))
        b = pearson(Sample2D([-1, -2, -3, -4], [1, 2, 3, 5]))
        assert b.estimate == pytest.approx(-a.estimate, abs=1e-15)
        assert b.std_error == pytest.approx(a.std_error, abs=1e-15)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = 0.4 * x + rng.normal(size=12)
        base = pearson(Sample2D(x, y))
        moved = pearson(Sample2D(3.0 * x + 7.0, 0.2 * y - 11.0))
        assert moved.estimate == pytest.approx(base.estimate, abs=1e-12)
        assert moved.std_error == pytest.approx(base.std_error, abs=1e-12)

    def test_independent_noise_se(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=10_000)
        y = rng.normal(size=10_000)
        est = pearson(Sample2D(x, y))
        assert abs(est.estimate) < 0.05
        assert 0.0099 < est.std_error <= 0.01

    def test_constant_y_is_degenerate(self):
        with pytest.raises(EstimationError):
            pearson(Sample2D([1, 2, 3], [4, 4, 4]))

    @pytest.mark.parametrize("value", [0.1, -0.1])
    def test_constant_y_is_degenerate_whatever_its_mean_rounds_to(self, value):
        # y is constant by its range, as x is, not by a centered sum of
        # squares that an inexact mean leaves tiny but positive
        with pytest.raises(EstimationError, match="y is constant"):
            pearson(Sample2D(np.arange(25.0), np.full(25, value)))

    def test_perfect_correlation_is_degenerate(self):
        with pytest.raises(EstimationError):
            pearson(Sample2D([1, 2, 3, 4], [4, 7, 10, 13]))
        with pytest.raises(EstimationError):
            pearson(Sample2D([1, 2, 3, 4], [-2, -4, -6, -8]))

    def test_against_corrcoef_reference(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            est = pearson(Sample2D(x, y))
            r_ref = float(np.corrcoef(x, y)[0, 1])
            assert est.estimate == pytest.approx(r_ref, abs=1e-12)
            assert est.std_error == pytest.approx(
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
        base = ols_slope(Sample2D(self.X, self.Y))
        est = ols_slope(Sample2D(np.ldexp(self.X, ex), np.ldexp(self.Y, ey)))
        assert est.estimate == math.ldexp(base.estimate, ey - ex)
        assert est.std_error == math.ldexp(base.std_error, ey - ex)

    @pytest.mark.parametrize("ex, ey", [(560, 560), (-560, -560), (560, -560), (-560, 0)])
    def test_pearson_is_scale_free(self, ex, ey):
        base = pearson(Sample2D(self.X, self.Y))
        est = pearson(Sample2D(np.ldexp(self.X, ex), np.ldexp(self.Y, ey)))
        assert (est.estimate, est.std_error) == (base.estimate, base.std_error)

    @pytest.mark.parametrize("ey", [560, -560])
    def test_constant_y_is_degenerate_at_any_scale(self, ey):
        with pytest.raises(EstimationError, match="y is constant"):
            pearson(Sample2D(np.arange(25.0), np.full(25, math.ldexp(0.1, ey))))


    def test_slope_se_below_the_core_floor_is_degenerate(self):
        # the SE is positive but below 1e-300, which the tests refuse
        x = np.arange(10.0)
        y = np.sin(x) * 1e-310
        rule = "std_error must be finite and > 1e-300, got "
        with pytest.raises(EstimationError, match=rule):
            ols_slope(Sample2D(x, y))
        batch = ols_slope(SampleBatch(np.stack([x, x]), np.stack([y, np.sin(x)])))
        assert batch.ok.tolist() == [False, True]
        assert batch.reason(0) == rule + repr(float(batch.std_error[0]))


class TestBatches:
    """Row i of a batch is exactly the single-sample call on sample i."""

    @staticmethod
    def single(estimator, x, y):
        try:
            fit = estimator(Sample2D(x, y))
        except EstimationError as exc:
            return str(exc)
        return fit.estimate, fit.std_error

    @staticmethod
    def row(batch, i):
        return batch.reason(i) or (batch.estimate[i], batch.std_error[i])

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
        assert len(batch) == 6 and batch.sample_size == 9
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

    def test_batch_shapes_are_validated(self):
        with pytest.raises(EstimationError):
            SampleBatch(np.zeros((2, 5)), np.zeros((2, 4)))
        with pytest.raises(EstimationError):
            SampleBatch(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(EstimationError):
            FeatureMatrix(np.zeros((5, 1)))
        with pytest.raises(EstimationError):
            FeatureMatrix(np.zeros((2, 3)))
