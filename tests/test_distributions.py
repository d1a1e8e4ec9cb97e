"""Numerical-kernel tests.

Reference values were frozen from independent oracles: the univariate
constants from a 40-digit erfc evaluation (mpmath), the bivariate rectangle
probabilities from the one-dimensional conditional-normal reduction
P(X>a, Y>b) = integral_a^inf phi(x) * Phibar((b - rho x)/sqrt(1-rho^2)) dx
evaluated with adaptive quadrature at 40 digits.  Neither oracle shares code
with the Owen-T path under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr

from qualint.distributions import (
    bvn_upper_tail,
    chi2_1_tail,
    std_normal_cdf,
    std_normal_quantile,
)

# mpmath, 40 digits: x -> Phi(x)
PHI_ORACLE = {
    -3.7: 0.00010779973347738833694,
    -1.2: 0.11506967022170826802,
    0.3: 0.61791142218895263731,
    1.959964: 0.9750000009035575957,
    2.0: 0.9772498680518207928,
    4.2: 0.99998665425098409366,
}

# mpmath conditional-normal quadrature: (a, b, rho) -> P(X > a, Y > b)
BVN_ORACLE = [
    (1.0, 0.5, 0.0, 0.0489511015539582148),
    (0.0, 0.0, 0.5, 1.0 / 3.0),
    (1.0, 1.0, -0.6, 0.00171887994528885872),
    (1.0, 1.0, 0.8, 0.0976365190815577999),
    (-0.5, 1.25, 0.37, 0.0937143705663427154),
    (2.0, -3.0, -0.85, 0.0215095735951158131),
    (0.0, 0.8, -0.3, 0.0710730912694471518),
    (1.5, 1.5, 0.999, 0.0644966873920801743),
    (-2.2, -0.4, 0.65, 0.654666946041528351),
    (0.7, 0.7, -0.95, 1.26231091399359403e-7),
    (3.5, 2.5, 0.45, 4.26456488788125196e-5),
    (-1.0, -1.0, -0.99, 0.682689492137085897),
    (0.3, 0.0, 0.72, 0.311765203941301675),
]


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_oracle_values(self):
        for x, expected in PHI_ORACLE.items():
            assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-12)

    def test_upper_alpha_point(self):
        # 97.5% point of the standard normal, 1e-6 tolerance
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6

    def test_reflection(self):
        x = 2.3
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-12)

    def test_reflection_randomized(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_oracle_value(self):
        # mpmath root of Phi(x) = 0.975
        assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400542, abs=1e-10)

    def test_reflection(self):
        assert std_normal_quantile(0.05) == pytest.approx(
            -std_normal_quantile(0.95), abs=1e-12
        )

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(1e-6, 1.0 - 1e-6, size=100):
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


class TestChi2Tail:
    def test_full_mass_at_zero(self):
        assert chi2_1_tail(0.0) == 1.0
        assert chi2_1_tail(-5.0) == 1.0

    def test_oracle_values(self):
        # 2*(1 - Phi(2)) and the 95% quantile, mpmath
        assert chi2_1_tail(4.0) == pytest.approx(0.045500263896358414, abs=1e-12)
        assert abs(chi2_1_tail(3.841459) - 0.05) < 1e-4

    def test_composition_identity(self):
        # exactly the composition 2*(1 - Phi(sqrt(t))), bit for bit
        for t in [0.1, 0.5, 1.0, 2.0, 5.0, 17.3]:
            assert chi2_1_tail(t) == 2.0 * std_normal_cdf(-math.sqrt(t))

    def test_infinite(self):
        assert chi2_1_tail(math.inf) == 0.0


class TestBvnUpperTail:
    def test_independence_factorization(self):
        got = bvn_upper_tail(1.0, 0.5, 0.0)
        want = (1.0 - std_normal_cdf(1.0)) * (1.0 - std_normal_cdf(0.5))
        assert got == pytest.approx(want, abs=1e-10)

    def test_orthant_identity(self):
        # Sheppard: P(X>0, Y>0) = 1/4 + arcsin(rho)/(2 pi)
        assert bvn_upper_tail(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_oracle_grid(self):
        for a, b, rho, expected in BVN_ORACLE:
            assert bvn_upper_tail(a, b, rho) == pytest.approx(expected, abs=1e-10), (
                a,
                b,
                rho,
            )

    def test_degenerate_positive(self):
        # rho = 1 means X = Y: tail is governed by the larger threshold
        assert bvn_upper_tail(0.3, 0.7, 1.0) == pytest.approx(
            1.0 - std_normal_cdf(0.7), abs=1e-14
        )
        assert bvn_upper_tail(0.3, 0.7, 1.0 - 1e-13) == bvn_upper_tail(0.3, 0.7, 1.0)

    def test_degenerate_negative(self):
        # rho = -1 means X = -Y: the event is a < X < -b
        assert bvn_upper_tail(-1.0, -1.0, -1.0) == pytest.approx(
            std_normal_cdf(1.0) - std_normal_cdf(-1.0), abs=1e-14
        )
        assert bvn_upper_tail(1.0, 1.0, -1.0) == 0.0

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            rho = rng.uniform(-0.99, 0.99)
            assert bvn_upper_tail(a, b, rho) == pytest.approx(
                bvn_upper_tail(b, a, rho), abs=1e-13
            )

    def test_monotone_in_rho(self):
        # Slepian: the joint upper tail grows with the correlation
        for a, b in [(-1.5, 0.4), (0.0, 0.0), (0.7, 1.9), (2.0, 2.0), (-0.3, -2.1)]:
            values = [
                bvn_upper_tail(a, b, rho) for rho in np.linspace(-0.999, 0.999, 41)
            ]
            assert all(
                later >= earlier - 1e-12 for earlier, later in zip(values, values[1:])
            )

    def test_reflection_marginal(self):
        # P(X>a, Y>b) + P(X>a, Y<=b) must rebuild the marginal tail of X
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(-2.5, 2.5, size=2)
            rho = rng.uniform(-0.98, 0.98)
            total = bvn_upper_tail(a, b, rho) + bvn_upper_tail(a, -b, -rho)
            assert total == pytest.approx(1.0 - std_normal_cdf(a), abs=1e-12)

    def test_monte_carlo_agreement(self):
        # 10^6 correlated draws at 20 random points, 4 MC standard errors
        rng = np.random.default_rng(99)
        n = 1_000_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        for _ in range(20):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            rho = rng.uniform(-0.95, 0.95)
            y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
            p_hat = float(np.mean((z1 > a) & (y > b)))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
            assert abs(bvn_upper_tail(a, b, rho) - p_hat) <= 4.0 * se

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bvn_upper_tail(math.nan, 0.0, 0.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(0.0, [1.0, math.nan], 0.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(0.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(math.inf, 0.0, math.nan)

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_infinite_thresholds_give_the_limits(self, rho):
        # +inf: the event is empty; -inf: the other margin's tail, exactly
        for x in (-40.0, -2.5, -1e-300, 0.0, 0.7, 3.0, 40.0):
            for first, second in ((math.inf, x), (x, math.inf)):
                got = bvn_upper_tail(first, second, rho)
                assert type(got) is float and got == 0.0
            for first, second in ((-math.inf, x), (x, -math.inf)):
                got = bvn_upper_tail(first, second, rho)
                assert type(got) is float and got == ndtr(-x)
        assert bvn_upper_tail(-math.inf, -math.inf, rho) == 1.0
        assert bvn_upper_tail(math.inf, -math.inf, rho) == 0.0
        assert bvn_upper_tail(-math.inf, math.inf, rho) == 0.0
        # arrays broadcast, finite entries keep the finite-threshold value
        a = np.array([[-math.inf], [0.3], [math.inf]])
        b = np.array([1.2, -math.inf])
        got = bvn_upper_tail(a, b, rho)
        assert got.shape == (3, 2)
        want = [[ndtr(-1.2), 1.0], [bvn_upper_tail(0.3, 1.2, rho), ndtr(-0.3)], [0.0, 0.0]]
        np.testing.assert_array_equal(got, want)
