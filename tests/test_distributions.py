"""Numerical-kernel tests.

Reference values were frozen from independent oracles: the univariate
constants from a 40-digit erfc evaluation (mpmath), the bivariate rectangle
probabilities from the one-dimensional conditional-normal reduction
P(X>a, Y>b) = integral_a^inf phi(x) * Phibar((b - rho x)/sqrt(1-rho^2)) dx
evaluated with adaptive quadrature at 50 digits (see
tests/oracles/gen_distribution_oracles.py).  Neither oracle shares code with
the kernels under test.  scipy's ndtr and owens_t, from the test extra, are
a second, dense reference.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.special import owens_t

from qualint.distributions import (
    bvn_upper_tail,
    chi2_1_tail,
    ndtr,
    std_normal_quantile,
)

EPS = np.finfo(float).eps

# mpmath, 50 digits, at the exact double of each x: x -> Phi(x)
PHI_ORACLE = {
    -37.5: 4.605353009581954843828e-308,
    -37: 5.725571222524576822683e-300,
    -30.25: 2.608640285741260496334e-201,
    -20: 2.753624118606233695076e-89,
    -12.3: 4.528706956158784651441e-35,
    -8.01: 5.735422180258059780323e-16,
    -6.3: 1.488228221762312666877e-10,
    -5.6: 1.071759025831092932004e-8,
    -3.7: 0.0001077997334773882614813,
    -1.2: 0.1150696702217082766458,
    -0.26: 0.3974318867982394950647,
    0.3: 0.6179114221889526330723,
    1.959964: 0.9750000009035575980056,
    2.0: 0.9772498680518207927997,
    4.2: 0.9999866542509840936721,
    7.9: 0.9999999999999986054829,
}

# mpmath conditional-normal quadrature, 50 digits: (a, b, rho) -> P(X > a, Y > b).
# Every Genz regime of |rho| with both signs, thresholds on an axis, and
# deep upper tails out to +-38.
BVN_ORACLE = [
    (1.0, 0.5, 0.0, 0.04895110155395821478952),
    (0.5, -0.7, 0.2, 0.2551379263221913044944),
    (-1.3, 2.1, -0.25, 0.01356680731913484840998),
    (0.0, 0.0, 0.5, 0.3333333333333333333333),
    (1.0, 1.0, -0.6, 0.001718879945288859087489),
    (-0.5, 1.25, 0.37, 0.09371437056634271518921),
    (0.0, 0.8, -0.3, 0.07107309126944714799698),
    (0.3, 0.0, 0.72, 0.3117652039413016723131),
    (1.0, 1.0, 0.8, 0.09763651908155780662075),
    (2.0, -3.0, -0.85, 0.02150957359511581310058),
    (-2.2, -0.4, 0.65, 0.6546669460415283595179),
    (0.0, 1.7, 0.9, 0.04456334541420693456326),
    (1.5, 1.5, 0.999, 0.0644966873920801732926),
    (0.3, 0.0, 0.95, 0.3705508792359858390559),
    (2.5, 3.0, 0.93, 0.001217872355073620786445),
    (-1.1, 0.6, 0.9999, 0.2742531177500735876934),
    (0.7, 0.7, -0.95, 1.262310913993608296732e-7),
    (-1.0, -1.0, -0.99, 0.6826894921370858971705),
    (0.0, -0.5, -0.97, 0.1921860501222915825999),
    (-0.3, 0.4, -0.999, 0.00007398514359460373331924),
    (-1.5, 1.2, -0.93, 0.05539022508152157294296),
    (3.5, 2.5, 0.45, 0.00004264564887881252214694),
    (5.0, 5.0, -0.5, 3.432573480035108395745e-25),
    (12.0, 12.0, -0.5, 2.65803009919508732502e-129),
    (20.0, 3.0, -0.7, 1.895437409430512151952e-214),
    (8.0, 6.5, 0.2, 2.033049689387080990406e-22),
    (10.0, 12.0, 0.95, 1.776479154313288552455e-33),
    (25.0, 25.0, 0.9, 2.821241462906210112688e-146),
    (36.0, 36.0, 0.99, 4.455063213036484438224e-286),
    (37.0, 0.0, 0.3, 5.725571222524576822683e-300),
    (-38.0, 37.5, 0.95, 4.605353009581954843828e-308),
    (30.0, -38.0, -0.6, 4.906713927148187059534e-198),
    (-38.0, -38.0, -0.99, 1.0),
    (6.0, -6.0, -0.97, 5.452366887346999029382e-10),
]

# relative accuracy of bvn_upper_tail where the tail is below 1e-15
DEEP_TAIL_REL = 1e-13


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_oracle_values(self):
        for x, expected in PHI_ORACLE.items():
            assert ndtr(x) == pytest.approx(expected, abs=1e-12)

    def test_oracle_values_within_four_ulp(self):
        # relative accuracy holds down to Phi(-37.5) = 4.6e-308
        for x, expected in PHI_ORACLE.items():
            assert abs(ndtr(x) - expected) <= 4.0 * np.spacing(expected), x

    def test_matches_scipy_densely(self):
        # scipy rounds x / sqrt(2) and x^2 itself, so in the lower tail the two
        # may differ by that error, about eps (4 + x^2) relative
        x = np.random.default_rng(2024).uniform(-37.0, 9.0, 200_000)
        want = scipy_ndtr(x)
        assert (np.abs(ndtr(x) - want) <= 2.0 * EPS * (4.0 + x * x) * want).all()

    def test_limits_and_nan(self):
        got = ndtr(np.array([-math.inf, -1e300, -40.0, 0.0, 40.0, 1e300, math.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
        assert math.isnan(ndtr(math.nan))

    def test_upper_alpha_point(self):
        # 97.5% point of the standard normal, 1e-6 tolerance
        assert abs(ndtr(1.959964) - 0.975) < 1e-6

    def test_reflection(self):
        x = 2.3
        assert ndtr(-x) == pytest.approx(1.0 - ndtr(x), abs=1e-12)

    def test_reflection_randomized(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-12


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
            assert abs(ndtr(std_normal_quantile(p)) - p) <= 1e-10

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
            assert chi2_1_tail(t) == 2.0 * ndtr(-math.sqrt(t))

    def test_infinite(self):
        assert chi2_1_tail(math.inf) == 0.0


class TestBvnUpperTail:
    def test_frozen_node_tables_are_numpys(self):
        # the kernel ships its quadrature rules as constants; they hold the
        # bits numpy.polynomial computes
        from numpy.polynomial.laguerre import laggauss
        from numpy.polynomial.legendre import leggauss

        from qualint.distributions import _OWEN_FAR, _legendre

        for n in (6, 12, 16, 20):
            for frozen, computed in zip(_legendre(n), leggauss(n)):
                assert np.array_equal(frozen, computed), n
        for frozen, computed in zip(_OWEN_FAR, laggauss(16)):
            assert np.array_equal(frozen, computed)

    def test_independence_factorization(self):
        got = bvn_upper_tail(1.0, 0.5, 0.0)
        want = (1.0 - ndtr(1.0)) * (1.0 - ndtr(0.5))
        assert got == pytest.approx(want, abs=1e-10)

    def test_orthant_identity(self):
        # Sheppard: P(X>0, Y>0) = 1/4 + arcsin(rho)/(2 pi)
        assert bvn_upper_tail(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_oracle_grid(self):
        for a, b, rho, expected in BVN_ORACLE:
            assert abs(bvn_upper_tail(a, b, rho) - expected) <= 1e-14, (a, b, rho)

    def test_deep_tail_oracles_relative(self):
        # far below the absolute budget the kernel keeps relative accuracy
        for a, b, rho, expected in BVN_ORACLE:
            if expected < 1e-15:
                got = bvn_upper_tail(a, b, rho)
                assert abs(got - expected) <= DEEP_TAIL_REL * expected, (a, b, rho, got)

    def test_matches_owens_t_densely(self):
        # Owen's decomposition through scipy's owens_t, off the axes
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-6.0, 6.0, (2, 50_000))
        rho = rng.uniform(-0.999, 0.999, 50_000)
        h, k = -a, -b
        root = np.sqrt((1.0 - rho) * (1.0 + rho))
        owen = (0.5 * (scipy_ndtr(h) + scipy_ndtr(k)) - owens_t(h, (k / h - rho) / root)
                - owens_t(k, (h / k - rho) / root) - np.where((h > 0) != (k > 0), 0.5, 0.0))
        assert np.abs(bvn_upper_tail(a, b, rho) - owen).max() <= 1e-14

    def test_rows_equal_single_calls(self):
        # each row takes its method and nodes from its own values, whatever
        # the batch holds: every Genz regime, the upper-tail rows (both
        # thresholds >= 0, one >= 5) and rows with a = b
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-4.0, 12.0, (2, 300))
        b[::3] = a[::3]
        rho = rng.uniform(-1.0, 1.0, 300)
        batch = bvn_upper_tail(a, b, rho)
        assert [bvn_upper_tail(*row) for row in zip(a, b, rho)] == batch.tolist()

    def test_degenerate_positive(self):
        # rho = 1 means X = Y: tail is governed by the larger threshold
        assert bvn_upper_tail(0.3, 0.7, 1.0) == pytest.approx(
            1.0 - ndtr(0.7), abs=1e-14
        )
        assert bvn_upper_tail(0.3, 0.7, 1.0 - 1e-13) == bvn_upper_tail(0.3, 0.7, 1.0)

    def test_degenerate_negative(self):
        # rho = -1 means X = -Y: the event is a < X < -b
        assert bvn_upper_tail(-1.0, -1.0, -1.0) == pytest.approx(
            ndtr(1.0) - ndtr(-1.0), abs=1e-14
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
        # Slepian: the joint upper tail grows with the correlation, also in
        # deep tails and across the switch to the upper-tail method at 5
        for a, b in [(-1.5, 0.4), (0.0, 0.0), (0.7, 1.9), (2.0, 2.0), (-0.3, -2.1),
                     (5.5, 5.0), (6.0, 0.0), (4.9, 5.1)]:
            values = [
                bvn_upper_tail(a, b, rho) for rho in np.linspace(-0.999, 0.999, 41)
            ]
            assert all(
                later >= earlier * (1.0 - 1e-12) - 1e-16
                for earlier, later in zip(values, values[1:])
            )

    def test_reflection_marginal(self):
        # P(X>a, Y>b) + P(X>a, Y<=b) must rebuild the marginal tail of X
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(-2.5, 2.5, size=2)
            rho = rng.uniform(-0.98, 0.98)
            total = bvn_upper_tail(a, b, rho) + bvn_upper_tail(a, -b, -rho)
            assert total == pytest.approx(1.0 - ndtr(a), abs=1e-12)

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
        # +inf: the event is empty; -inf: the other margin's tail, exactly as
        # qualint's own Phi gives it
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
