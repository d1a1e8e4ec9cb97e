"""Tests for the interaction tests, power formulas, and kappa_max inversion.

Reference values marked as oracle pins were computed independently of the
package at 40-digit precision (normal CDF via erfc, bivariate tails via
conditional-normal quadrature); regenerate with
tests/oracles/gen_inference_oracles.py.  The kappa_max checks use a second
independent oracle: the boundary crossing solved in closed form as a
quadratic in kappa.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri_exp

from qualint.distributions import bvn_upper_tail, chi2_1_tail, std_normal_quantile
from qualint.inference import (
    LocalAlternative,
    PairBatch,
    _kappa_split,
    _omnibus_threshold,
    _omnibus_zero_tail,
    _rd_nu,
    _rows,
    _two_sided_point,
    gail_simon_test,
    kappa_max,
    omnibus_local_power,
    omnibus_null_tail,
    omnibus_statistic,
    omnibus_test,
    rd_local_power,
    rd_null_tail,
    rd_power_approx,
    rd_statistic,
    rd_test,
)

# ---------------------------------------------------------------------------
# frozen oracle values (see module docstring)
# ---------------------------------------------------------------------------

GS_P_AT_STAT4 = 0.02275013194817920720028
RD_EXAMPLE_STAT = 2.236067977499789696409
RD_EXAMPLE_BOUNDARY = 0.0253473186774682639316
RD_EXAMPLE_ZERO_TAIL = 8.464792848632235202723e-8
RD_NULL_TAIL_T1 = 0.006875519781155434899534
RD_ZERO_QUANTILE_K2 = 0.6509831226845572976891
OMNI_NULL_TAIL_T1 = 0.1952730381631155997241
OMNI_EXAMPLE_BOUNDARY = 0.003645179045767820740716
OMNI_EXAMPLE_ZERO_TAIL = 0.002340445124580732098325
OMNI_ZERO_QUANTILE_K110 = 1.920589407282249775454
# nu in {0.5, 0.8, 220/221, 1 - 1e-9} x alpha in {0.45, 0.05, 1e-6, 1e-100},
# where the zero-point root binds
OMNI_THRESHOLD_PANEL = [  # (nu, alpha, root)
    (0.5, 0.45, 0.2954137413035517210974),
    (0.8, 0.45, 0.4790933784136214496553),
    (220 / 221, 0.45, 0.7169209499845390624297),
    (220 / 221, 0.05, 1.920589407282249775454),
    (220 / 221, 1e-6, 4.850075680172625704975),
    (1 - 1e-9, 0.45, 0.7553971849990798749544),
    (1 - 1e-9, 0.05, 1.959946142986953597042),
    (1 - 1e-9, 1e-6, 4.891620633678891100932),
    (1 - 1e-9, 1e-100, 21.30592222471923624418),
]
Z95 = 1.644853626951472714864
Z975 = 1.959963984540054235525
Z95_FLOAT = std_normal_quantile(0.95)
RD_LOCAL_POWER_PIN = 0.5391436796729353847474
RD_POWER_APPROX_PIN = 0.9880009406182866028285
OMNI_LOCAL_POWER_PIN = 0.9999999998518088611076


def pair(e1, s1, e2, s2):
    return PairBatch.from_rows([(e1, s1, e2, s2)])


def draws_rejected(test, th1, se1, th2, se2, kappa, alpha):
    """The test's rejection flags on every draw, from one batch call; the
    first 200 rows are checked against scalar calls."""
    outcome = test(PairBatch(th1, se1, th2, se2), kappa, alpha)
    for i in range(200):
        single = test(pair(th1[i], se1, th2[i], se2), kappa, alpha)[0]
        assert outcome[i] == single
        assert outcome[i].components == single.components
    return outcome.rejected


def pair_with_statistic(t, kappa, ratio):
    """A pair whose rd statistic at kappa is t and whose se2 / se1 is ratio:
    |est1| - kappa |est2| = t hypot(se1, kappa se2), with the standard
    errors scaled so that hypot is 1."""
    d = math.hypot(1.0, kappa * ratio)
    return pair(1.0 + t, 1.0 / d, 1.0 / kappa, ratio / d)


def random_pairs(rng, count, se_low=0.05, se_high=2.0):
    for _ in range(count):
        yield pair(
            rng.normal(scale=2.0),
            rng.uniform(se_low, se_high),
            rng.normal(scale=2.0),
            rng.uniform(se_low, se_high),
        )


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class TestDomainTypes:
    def test_subgroup_estimate_validation(self):
        # one pair is a one-row batch, its bad value named as row 0
        good = PairBatch.from_rows([(0.5, 0.1, 0.2, 0.3)])
        assert good.est1[0] == 0.5 and good.se1[0] == 0.1
        for row, message in [
            ((math.nan, 0.1, 0.2, 0.3), "est1[0] must be finite, got nan"),
            ((math.inf, 0.1, 0.2, 0.3), "est1[0] must be finite, got inf"),
            ((0.5, 0.0, 0.2, 0.3), "se1[0] must be finite and > 1e-300, got 0.0"),
            ((0.5, -0.1, 0.2, 0.3), "se1[0] must be finite and > 1e-300, got -0.1"),
            ((0.5, 1e-301, 0.2, 0.3), "se1[0] must be finite and > 1e-300, got 1e-301"),
            ((0.5, math.inf, 0.2, 0.3), "se1[0] must be finite and > 1e-300, got inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                PairBatch.from_rows([row])

    def test_local_alternative_validation(self):
        LocalAlternative(1.0, -1.0, 1.0, 2.0, 0.3)
        for lam in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                LocalAlternative(1.0, -1.0, 1.0, 2.0, lam)
        with pytest.raises(ValueError):
            LocalAlternative(1.0, -1.0, 0.0, 2.0, 0.3)
        for sigma2 in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError, match=f"^sigma2 must be positive, got {sigma2!r}$"):
                LocalAlternative(1.0, -1.0, 1.0, sigma2, 0.3)
        with pytest.raises(ValueError):
            LocalAlternative(math.inf, -1.0, 1.0, 2.0, 0.3)


# ---------------------------------------------------------------------------
# crossover test
# ---------------------------------------------------------------------------


class TestCrossover:
    def test_region_predicate(self):
        # the crossover alternative is strictly opposite signs, where the
        # statistic is positive unless it underflows; a zero estimate lies
        # in the null
        def crossover(p):
            return gail_simon_test(p, 0.05)[0].statistic > 0.0

        assert crossover(pair(2, 1, -1, 1))
        assert crossover(pair(-1, 1, 2, 1))
        assert not crossover(pair(2, 1, 1, 1))
        assert not crossover(pair(0, 1, 3, 1))
        assert not crossover(pair(-2, 1, -3, 1))

    def test_opposite_signs_example(self):
        res = gail_simon_test(pair(2, 1, -2, 1), 0.05)[0]
        assert res.statistic == 4.0
        assert res.p_value == pytest.approx(GS_P_AT_STAT4, abs=1e-14)
        assert res.rejected
        assert set(res.components) == {"half_chi2"}

    def test_same_sign_is_null(self):
        res = gail_simon_test(pair(2, 1, 1, 1), 0.05)[0]
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.rejected

    def test_underflowed_statistic_keeps_the_crossover_p_value(self):
        # z1^2 underflows to 0 at 1e-200 but not at 1e-150; both pairs cross
        # over, so both take the t -> 0+ limit 1/2 of (1/2) P(chi2_1 > t)
        results = [gail_simon_test(pair(e, 1, -1, 1), 0.6)[0] for e in (1e-200, 1e-150)]
        assert [res.statistic for res in results] == [0.0, 1e-150 * 1e-150]
        assert [(res.p_value, res.rejected) for res in results] == [(0.5, True)] * 2

    def test_smaller_standardized_estimate_wins(self):
        res = gail_simon_test(pair(1, 0.5, -3, 1), 0.05)[0]
        assert res.statistic == pytest.approx(4.0, abs=1e-12)
        assert res.p_value == pytest.approx(GS_P_AT_STAT4, abs=1e-14)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            gail_simon_test(pair(2, 1, -2, 1), 0.0)
        with pytest.raises(ValueError):
            gail_simon_test(pair(2, 1, -2, 1), 1.0)


# ---------------------------------------------------------------------------
# relative-difference statistic and tails
# ---------------------------------------------------------------------------


class TestRdStatistic:
    def test_closed_form_example(self):
        t = rd_statistic(pair(1.0, 0.2, 0.3, 0.2), 2.0)[0]
        assert t == pytest.approx(0.4 / math.sqrt(0.2), abs=1e-9)

    def test_zero_pair(self):
        assert rd_statistic(pair(0.0, 1.0, 0.0, 2.0), 3.0)[0] == 0.0

    def test_depends_only_on_absolute_estimates(self):
        t_pos = rd_statistic(pair(1.0, 0.2, 0.3, 0.2), 2.0)[0]
        t_mix = rd_statistic(pair(0.3, 0.2, -1.0, 0.2), 2.0)[0]
        assert t_pos == t_mix

    def test_tie_takes_smaller_assignment(self):
        # |estimates| tie at 1; the two assignments give -1/sqrt(1.09) and
        # -1/sqrt(0.61); the smaller (more negative) one must be returned.
        t = rd_statistic(pair(1.0, 0.3, -1.0, 0.5), 2.0)[0]
        assert t == pytest.approx(-1.0 / math.sqrt(0.61), abs=1e-12)

    def test_kappa_one_is_fold_distance(self):
        t = rd_statistic(pair(1.0, 0.5, -0.2, 0.5), 1.0)[0]
        assert t == pytest.approx(0.8 / math.sqrt(0.5), abs=1e-12)
        assert t >= 0.0

    def test_kappa_domain(self):
        with pytest.raises(ValueError):
            rd_statistic(pair(1, 1, 0, 1), 0.99)
        with pytest.raises(ValueError):
            rd_statistic(pair(1, 1, 0, 1), math.nan)

    def test_strictly_decreasing_in_kappa_when_min_positive(self):
        p = pair(1.3, 0.4, 0.5, 0.3)
        kappas = np.linspace(1.0, 8.0, 50)
        values = [rd_statistic(p, k)[0] for k in kappas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_kappa_when_min_zero(self):
        p = pair(1.3, 0.4, 0.0, 0.3)
        values = [rd_statistic(p, k)[0] for k in np.linspace(1.0, 8.0, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)


def rd_null_nu(kappa, se1, se2):
    """(nu1, nu2) of the rd zero-point limit pairs, from the core's rescaled rows."""
    rows = _rows(0.0, se1, 0.0, se2)
    nu1, nu2 = _rd_nu(rows.se1, rows.se2, *_kappa_split(kappa))
    return (float(nu1), float(nu2))


class TestRdNullNu:
    def test_examples(self):
        assert rd_null_nu(1.0, 0.7, 0.7) == (0.0, 0.0)
        nu1, nu2 = rd_null_nu(2.0, 1.0, 1.0)
        assert nu1 == pytest.approx(-0.6, abs=1e-15)
        assert nu2 == pytest.approx(-0.6, abs=1e-15)
        nu1, nu2 = rd_null_nu(2.0, 1.0, 2.0)
        assert nu1 == pytest.approx(-15.0 / 17.0, abs=1e-15)
        assert nu2 == 0.0

    def test_scale_free(self):
        for c in (1e-6, 3.7, 1e6):
            assert rd_null_nu(2.5, 0.3 * c, 1.1 * c) == pytest.approx(
                rd_null_nu(2.5, 0.3, 1.1), abs=1e-12
            )

    def test_bounds_and_domain(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = rng.uniform(1.0, 50.0)
            se1, se2 = rng.uniform(0.01, 10.0, size=2)
            nu1, nu2 = rd_null_nu(k, se1, se2)
            assert -1.0 <= nu1 <= 1.0 and -1.0 <= nu2 <= 1.0
            # at most one of the two can be positive once kappa > 1
            assert not (nu1 > 0.0 and nu2 > 0.0)
        # the tail that reads these correlations checks their arguments
        with pytest.raises(ValueError):
            rd_null_tail(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            rd_null_tail(1.0, 0.5, 1.0, 1.0)

    def test_nu2_negates_at_equal_se(self):
        # at se1 = se2 both correlations coincide: (1-k^2)/(1+k^2)
        for k in (1.5, 2.0, 4.0):
            nu1, nu2 = rd_null_nu(k, 0.8, 0.8)
            expected = (1 - k * k) / (1 + k * k)
            assert nu1 == pytest.approx(expected, abs=1e-15)
            assert nu2 == pytest.approx(expected, abs=1e-15)


class TestRdNullTail:
    def test_oracle_pin(self):
        assert rd_null_tail(1.0, 2.0, 1.0, 1.0) == pytest.approx(
            RD_NULL_TAIL_T1, abs=1e-14
        )

    def test_near_zero_limit_at_kappa_one(self):
        # with kappa = 1 and equal ses both correlations vanish and the
        # statistic is nonnegative, so nearly all mass sits above 0+
        assert rd_null_tail(1e-10, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_far_tail_is_negligible(self):
        for k, se1, se2 in [(1.5, 1, 1), (2, 0.5, 2), (4, 2, 0.5)]:
            assert rd_null_tail(10.0, k, se1, se2) < 1e-8

    def test_strictly_decreasing_in_t(self):
        grid = np.linspace(0.05, 4.0, 60)
        vals = [rd_null_tail(t, 2.0, 1.0, 0.5) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rd_null_tail(0.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rd_null_tail(-1.0, 2.0, 1.0, 1.0)


class TestRdTest:
    def test_example_components(self):
        res = rd_test(pair(1.0, 0.2, 0.0, 0.2), 2.0, 0.05)[0]
        assert res.statistic == pytest.approx(RD_EXAMPLE_STAT, abs=1e-12)
        assert res.components["normal_boundary"] == pytest.approx(
            RD_EXAMPLE_BOUNDARY, abs=1e-14
        )
        assert res.components["zero_point"] == pytest.approx(
            RD_EXAMPLE_ZERO_TAIL, abs=1e-12
        )
        assert res.p_value == max(res.components.values())
        assert res.rejected

    def test_null_region_estimate(self):
        res = rd_test(pair(0.5, 0.2, 0.5, 0.2), 2.0, 0.05)[0]
        assert res.statistic < 0.0
        assert res.p_value == 1.0
        assert res.components == {"normal_boundary": 1.0, "zero_point": 1.0}
        assert not res.rejected

    def test_degenerate_zero_pair(self):
        res = rd_test(pair(0.0, 0.2, 0.0, 0.2), 2.0, 0.05)[0]
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_kappa_must_exceed_one(self):
        with pytest.raises(ValueError):
            rd_test(pair(1, 1, 0, 1), 1.0, 0.05)

    def test_batch_decides_without_the_zero_point_tail(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("zero-point tail evaluated")

        monkeypatch.setattr("qualint.inference._rd_zero_tail", refuse)
        batch = PairBatch.from_rows(
            [(1.0, 0.2, 0.0, 0.2), (0.5, 0.2, 0.5, 0.2), (1.3, 0.4, -0.2, 0.3)]
        )
        res = rd_test(batch, 2.0, 0.05)
        assert res.statistic.tolist() == rd_statistic(batch, 2.0).tolist()
        assert res.p_value[0] == pytest.approx(RD_EXAMPLE_BOUNDARY, abs=1e-14)
        assert res.p_value[1] == 1.0
        assert res.rejected.tolist() == [True, False, False]
        # kappa_max's probe reads the same boundary rule
        bounds = kappa_max(batch, 0.10)
        assert bounds.binding_root.tolist() == ["normal_boundary", "none", "normal_boundary"]
        with pytest.raises(AssertionError, match="zero-point tail evaluated"):
            res.components

    def test_p_value_nondecreasing_in_kappa(self):
        rng = np.random.default_rng(21)
        for p in random_pairs(rng, 25):
            pvals = [rd_test(p, k, 0.05)[0].p_value for k in (1.2, 1.5, 2, 3, 5, 8)]
            assert all(a <= b + 1e-12 for a, b in zip(pvals, pvals[1:]))


class TestRdNullQuantile:
    """The 1 - alpha null quantile of the rd statistic is the normal point
    z = Phi^{-1}(1 - alpha/2): the test rejects just past z and not just
    short of it, since the zero-point tail never binds
    (TestZeroPointTailNeverBinds)."""

    @staticmethod
    def rejects(t, kappa, ratio, alpha):
        return rd_test(pair_with_statistic(t, kappa, ratio), kappa, alpha)[0].rejected

    def test_normal_point_dominates(self):
        z = std_normal_quantile(0.975)
        assert z == pytest.approx(Z975, abs=1e-9)
        assert self.rejects(z + 1e-9, 2.0, 1.0, 0.05)
        assert not self.rejects(z - 1e-9, 2.0, 1.0, 0.05)

    def test_normal_point_at_every_alpha(self):
        # alpha/2 rounds to 0 at the smallest alpha, 2^-1074; the reference
        # takes log(alpha/2), which does not
        for alpha in (0.05, 1e-16, 1e-300, 1e-323, 5e-324):
            reference = -ndtri_exp(math.log(alpha) - math.log(2.0))
            assert _two_sided_point(alpha) == pytest.approx(reference, rel=1e-14)

    def test_zero_point_root_self_consistent(self):
        # the oracle's zero-point root is where the tail falls to alpha, and
        # it lies below the normal point, which is therefore the quantile
        assert rd_null_tail(RD_ZERO_QUANTILE_K2, 2.0, 1.0, 1.0) == pytest.approx(
            0.05, abs=1e-8
        )
        assert RD_ZERO_QUANTILE_K2 < Z975
        assert not self.rejects(RD_ZERO_QUANTILE_K2 + 1e-9, 2.0, 1.0, 0.05)

    def test_zero_point_root_degenerate_when_mass_small(self):
        # huge kappa: both correlations approach -1 and the 0+ mass
        # collapses below alpha; the quantile is the normal point
        assert rd_null_tail(1e-12, 1e8, 1.0, 1.0) < 0.05
        z = std_normal_quantile(0.975)
        assert self.rejects(z + 1e-9, 1e8, 1.0, 0.05)
        assert not self.rejects(z - 1e-9, 1e8, 1.0, 0.05)

    def test_never_below_normal_point(self):
        for k in (1.5, 2.0, 4.0):
            for r in (0.5, 1.0, 2.0):
                for a in (0.01, 0.05, 0.2):
                    z = std_normal_quantile(1.0 - a / 2.0)
                    assert rd_null_tail(z + 1e-9, k, r, 1.0) <= a + 1e-9
                    assert self.rejects(z + 1e-9, k, 1.0 / r, a)
                    assert not self.rejects(z - 1e-9, k, 1.0 / r, a)

    def test_domains(self):
        # the power at the null quantile checks kappa and alpha, the null
        # tail the standard errors
        with pytest.raises(ValueError):
            rd_power_approx(pair(1.0, 1.0, 0.0, 1.0), 2.0, 0.5)
        with pytest.raises(ValueError):
            rd_power_approx(pair(1.0, 1.0, 0.0, 1.0), 1.0, 0.05)
        with pytest.raises(ValueError):
            rd_null_tail(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            rd_null_tail(1.0, 2.0, 1.0, math.inf)


# ---------------------------------------------------------------------------
# relative-difference power
# ---------------------------------------------------------------------------


class TestRdPower:
    def test_local_power_oracle_pin(self):
        alt = LocalAlternative(6.0, 0.0, 1.0, 1.0, 0.5)
        assert rd_local_power(alt, 2.0, 0.05) == pytest.approx(
            RD_LOCAL_POWER_PIN, abs=1e-12
        )

    def test_size_at_origin(self):
        alt = LocalAlternative(0.0, 0.0, 1.0, 1.0, 0.5)
        assert rd_local_power(alt, 2.0, 0.05) <= 0.05 + 1e-12

    def test_group_relabel_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c1, c2 = rng.normal(scale=3.0, size=2)
            s1, s2 = rng.uniform(0.5, 2.0, size=2)
            lam = rng.uniform(0.1, 0.9)
            a = rd_local_power(LocalAlternative(c1, c2, s1, s2, lam), 2.0, 0.05)
            b = rd_local_power(
                LocalAlternative(c2, c1, s2, s1, 1.0 - lam), 2.0, 0.05
            )
            assert a == pytest.approx(b, abs=1e-12)

    def test_local_power_matches_monte_carlo(self):
        # independent check of the whole pipeline: draw the limiting normal
        # estimates under the local alternative and run the actual test
        alt = LocalAlternative(6.0, 0.0, 1.0, 1.0, 0.5)
        kappa, alpha, n_draws = 2.0, 0.05, 10_000
        w1, w2 = math.sqrt(1.0 - alt.lam), math.sqrt(alt.lam)
        rng = np.random.default_rng(2024)
        th1 = rng.normal(w1 * alt.c1, w1 * alt.sigma1, size=n_draws)
        th2 = rng.normal(w2 * alt.c2, w2 * alt.sigma2, size=n_draws)
        rate = np.mean(draws_rejected(rd_test, th1, w1 * alt.sigma1, th2, w2 * alt.sigma2,
                                      kappa, alpha))
        analytic = rd_local_power(alt, kappa, alpha)
        mc_se = math.sqrt(analytic * (1 - analytic) / n_draws)
        assert abs(rate - analytic) <= 3 * mc_se

    def test_power_approx_oracle_pin(self):
        p = pair(1.0, 0.1, 0.0, 0.1)
        assert rd_power_approx(p, 2.0, 0.05)[0] == pytest.approx(
            RD_POWER_APPROX_PIN, abs=1e-12
        )

    def test_power_approx_size_at_global_null(self):
        assert rd_power_approx(pair(0.0, 0.3, 0.0, 0.4), 2.0, 0.05)[0] <= 0.05 + 1e-12

    def test_power_approx_scale_invariant(self):
        base = rd_power_approx(pair(1.0, 0.25, -0.2, 0.3), 2.0, 0.05)[0]
        for c in (1e-3, 7.3, 1e4):
            scaled = rd_power_approx(
                pair(1.0 * c, 0.25 * c, -0.2 * c, 0.3 * c), 2.0, 0.05
            )[0]
            assert scaled == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# omnibus test
# ---------------------------------------------------------------------------


class TestOmnibusRegionAndStatistic:
    def test_region_examples(self):
        # the alternative region is where the statistic is positive
        def alternative(p):
            return omnibus_statistic(p, 2.0)[0] > 0.0

        assert alternative(pair(1, 1, -1, 1))
        assert not alternative(pair(1, 1, 0.8, 1))
        assert alternative(pair(1, 1, 0.4, 1))
        # mirrored clauses
        assert alternative(pair(-1, 1, -0.4, 1))
        assert alternative(pair(0.4, 1, 1, 1))

    def test_statistic_outside_region_is_zero(self):
        assert omnibus_statistic(pair(1, 1, 0.8, 1), 2.0)[0] == 0.0

    def test_statistic_examples(self):
        assert omnibus_statistic(pair(2, 1, -2, 1), 2.0)[0] == pytest.approx(
            7.2, abs=1e-12
        )
        got = omnibus_statistic(pair(1, 0.5, 0.4, 0.5), 2.0)[0]
        assert got == pytest.approx(0.032, abs=1e-15)

    def test_sign_flip_of_both_estimates(self):
        a = omnibus_statistic(pair(1, 0.5, 0.4, 0.5), 2.0)[0]
        b = omnibus_statistic(pair(-1, 0.5, -0.4, 0.5), 2.0)[0]
        assert a == b


class TestOmnibusNullTail:
    def test_collapses_to_chi2_at_kappa_one(self):
        from qualint.distributions import chi2_1_tail

        for t in (0.3, 1.0, 3.84, 7.2):
            for se1, se2 in [(1, 1), (0.4, 1.7)]:
                assert omnibus_null_tail(t, 1.0, se1, se2) == pytest.approx(
                    chi2_1_tail(t), abs=1e-14
                )

    def test_oracle_pin(self):
        assert omnibus_null_tail(1.0, 2.0, 1.0, 1.0) == pytest.approx(
            OMNI_NULL_TAIL_T1, abs=1e-14
        )

    def test_large_kappa_factorizes(self):
        t = 2.3
        expected = 2.0 * ndtr(-math.sqrt(t)) ** 2
        assert omnibus_null_tail(t, 1e8, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-6
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            omnibus_null_tail(0.0, 2.0, 1.0, 1.0)


class TestOmnibusTest:
    def test_example_components(self):
        res = omnibus_test(pair(2, 1, -2, 1), 2.0, 0.05)[0]
        assert res.statistic == pytest.approx(7.2, abs=1e-12)
        assert res.components["normal_boundary"] == pytest.approx(
            OMNI_EXAMPLE_BOUNDARY, abs=1e-14
        )
        assert res.components["zero_point"] == pytest.approx(
            OMNI_EXAMPLE_ZERO_TAIL, abs=1e-14
        )
        assert res.p_value == max(res.components.values())
        assert res.rejected

    def test_null_region_estimate(self):
        res = omnibus_test(pair(1, 1, 0.8, 1), 2.0, 0.05)[0]
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.rejected

    def test_underflowed_statistic_keeps_the_region_p_value(self):
        # the statistic underflows to 0 at 2e-200 but not at 2e-150; both
        # pairs lie in the alternative region, so both p-values are the
        # t -> 0+ limit 2 P(V1 > 0, V2 > 0) = 1/2 + asin(nu) / pi, nu = 0.8
        limit = 0.5 + math.asin(0.8) / math.pi
        results = [omnibus_test(pair(2 * e, 1, -e, 1), 2.0, 0.9)[0] for e in (1e-200, 1e-150)]
        assert [res.statistic == 0.0 for res in results] == [True, False]
        for res in results:
            assert res.p_value == pytest.approx(limit, rel=1e-10)
            assert res.rejected
        assert results[0].p_value == pytest.approx(results[1].p_value, rel=1e-10)

    def test_collapse_to_crossover_test(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            e1 = rng.uniform(0.1, 3.0)
            e2 = -rng.uniform(0.1, 3.0)
            s1, s2 = rng.uniform(0.2, 1.5, size=2)
            p = pair(e1, s1, e2, s2)
            big = omnibus_test(p, 1e6, 0.05)[0].p_value
            gs = gail_simon_test(p, 0.05)[0].p_value
            assert abs(big - gs) < 1e-4


class TestOmnibusPower:
    def test_size_at_origin(self):
        alt = LocalAlternative(0.0, 0.0, 1.0, 1.0, 0.5)
        assert omnibus_local_power(alt, 2.0, 0.05) <= 0.05 + 1e-12

    def test_oracle_pin(self):
        alt = LocalAlternative(6.0, -6.0, 1.0, 1.0, 0.5)
        assert omnibus_local_power(alt, 2.0, 0.05) == pytest.approx(
            OMNI_LOCAL_POWER_PIN, abs=1e-12
        )

    def test_zero_point_quantile_binds_near_kappa_one(self):
        # at equal standard errors the zero-point correlation is 2 kappa / (1 + kappa^2)
        root = _omnibus_threshold(2.2 / 2.21, 0.05)
        assert root == pytest.approx(OMNI_ZERO_QUANTILE_K110, abs=1e-8)
        assert root > Z95
        # when the zero-point root binds, size at the origin is exactly alpha
        alt = LocalAlternative(0.0, 0.0, 1.0, 1.0, 0.5)
        assert omnibus_local_power(alt, 1.1, 0.05) == pytest.approx(0.05, abs=1e-8)

    @pytest.mark.parametrize("nu, alpha, root", OMNI_THRESHOLD_PANEL)
    def test_threshold_matches_the_oracle_in_few_tail_evaluations(self, nu, alpha, root,
                                                                   monkeypatch):
        calls = []

        def counted(s, nu):
            calls.append(s)
            return _omnibus_zero_tail(s, nu)

        monkeypatch.setattr("qualint.inference._omnibus_zero_tail", counted)
        got = _omnibus_threshold(nu, alpha)
        assert got == pytest.approx(root, rel=1e-11)
        assert -std_normal_quantile(alpha) <= got <= _two_sided_point(alpha)
        assert len(calls) <= 10

    def test_threshold_at_an_exact_root(self):
        # at nu = 1 the zero-point tail 2 Phi(-s) is exactly alpha at the
        # alpha/2 normal point, the first bracket end, which is the root
        assert _omnibus_threshold(1.0, 0.45) == -std_normal_quantile(0.45 / 2.0)

    def test_monotone_in_c1_for_fixed_nonpositive_c2(self):
        powers = [
            omnibus_local_power(LocalAlternative(c1, -2.0, 1.0, 1.0, 0.5), 2.0, 0.05)
            for c1 in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))

    def test_local_power_matches_monte_carlo(self):
        alt = LocalAlternative(6.0, -6.0, 1.0, 1.0, 0.5)
        kappa, alpha, n_draws = 2.0, 0.05, 10_000
        w1, w2 = math.sqrt(1.0 - alt.lam), math.sqrt(alt.lam)
        rng = np.random.default_rng(515)
        th1 = rng.normal(w1 * alt.c1, w1 * alt.sigma1, size=n_draws)
        th2 = rng.normal(w2 * alt.c2, w2 * alt.sigma2, size=n_draws)
        rate = np.mean(draws_rejected(omnibus_test, th1, w1 * alt.sigma1, th2, w2 * alt.sigma2,
                                      kappa, alpha))
        analytic = omnibus_local_power(alt, kappa, alpha)
        # analytic power is ~1 here; allow an absolute floor on the band
        band = max(3 * math.sqrt(analytic * (1 - analytic) / n_draws), 3e-4)
        assert abs(rate - analytic) <= band


# ---------------------------------------------------------------------------
# kappa_max
# ---------------------------------------------------------------------------

# printed two-decimal inputs and summaries from the breast-cancer example
TABLE_ROWS = [
    ("GRB2", -0.06, 0.31, -1.66, 0.68, 2.04),
    ("APC", 1.34, 0.32, -0.09, 0.33, 1.91),
    ("BAX", -1.05, 0.24, 0.04, 0.36, 1.53),
    ("PIK3CA", 1.13, 0.28, 0.14, 0.32, 1.51),
    ("SOS2", 1.13, 0.36, -0.10, 0.37, 1.33),
    ("MAP2K2", -0.87, 0.27, 0.03, 0.35, 1.22),
    ("GADD45G", -0.52, 0.13, -0.07, 0.19, 1.21),
    ("HES5", 0.02, 0.20, 0.51, 0.18, 1.19),
    ("WNT2", -0.36, 0.09, 0.00, 0.17, 1.14),
    ("DLL4", 0.09, 0.20, 0.68, 0.27, 1.10),
    ("FRAT2", -1.22, 0.31, -0.45, 0.29, 1.08),
    ("SOS1", 1.19, 0.30, -0.34, 0.42, 1.01),
]


def boundary_root_quadratic(e1, s1, e2, s2, alpha):
    """Closed-form oracle for the boundary inversion root.

    The statistic equals z := Phi^|-1|(1 - alpha/2) exactly where
    (a_max - k a_min)^2 = z^2 (v_max + k^2 v_min) with a positive
    numerator, which is a quadratic in k.  Independent of the package's
    iterative search.
    """
    z = Z95  # alpha = 0.10 two-sided
    a1, a2 = abs(e1), abs(e2)
    if a1 >= a2:
        amax, vmax, amin, vmin = a1, s1 * s1, a2, s2 * s2
    else:
        amax, vmax, amin, vmin = a2, s2 * s2, a1, s1 * s1
    qa = amin * amin - z * z * vmin
    qb = -2.0 * amax * amin
    qc = amax * amax - z * z * vmax
    candidates = [r.real for r in np.roots([qa, qb, qc]) if abs(r.imag) < 1e-12]
    valid = [
        k
        for k in candidates
        if k > 1.0
        and (amax - k * amin) > 0.0
        and abs((amax - k * amin) / math.sqrt(vmax + k * k * vmin) - z) < 1e-6
    ]
    assert len(valid) == 1, f"ambiguous quadratic root set {candidates}"
    return valid[0]


class TestKappaMax:
    def test_table_rows_within_print_tolerance(self):
        for name, e1, s1, e2, s2, printed in TABLE_ROWS:
            res = kappa_max(pair(e1, s1, e2, s2), 0.10)[0]
            assert abs(res.kappa_max - printed) <= 0.1, name

    def test_matches_closed_form_boundary_root(self):
        for name, e1, s1, e2, s2, _ in TABLE_ROWS:
            res = kappa_max(pair(e1, s1, e2, s2), 0.10)[0]
            oracle = boundary_root_quadratic(e1, s1, e2, s2, 0.10)
            assert res.kappa_max == pytest.approx(oracle, abs=5e-6), name
            assert res.binding_root == "normal_boundary"

    def test_weak_pair_convention(self):
        res = kappa_max(pair(0.1, 1.0, 0.1, 1.0), 0.10)[0]
        assert res.kappa_max == 1.0
        assert res.binding_root == "none"

    def test_inversion_consistency(self):
        rows = [row[:5] for row in TABLE_ROWS] + [
            (f"{values} * 2**{exponent}", *(v * 2.0**exponent for v in values))
            for values in FLOAT_RANGE_PAIRS
            for exponent in (-900, 900)
        ]
        for name, e1, s1, e2, s2 in rows:
            res = kappa_max(pair(e1, s1, e2, s2), 0.10)[0]
            if res.kappa_max <= 1.0 + 1e-6:
                continue
            below = rd_test(pair(e1, s1, e2, s2), res.kappa_max - 1e-6, 0.10)[0]
            above = rd_test(pair(e1, s1, e2, s2), res.kappa_max + 1e-6, 0.10)[0]
            assert below.rejected, name
            assert not above.rejected, name

    def test_tighter_alpha_shrinks_kappa_max(self):
        p = pair(-0.06, 0.31, -1.66, 0.68)
        loose = kappa_max(p, 0.10)[0].kappa_max
        tight = kappa_max(p, 0.05)[0].kappa_max
        assert tight <= loose

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            kappa_max(pair(1, 1, -1, 1), 0.5)


def log_uniform(lo_exp, hi_exp, **kwargs):
    return st.floats(lo_exp, hi_exp, **kwargs).map(lambda x: 10.0**x)


def zero_point_tail_at_kappa_max(p, res):
    """The unclamped zero-point tail of one-row p at kappa_max and at its
    statistic there, the normal point z = Phi^-1(1 - alpha/2).  The statistic
    is taken as z rather than evaluated, since evaluating it can cancel all
    its digits: near kappa = 10, 1e18 - kappa 1e17 is a few ulps of 1e18."""
    z = std_normal_quantile(1.0 - res.alpha / 2.0)
    return rd_null_tail(z, res.kappa_max, p.se1[0], p.se2[0])


class TestZeroPointTailNeverBinds:
    """For kappa >= 1 and t > 0 the zero-point tail is at most the boundary
    tail min(1, 2 Phi(-t)), so pi_2 >= pi_1, kappa_max = pi_1 and the rd
    null quantile is the normal point."""

    @given(t=st.floats(0.0, 40.0, exclude_min=True), kappa=log_uniform(0.0, 12.0),
           ratio=log_uniform(-150.0, 150.0))
    def test_zero_point_tail_below_boundary_tail(self, t, kappa, ratio):
        boundary = min(1.0, 2.0 * float(ndtr(-t)))
        assert rd_null_tail(t, kappa, 1.0, ratio) <= boundary + 1e-14
        if kappa > 1.0:
            # the test's p-value is its boundary tail, which bounds the
            # recorded zero-point tail
            res = rd_test(pair_with_statistic(t, kappa, ratio), kappa, 0.10)[0]
            assert res.p_value == res.components["normal_boundary"]
            assert res.components["zero_point"] <= res.components["normal_boundary"]
            assert res.p_value == max(res.components.values())

    @given(kappa=log_uniform(0.0, 12.0), ratio=log_uniform(-150.0, 150.0))
    def test_kappa_max_is_the_boundary_root(self, kappa, ratio):
        # a pair whose statistic is exactly z at kappa, scaled to keep the
        # oracle's squares in range: |est1| - kappa |est2| = z hypot(se1, kappa se2)
        d = math.hypot(1.0, kappa * ratio)
        e1, s1, e2, s2 = 1.0 + Z95_FLOAT, 1.0 / d, 1.0 / kappa, ratio / d
        res = kappa_max(pair(e1, s1, e2, s2), 0.10)[0]
        if res.binding_root == "none":  # the root sits at the probe kappa = 1 + 1e-9
            assert kappa <= 1.0 + 1e-8
            return
        assert res.binding_root == "normal_boundary"
        # the zero-point tail has not climbed to alpha there: pi_2 >= kappa_max
        assert zero_point_tail_at_kappa_max(pair(e1, s1, e2, s2), res) <= 0.10 * (1.0 + 1e-9)
        assert res.kappa_max == pytest.approx(
            boundary_root_quadratic(e1, s1, e2, s2, 0.10), rel=1e-9)
        assert res.kappa_max == pytest.approx(kappa, rel=1e-9)


@st.composite
def float_range_pairs(draw, exponent=150.0):
    """Estimates (signed, or 0) and standard errors log-uniform in
    10^-exponent..10^exponent (1e-150..1e150 by default): each drawn on its
    own, or a common scale times factors within 1e3 of it, so that ordinary
    ratios are drawn at every scale."""
    if draw(st.booleans()):
        values = [draw(log_uniform(-exponent, exponent)) for _ in range(4)]
    else:
        scale = draw(log_uniform(-exponent, exponent))
        bounds = 10.0**-exponent, 10.0**exponent
        values = [min(bounds[1], max(bounds[0], scale * draw(log_uniform(-3.0, 3.0))))
                  for _ in range(4)]
    signs = [draw(st.sampled_from((-1.0, 0.0, 1.0))) for _ in range(2)]
    return pair(signs[0] * values[0], values[1], signs[1] * values[2], values[3])


# kappa up to 1e12, half the draws below 10, where every orthant of the rd
# power can count
POWER_KAPPAS = st.one_of(log_uniform(0.0, 1.0), log_uniform(0.0, 12.0)).filter(lambda k: k > 1.0)
# effects in sigma units where the local powers lie strictly between 0 and 1
ORDINARY_EFFECTS = np.random.default_rng(11).normal(scale=3.0, size=(2, 40))


@st.composite
def local_alternatives(draw):
    """A grid of alternatives: effects and sigmas drawn as float_range_pairs
    at 1e-100..1e100, lam in [0.01, 0.99], and beside the drawn effects 40
    ordinary ones, ORDINARY_EFFECTS times the drawn sigmas."""
    p = draw(float_range_pairs(100.0))
    s1, s2 = p.se1[0], p.se2[0]
    c1 = np.append(ORDINARY_EFFECTS[0] * s1, p.est1[0])
    c2 = np.append(ORDINARY_EFFECTS[1] * s2, p.est2[0])
    return LocalAlternative(c1, c2, s1, s2, draw(st.floats(0.01, 0.99)))


def group_scaled(p, f1, f2):
    """p with group 1's estimate and SE times f1 and group 2's times f2."""
    return pair(p.est1[0] * f1, p.se1[0] * f1, p.est2[0] * f2, p.se2[0] * f2)


def three_tests(p, kappa, alpha):
    return (rd_test(p, kappa, alpha)[0], omnibus_test(p, kappa, alpha)[0],
            gail_simon_test(p, alpha)[0])


# every warning fails the test, except the deprecation that Hypothesis's own
# failure report raises, which would otherwise hide the falsifying example
WARNINGS_AS_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SWEEP_KAPPAS = log_uniform(0.0, 12.0).filter(lambda k: k > 1.0)
SWEEP_ALPHAS = st.floats(1e-6, 0.5, exclude_max=True)

SIGNED_ESTIMATES = st.tuples(st.sampled_from((-1.0, 0.0, 1.0)), log_uniform(-3.0, 3.0)).map(
    lambda drawn: drawn[0] * drawn[1])

# (est1, se1, est2, se2, alpha) rows whose larger |estimate| lies within an
# ulp of z se: rd_test rejects at kappa = 1 + 1e-9, where the closed-form
# root is NaN or 0, and it still rejects at kappa = 1e6 or 1e100
PROBE_EDGE_ROWS = [
    (0.6746471018004875, 1.0, 0.0, 1e-200, 0.4999),
    (0.6746471018004875, 1.0, 1e-300, 1e-200, 0.4999),
    (1.062547750696676e46, 2.9286252003518044e45, 1.062547750696676e16,
     4.3126392994307884e-79, 0.0002854646921200725),
]


def probe_edge_examples(xfail_reason=None):
    """The PROBE_EDGE_ROWS as @examples of a sweep test; with a reason, each
    is expected to fail its assertions (a strict xfail)."""
    def decorate(test):
        for *row, alpha in PROBE_EDGE_ROWS:
            case = example(p=pair(*row), alpha=alpha)
            if xfail_reason is not None:
                case = case.xfail(raises=AssertionError, reason=xfail_reason)
            test = case(test)
        return test
    return decorate


@WARNINGS_AS_ERRORS
class TestInvariantSweep:
    """The result invariants over the float range: every p-value is the
    largest of its components and decides, and kappa_max is the first
    root, where the zero-point tail is still below alpha; the tests are
    invariant under scaling and under exchange and sign symmetries, the rd
    p-value grows with kappa, and kappa_max is where rd_test stops
    rejecting."""

    @given(p=float_range_pairs(), kappa=SWEEP_KAPPAS, alpha=SWEEP_ALPHAS)
    def test_p_value_is_the_largest_component_and_decides(self, p, kappa, alpha):
        for res in (rd_test(p, kappa, alpha)[0], omnibus_test(p, kappa, alpha)[0],
                    gail_simon_test(p, alpha)[0]):
            assert res.p_value == max(res.components.values())
            assert res.rejected == (res.p_value < alpha)

    @probe_edge_examples()
    @given(p=float_range_pairs(), alpha=SWEEP_ALPHAS)
    def test_kappa_max_is_its_first_root(self, p, alpha):
        res = kappa_max(p, alpha)[0]
        assert res.kappa_max >= 1.0  # and so not NaN
        assert (res.binding_root == "normal_boundary") == (res.kappa_max > 1.0)
        if res.binding_root == "none":
            assert res.kappa_max == 1.0
        elif math.isfinite(res.kappa_max):
            assert zero_point_tail_at_kappa_max(p, res) <= alpha * (1.0 + 1e-9)

    @given(p=float_range_pairs(), kappa=SWEEP_KAPPAS, alpha=SWEEP_ALPHAS,
           exponent=st.integers(-465, 465), factor=log_uniform(-140.0, 140.0))
    def test_tests_are_invariant_under_a_common_scale(self, p, kappa, alpha, exponent, factor):
        # a power of two scales every estimate and SE exactly; any other
        # factor rounds them, which may move p by a few ulp
        base = three_tests(p, kappa, alpha)
        exact = group_scaled(p, 2.0**exponent, 2.0**exponent)
        assert three_tests(exact, kappa, alpha) == base
        assert kappa_max(exact, alpha)[0] == kappa_max(p, alpha)[0]
        near = three_tests(group_scaled(p, factor, factor), kappa, alpha)
        for got, want in zip(near, base):
            assert got.p_value == pytest.approx(want.p_value, rel=1e-12, abs=0.0)

    @example(e1=-0.1, s1=1.0, e2=1.0, s2=1.0, k1=-993, k2=996)
    @given(e1=SIGNED_ESTIMATES, e2=SIGNED_ESTIMATES, s1=st.floats(0.5, 2.0),
           s2=st.floats(0.5, 2.0), k1=st.integers(-995, 996), k2=st.integers(-995, 996))
    def test_gail_simon_is_invariant_under_scaling_each_group(self, e1, s1, e2, s2, k1, k2):
        # each group by its own power of two, 1e-300..1e300: z1 and z2 do
        # not move, however far apart the two groups' scales lie (an SE of
        # 0.5 * 2**-995 is the smallest drawn, above the 1e-300 floor)
        base = pair(e1, s1, e2, s2)
        scaled = group_scaled(base, 2.0**k1, 2.0**k2)
        assert gail_simon_test(scaled, 0.05)[0] == gail_simon_test(base, 0.05)[0]

    @given(p=float_range_pairs(), kappa=SWEEP_KAPPAS, alpha=SWEEP_ALPHAS)
    def test_exchange_and_sign_symmetry(self, p, kappa, alpha):
        e1, s1 = p.est1[0], p.se1[0]
        e2, s2 = p.est2[0], p.se2[0]
        base = three_tests(p, kappa, alpha)
        assert three_tests(pair(e2, s2, e1, s1), kappa, alpha) == base
        assert three_tests(pair(-e1, s1, -e2, s2), kappa, alpha) == base
        # the magnitude-ratio test ignores every sign pattern
        assert rd_test(pair(-e1, s1, e2, s2), kappa, alpha)[0] == base[0]
        bound = kappa_max(p, alpha)[0]
        for other in (pair(e2, s2, e1, s1), pair(-e1, s1, e2, s2), pair(e1, s1, -e2, s2)):
            assert kappa_max(other, alpha)[0] == bound

    @given(p=float_range_pairs(), kappas=st.tuples(SWEEP_KAPPAS, SWEEP_KAPPAS),
           alpha=SWEEP_ALPHAS)
    def test_rd_p_value_nondecreasing_in_kappa(self, p, kappas, alpha):
        low, high = sorted(kappas)
        assert rd_test(p, low, alpha)[0].p_value <= rd_test(p, high, alpha)[0].p_value

    # on the edge rows kappa_max = 1 + 1e-9 is a lower bound only: rd_test
    # still rejects past it, and placing them needs a search of the test
    @probe_edge_examples(xfail_reason="kappa_max is the probe kappa, a lower bound")
    @given(p=float_range_pairs(), alpha=SWEEP_ALPHAS)
    def test_rd_test_rejects_up_to_kappa_max(self, p, alpha):
        bound = kappa_max(p, alpha)[0].kappa_max
        below, above = bound * (1.0 - 1e-6), bound * (1.0 + 1e-6)
        if below > 1.0:
            assert rd_test(p, below, alpha)[0].rejected
        if math.isfinite(above):
            assert not rd_test(p, above, alpha)[0].rejected


@WARNINGS_AS_ERRORS
class TestLocalPowerInvariants:
    """The local powers over the float range: each is a probability, flipping
    the sign of both effects keeps its bits (the orthants swap in pairs, and
    the rd power sums each pair first), and exchanging the groups with lam
    -> 1 - lam moves it only by the rounding of 1 - (1 - lam)."""

    @given(alt=local_alternatives(), kappa=POWER_KAPPAS, alpha=SWEEP_ALPHAS)
    def test_local_power_is_a_probability_with_sign_and_exchange_symmetry(
        self, alt, kappa, alpha
    ):
        c1, c2, s1, s2, lam = alt.c1, alt.c2, alt.sigma1, alt.sigma2, alt.lam
        for power in (rd_local_power, omnibus_local_power):
            value = power(alt, kappa, alpha)
            assert ((0.0 <= value) & (value <= 1.0)).all()
            flipped = power(LocalAlternative(-c1, -c2, s1, s2, lam), kappa, alpha)
            assert flipped.tolist() == value.tolist()
            exchanged = power(LocalAlternative(c2, c1, s2, s1, 1.0 - lam), kappa, alpha)
            np.testing.assert_allclose(exchanged, value, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# extreme scales of the standard errors and of kappa
# ---------------------------------------------------------------------------

FLOAT_RANGE_PAIRS = [
    (1.3, 0.4, -0.2, 0.3),
    (0.9, 0.05, 0.02, 0.6),
    (-2.0, 0.7, -1.9, 0.5),
    (0.0, 0.2, 1.1, 0.3),
    (-0.06, 0.31, -1.66, 0.68),
]
OPPOSITE_SIGN_PAIRS = [
    (1.2, 0.3, -0.7, 0.5),
    (-0.3, 0.2, 2.0, 0.9),
    (0.05, 0.1, -0.08, 0.04),
    (2.5, 1.0, -2.5, 1.0),
]


@WARNINGS_AS_ERRORS
class TestFloatRange:
    def test_power_of_two_rescaling_is_exact(self):
        # se**2 underflowed to zero here and the tests divided by it
        f = 2.0**-830
        for e1, s1, e2, s2 in FLOAT_RANGE_PAIRS:
            base = pair(e1, s1, e2, s2)
            tiny = pair(e1 * f, s1 * f, e2 * f, s2 * f)
            for kappa in (1.5, 4.0):
                for test in (rd_test, omnibus_test):
                    small, unit = test(tiny, kappa, 0.05)[0], test(base, kappa, 0.05)[0]
                    assert small == unit and small.components == unit.components
            small, unit = gail_simon_test(tiny, 0.05)[0], gail_simon_test(base, 0.05)[0]
            assert small == unit and small.components == unit.components
            small, unit = kappa_max(tiny, 0.10)[0], kappa_max(base, 0.10)[0]
            assert small == unit

    def test_tiny_standard_errors_match_unit_scale(self):
        c = 1e-250
        for e1, s1, e2, s2 in FLOAT_RANGE_PAIRS:
            base = pair(e1, s1, e2, s2)
            tiny = pair(e1 * c, s1 * c, e2 * c, s2 * c)
            for test in (rd_test, omnibus_test):
                assert test(tiny, 2.0, 0.05)[0].p_value == pytest.approx(
                    test(base, 2.0, 0.05)[0].p_value, abs=1e-12
                )
            assert kappa_max(tiny, 0.10)[0].kappa_max == pytest.approx(
                kappa_max(base, 0.10)[0].kappa_max, abs=1e-6
            )

    def test_local_power_is_exact_under_power_of_two_sigma_scaling(self):
        # sqrt(lam) sigma below 1e-300 used to fail the rd null quantile's
        # input check, while the omnibus power had no such check; at 2**-1030
        # sigma is subnormal, its rescale factor overflowed, and only the
        # bits sigma loses on the way there may move the power
        c1 = np.linspace(-6.0, 6.0, 7)
        c2 = -0.5 * c1
        for power in (rd_local_power, omnibus_local_power):
            base = power(LocalAlternative(c1, c2, 0.7, 1.3, 0.4), 2.0, 0.05)
            for exponent in (-1030, -1000, -500, 500, 1000):
                f = 2.0**exponent
                scaled = power(LocalAlternative(c1 * f, c2 * f, 0.7 * f, 1.3 * f, 0.4), 2.0, 0.05)
                if exponent < -1000:
                    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-12)
                else:
                    assert scaled.tolist() == base.tolist()

    def test_local_power_past_the_float_range_is_its_limit(self):
        # an effect about 1e310 times its sigma rescales to +-inf, or only a
        # contrast passes the float range; the orthant thresholds were then
        # infinite and bvn_upper_tail refused them
        for c1, c2, sigma, kappa, limits in (
            (1e300, -6.0, 1e-10, 2.0, (1.0, 1.0)),
            (-1e300, -6.0, 1e-10, 2.0, (1.0, 1.0)),
            # equal magnitudes lie inside the rd null; opposite signs are a
            # crossover, and equal signs at ratio 1 < kappa are no alternative
            (5e307, -5e307, 0.3, 1.5, (0.0, 1.0)),
            (5e307, 5e307, 0.3, 1.5, (0.0, 0.0)),
        ):
            alt = LocalAlternative(np.array([c1]), np.array([c2]), sigma, sigma, 0.5)
            for power, limit in zip((rd_local_power, omnibus_local_power), limits):
                assert power(alt, kappa, 0.05).tolist() == [limit]

    def test_omnibus_collapses_to_gail_simon_at_huge_kappa(self):
        for e1, s1, e2, s2 in OPPOSITE_SIGN_PAIRS:
            p = pair(e1, s1, e2, s2)
            gs = gail_simon_test(p, 0.05)[0].p_value
            assert abs(omnibus_test(p, 1e200, 0.05)[0].p_value - gs) <= 1e-12
            # (t1 - kappa t2) ** 2 overflowed here
            assert abs(omnibus_test(p, 1e160, 0.05)[0].p_value - gs) <= 1e-12

    def test_lopsided_pair_evaluates_only_its_own_contrast(self):
        # the discarded assignment's contrast overflowed in a divide here
        p = pair(1e300, 1e-10, 1.0, 1.0)
        assert rd_statistic(p, 1e9)[0] == pytest.approx(1e291, rel=1e-12)
        assert rd_test(p, 1e9, 0.05)[0].rejected
        res = kappa_max(p, 0.10)[0]
        assert res.kappa_max == pytest.approx(1e300 / (1.0 + Z95), rel=1e-12)

    def test_kappa_max_past_the_float_range_is_inf(self):
        # the root is about 6e598; se2 underflows when rescaled to se1's scale
        res = kappa_max(pair(1e300, 1e299, 0.0, 1e-299), 0.10)[0]
        assert res.kappa_max == math.inf and res.binding_root == "normal_boundary"

    def test_huge_kappa_relative_difference(self):
        for e1, s1, e2, s2 in FLOAT_RANGE_PAIRS:
            res = rd_test(pair(e1, s1, e2, s2), 1e200, 0.05)[0]
            assert 0.0 <= res.p_value <= 1.0
            assert res.statistic <= 0.0 or min(abs(e1), abs(e2)) == 0.0

    def test_estimate_past_the_float_range_of_its_standard_error(self):
        # est1 / se1 is 1e599: the rescaled estimate overflowed and the
        # zero-point tails refused the infinite statistic
        p = pair(1e300, 1e-299, 1.0, 1e-299)
        for test in (rd_test, omnibus_test):
            res = test(p, 1.5, 0.05)[0]
            assert res.statistic == math.inf and res.p_value == 0.0
            assert res.components == {"normal_boundary": 0.0, "zero_point": 0.0}
        assert gail_simon_test(p, 0.05)[0].statistic == 0.0  # same signs
        res = kappa_max(p, 0.10)[0]
        assert res.kappa_max == pytest.approx(1e300, rel=1e-9)

    @WARNINGS_AS_ERRORS
    def test_both_estimates_past_the_float_range_of_their_standard_errors(self):
        # both rescaled estimates were +inf: inf - inf made the rd statistic
        # NaN (p = 1), emptied the omnibus region (p = 1), and kappa_max read
        # 1 with no binding root, where the ratio of the estimates is 10
        for e2 in (1e299, -1e299):
            p = pair(1e300, 1e-299, e2, 1e-299)
            for test in (rd_test, omnibus_test):
                res = test(p, 2.0, 0.05)[0]
                assert res.statistic == math.inf and res.p_value == 0.0 and res.rejected
            res = kappa_max(p, 0.10)[0]
            assert res.kappa_max == pytest.approx(10.0, rel=1e-9)
            assert res.binding_root == "normal_boundary"
        assert gail_simon_test(pair(1e300, 1e-299, -1e299, 1e-299), 0.05)[0].p_value == 0.0

    def test_estimates_shrunk_past_2_to_the_1020_keep_their_bits(self):
        # rows are shrunk only where an estimate would pass 2**1020 once
        # rescaled, and a shrunk row's statistic is scaled back exactly
        for e1, s1, e2, s2 in FLOAT_RANGE_PAIRS:
            assert _rows(e1, s1, e2, s2).shrink == 0
        g = 2.0**1018
        for e1, s1, e2, s2 in [(5.0, 0.3, 1.0, 0.6), (-1.0, 0.7, 7.0, 0.2)]:
            assert _rows(e1 * g, s1, e2 * g, s2).shrink == 1  # |estimate| 2**1020 to 2**1021
            for kappa in (1.5, 4.0):
                t = rd_statistic(pair(e1, s1, e2, s2), kappa)[0]
                shrunk = rd_statistic(pair(e1 * g, s1, e2 * g, s2), kappa)[0]
                assert shrunk == math.ldexp(t, 1018)

    def test_squared_statistics_past_the_float_range_are_inf(self):
        # the squares overflowed in a multiply
        res = omnibus_test(pair(1e300, 1e-10, 1.0, 1.0), 2.0, 0.05)[0]
        assert res.statistic == math.inf and res.p_value == 0.0
        res = gail_simon_test(pair(1e200, 1.0, -1.0, 1.0), 0.05)[0]
        assert res.statistic == 1.0 and res.p_value == 0.5 * chi2_1_tail(1.0)
        res = gail_simon_test(pair(1e200, 1.0, -1e200, 1.0), 0.05)[0]
        assert res.statistic == math.inf and res.p_value == 0.0

    def test_variance_whose_squares_underflow_at_huge_kappa(self):
        # se2^2 and (s se1)^2 underflow at kappa = 1e200, so se1^2 s^2 +
        # m^2 se2^2 was 0: a divide by zero, and an rd statistic of -inf
        p = pair(1.0, 0.5, 1.0, 1e-200)
        t = rd_statistic(p, 1e200)[0]
        assert t == pytest.approx((1.0 - 1e200) / math.sqrt(1.25), rel=1e-14)
        assert omnibus_statistic(p, 1e200)[0] == 0.0
        for test in (rd_test, omnibus_test):
            res = test(p, 1e200, 0.05)[0]
            assert res.p_value == 1.0 and not res.rejected
            assert res.components == {"normal_boundary": 1.0, "zero_point": 1.0}
        assert kappa_max(p, 0.05)[0].kappa_max == 1.0
        # outside the null the zero-point correlations read the same
        # variances: nu1 = (0.25 - 1) / 1.25 and nu2 -> -1 for rd, and
        # 0.25 / sqrt(1.25 * 0.25) for the omnibus pair
        q = pair(1.0, 0.5, 1e-201, 1e-200)
        t = 0.9 / math.sqrt(1.25)
        res = rd_test(q, 1e200, 0.05)[0]
        assert res.statistic == pytest.approx(t, rel=1e-14)
        zero_point = 2.0 * float(bvn_upper_tail(t, t, -0.6))
        assert res.components["zero_point"] == pytest.approx(zero_point, rel=1e-12)
        res = omnibus_test(q, 1e200, 0.05)[0]
        assert res.statistic == pytest.approx(t * t, rel=1e-14)
        zero_point = 2.0 * float(bvn_upper_tail(t, t, 1.0 / math.sqrt(5.0)))
        assert res.components["zero_point"] == pytest.approx(zero_point, rel=1e-12)

    def test_zero_point_tails_vanish_at_infinity(self):
        assert rd_null_tail(math.inf, 2.0, 0.3, 0.7) == 0.0
        assert omnibus_null_tail(math.inf, 2.0, 0.3, 0.7) == 0.0
