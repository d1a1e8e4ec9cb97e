"""Tests for the Monte Carlo engine: determinism, shapes, oracle agreement.

Statistical checks run at reduced replicate counts with generous bands so
the suite stays fast; the full-scale bounds live in the acceptance tests.
"""

import math

import numpy as np
import pytest

from qualint.distributions import chi2_1_tail
from qualint.estimators import Sample2D, ols_slope
from qualint.inference import rd_null_tail
from qualint.simulation import (
    EmpiricalTail,
    SimulationConfig,
    _estimate_grid_point,
    generate_dataset,
    mc_null_oracle,
    run_kappa_max_study,
    run_rejection_study,
)


def small_config(**overrides):
    base = dict(
        theta1=1.0,
        theta2_grid=(0.0, 0.5),
        n=50,
        replications=100,
        kappas=(2.0,),
        alpha=0.05,
        seed=1234,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestSimulationConfig:
    def test_coercion_to_tuples(self):
        cfg = small_config(theta2_grid=[0.1, 0.2], kappas=[2, 4])
        assert cfg.theta2_grid == (0.1, 0.2)
        assert cfg.kappas == (2.0, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(theta2_grid=())
        with pytest.raises(ValueError):
            small_config(n=2)
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(kappas=(1.0,))
        with pytest.raises(ValueError):
            small_config(kappas=())
        with pytest.raises(ValueError):
            small_config(alpha=0.0)
        with pytest.raises(ValueError):
            small_config(seed=-1)
        with pytest.raises(ValueError):
            small_config(seed=2**64)


class TestGenerateDataset:
    def test_deterministic_given_stream_seed(self):
        a = generate_dataset(0.7, 50, np.random.default_rng(99))
        b = generate_dataset(0.7, 50, np.random.default_rng(99))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        # the x block is drawn first, then the noise block
        rng = np.random.default_rng(99)
        x = rng.standard_normal(50)
        assert np.array_equal(a.x, x)
        assert np.array_equal(a.y, 0.7 * x + rng.standard_normal(50))

    def test_null_model_has_no_correlation(self):
        ds = generate_dataset(0.0, 100_000, np.random.default_rng(1))
        r = float(np.corrcoef(ds.x, ds.y)[0, 1])
        assert abs(r) < 4.0 / math.sqrt(100_000)

    def test_slope_recovers_theta(self):
        ds = generate_dataset(1.0, 100_000, np.random.default_rng(2))
        est = ols_slope(ds)
        assert abs(est.estimate - 1.0) < 4.0 * est.std_error

    def test_returns_validated_sample(self):
        ds = generate_dataset(0.3, 10, np.random.default_rng(3))
        assert isinstance(ds, Sample2D) and len(ds) == 10
        with pytest.raises(ValueError):
            generate_dataset(0.3, 2, np.random.default_rng(3))


class TestEmpiricalTail:
    def test_exceedance_counts_strictly_above(self):
        tail = EmpiricalTail(np.array([3.0, 1.0, 2.0]))
        assert tail(0.5) == 1.0
        assert tail(1.0) == pytest.approx(2.0 / 3.0)
        assert tail(2.5) == pytest.approx(1.0 / 3.0)
        assert tail(3.0) == 0.0
        assert tail(50.0) == 0.0

    def test_domain(self):
        tail = EmpiricalTail(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            tail(0.0)

    def test_frozen_sample(self):
        tail = EmpiricalTail(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            tail.values[0] = 5.0
        assert tail.draws == 3


class TestMcNullOracle:
    def test_rd_tail_agreement(self):
        draws = 200_000
        tail = mc_null_oracle(2.0, 1.0, 1.0, draws, np.random.default_rng(5), "rd")
        for t in (0.5, 1.0):
            analytic = rd_null_tail(t, 2.0, 1.0, 1.0)
            band = 4.0 * math.sqrt(analytic * (1 - analytic) / draws)
            assert abs(tail(t) - analytic) <= band

    def test_omnibus_degenerate_kappa_matches_chi2(self):
        draws = 200_000
        tail = mc_null_oracle(
            1.0 + 1e-9, 1.0, 1.0, draws, np.random.default_rng(6), "omnibus"
        )
        analytic = chi2_1_tail(2.0)
        band = 4.0 * math.sqrt(analytic * (1 - analytic) / draws)
        assert abs(tail(2.0) - analytic) <= band

    def test_far_tail_empty(self):
        tail = mc_null_oracle(2.0, 1.0, 1.0, 10_000, np.random.default_rng(7), "rd")
        assert tail(50.0) == 0.0

    def test_deterministic(self):
        a = mc_null_oracle(2.0, 1.0, 0.5, 10_000, np.random.default_rng(8), "omnibus")
        b = mc_null_oracle(2.0, 1.0, 0.5, 10_000, np.random.default_rng(8), "omnibus")
        assert np.array_equal(a.values, b.values)

    def test_validation(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            mc_null_oracle(2.0, 1.0, 1.0, 9_999, rng, "rd")
        with pytest.raises(ValueError):
            mc_null_oracle(2.0, 1.0, 1.0, 10_000, rng, "bogus")
        with pytest.raises(ValueError):
            mc_null_oracle(0.9, 1.0, 1.0, 10_000, rng, "rd")


class TestRejectionStudy:
    def test_bit_reproducible_across_runs(self):
        cfg = small_config()
        assert run_rejection_study(cfg) == run_rejection_study(cfg) == run_rejection_study(cfg)

    def test_replicates_follow_the_stream_contract(self):
        # replicate r of grid point g is ols_slope(generate_dataset(...)) on
        # default_rng([seed, g, r]), group 1 drawn before group 2
        cfg = small_config(theta2_grid=(0.0, -0.7), n=20, replications=7)
        for g, theta2 in enumerate(cfg.theta2_grid):
            (est1, se1, est2, se2), dropped = _estimate_grid_point(cfg, g)
            assert dropped == 0
            for r in range(cfg.replications):
                rng = np.random.default_rng([cfg.seed, g, r])
                fit1 = ols_slope(generate_dataset(cfg.theta1, cfg.n, rng))
                fit2 = ols_slope(generate_dataset(theta2, cfg.n, rng))
                assert (est1[r], se1[r]) == (fit1.estimate, fit1.std_error)
                assert (est2[r], se2[r]) == (fit2.estimate, fit2.std_error)

    def test_single_replicate_rates_are_indicator(self):
        res = run_rejection_study(small_config(replications=1))
        assert all(c.rejection_rate in (0.0, 1.0) for c in res.rates)
        assert all(c.mc_std_error == 0.0 for c in res.rates)

    def test_mc_std_error_formula(self):
        res = run_rejection_study(small_config(replications=80))
        for cell in res.rates:
            expected = math.sqrt(
                cell.rejection_rate * (1 - cell.rejection_rate) / cell.replicates
            )
            assert cell.mc_std_error == pytest.approx(expected, abs=1e-15)
            assert cell.replicates == 80

    def test_null_interior_rate_is_small(self):
        cfg = small_config(theta2_grid=(0.6,), n=100, replications=300)
        rate = run_rejection_study(cfg).rate(0.6, 2.0, "rd").rejection_rate
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 300)

    def test_rd_rate_symmetric_in_theta2_sign(self):
        cfg = small_config(theta2_grid=(0.5, -0.5), n=100, replications=400)
        res = run_rejection_study(cfg)
        plus = res.rate(0.5, 2.0, "rd").rejection_rate
        minus = res.rate(-0.5, 2.0, "rd").rejection_rate
        assert abs(plus - minus) <= 0.05

    def test_omnibus_power_grows_toward_crossover_corner(self):
        # small n keeps both rates off the ceiling so the order is strict
        cfg = small_config(theta2_grid=(-1.0, -0.3), n=10, replications=300)
        res = run_rejection_study(cfg)
        far = res.rate(-1.0, 2.0, "omnibus").rejection_rate
        near = res.rate(-0.3, 2.0, "omnibus").rejection_rate
        assert far > near

    def test_carries_kappa_max_quantiles(self):
        res = run_rejection_study(small_config(replications=50))
        assert set(res.kappa_max_quantiles) == {0.0, 0.5}
        for qs in res.kappa_max_quantiles.values():
            assert set(qs) == {0.10, 0.50, 0.90}
            assert qs[0.10] <= qs[0.50] <= qs[0.90]
            assert qs[0.10] >= 1.0

    def test_rate_lookup_missing_cell(self):
        res = run_rejection_study(small_config(replications=10))
        with pytest.raises(KeyError):
            res.rate(0.0, 3.0, "rd")


class TestKappaMaxStudy:
    def test_deterministic(self):
        cfg = small_config(theta2_grid=(0.5,), replications=60)
        assert run_kappa_max_study(cfg) == run_kappa_max_study(cfg)

    def test_rates_left_empty(self):
        res = run_kappa_max_study(small_config(replications=20))
        assert res.rates == ()
        assert set(res.kappa_max_quantiles) == {0.0, 0.5}

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            run_kappa_max_study(small_config(alpha=0.5))
