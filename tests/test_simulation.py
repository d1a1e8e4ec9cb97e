"""Tests for the Monte Carlo engine: determinism, shapes, oracle agreement.

Statistical checks run at reduced replicate counts with generous bands so
the suite stays fast; the full-scale bounds live in the acceptance tests.
"""

import contextlib
import io
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import chdtrc

from qualint import simulation
from qualint.cli import main
from qualint.estimators import SampleBatch, ols_slope
from qualint.inference import PairBatch, kappa_max, omnibus_test, rd_null_tail, rd_test
from qualint.simulation import (
    EmpiricalTail,
    RateCell,
    SimulationConfig,
    _StateWords,
    _stream_words,
    _study_estimates,
    mc_null_oracle,
    run_rejection_study,
)


def grid_points(study):
    """A study's (est, se, ok) arrays per grid point, in grid order: its
    (est1, se1, est2, se2) columns over the usable replicates, in replicate
    order, and the number of replicates dropped."""
    for est, se, ok in zip(*study):
        e, s = est[ok], se[ok]
        yield (e[:, 0], s[:, 0], e[:, 1], s[:, 1]), len(ok) - int(ok.sum())


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
        # the core's checks word every rule the core owns
        for overrides, message in (
            ({"theta1": math.inf}, "theta1 must be finite, got inf"),
            ({"theta2_grid": ()}, "theta2_grid must be nonempty"),
            ({"theta2_grid": (0.0, math.nan)}, "theta2_grid must be finite"),
            ({"theta2_grid": (-math.inf, 0.0)}, "theta2_grid must be finite"),
            ({"theta2_grid": (0.0, 0.5, 0.0)}, "theta2_grid must not repeat a value"),
            ({"n": 2}, "need at least 3 pairs, got 2"),
            ({"replications": 0}, "replications must be >= 1, got 0"),
            ({"kappas": (1.0,)}, "kappa must be > 1, got 1.0"),
            ({"kappas": (2.0, math.inf)}, "kappa must be finite, got inf"),
            ({"kappas": ()}, "kappas must be nonempty"),
            ({"alpha": 0.0}, r"alpha must lie in \(0, 1\), got 0.0"),
            ({"seed": -1}, "seed must fit in 64 unsigned bits"),
            ({"seed": 2**64}, "seed must fit in 64 unsigned bits"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                small_config(**overrides)

    def test_stream_indices_stay_below_two_to_the_32(self):
        # each index is one 32-bit word of the stream's seed entropy
        assert small_config(replications=2**32 - 1).replications == 2**32 - 1
        with pytest.raises(ValueError, match=r"2\*\*32"):
            small_config(replications=2**32)


class TestGenerateDataset:
    """The engine's per-replicate datasets: y = theta x + eps, n pairs per group."""

    @staticmethod
    def slopes():
        # 20 replicates of 5,000 pairs: 100,000 pairs per group
        cfg = small_config(theta2_grid=(0.0,), n=5_000, replications=20)
        ((est1, se1, est2, se2), dropped), = grid_points(_study_estimates(cfg))
        assert dropped == 0
        return cfg, (est1, se1), (est2, se2)

    def test_deterministic_given_stream_seed(self):
        cfg = small_config(theta2_grid=(0.0, -0.7), n=20, replications=7)
        runs = [list(grid_points(_study_estimates(cfg))) for _ in range(2)]
        for (a, dropped_a), (b, dropped_b) in zip(*runs):
            assert dropped_a == dropped_b
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        # another seed is another set of streams
        (other, _), _ = grid_points(_study_estimates(small_config(
            theta2_grid=(0.0, -0.7), n=20, replications=7, seed=cfg.seed + 1)))
        assert not np.array_equal(runs[0][0][0][0], other[0])

    def test_null_model_has_no_correlation(self):
        # group 2 at theta2 = 0: the slope of y on x is centred on 0
        _, _, (est, se) = self.slopes()
        assert abs(est.mean()) < 4.0 * se.mean() / math.sqrt(len(est))

    def test_slope_recovers_theta(self):
        cfg, (est, se), _ = self.slopes()
        assert cfg.theta1 == 1.0
        assert abs(est.mean() - 1.0) < 4.0 * se.mean() / math.sqrt(len(est))


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
        assert repr(tail) == "EmpiricalTail(draws=3)"


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
        analytic = chdtrc(1, 2.0)
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
        # replicate r of grid point g draws from default_rng([seed, g, r]),
        # group 1 before group 2, each an x block then a noise block
        cfg = small_config(theta2_grid=(0.0, -0.7), n=20, replications=7)
        points = grid_points(_study_estimates(cfg))
        for g, theta2 in enumerate(cfg.theta2_grid):
            (est1, se1, est2, se2), dropped = next(points)
            assert dropped == 0
            for r in range(cfg.replications):
                rng = np.random.default_rng([cfg.seed, g, r])
                fits = []
                for theta in (cfg.theta1, theta2):
                    x, y = rng.standard_normal((2, cfg.n))
                    y += theta * x  # y = theta x + eps
                    fit = ols_slope(SampleBatch([x], [y]))
                    fits.append((fit.estimate[0], fit.std_error[0]))
                assert [(est1[r], se1[r]), (est2[r], se2[r])] == fits

    @staticmethod
    def assert_streams_match_default_rng(cfg, indices):
        words = _stream_words(cfg)
        for g, r in indices:
            got = np.random.PCG64(_StateWords(words[g, r])).state
            want = np.random.default_rng([cfg.seed, g, r]).bit_generator.state
            assert got == want, (cfg.seed, g, r)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_stream_states_equal_default_rng(self, seed):
        # this fails loudly if numpy ever changes how SeedSequence hashes
        cfg = small_config(theta2_grid=(0.0, 0.5, 1.0), replications=5, seed=seed)
        ends = ((0, 1, 2), (0, 1, 4))
        self.assert_streams_match_default_rng(
            cfg, [(g, r) for g in ends[0] for r in ends[1]]
        )

    def test_stream_words_are_c_contiguous(self):
        # a PCG64 reads a row's buffer as it lies in memory, so a strided
        # view would seed other streams than its indices say
        words = _stream_words(small_config(theta2_grid=(0.0, 0.5, 1.0), replications=5))
        assert words.shape == (3, 5, 4)
        assert words.flags.c_contiguous

    def test_one_holder_seeds_the_states_of_default_rng(self):
        # a study hands every PCG64 of a block the same holder, its words
        # replaced in turn: each generator reads them once, when it is built
        cfg = small_config(theta2_grid=(0.0, 0.5, 1.0), replications=5, seed=2**63 + 7)
        words = _stream_words(cfg)
        holder = _StateWords(words[0, 0])
        generators = {}
        for g, r in np.ndindex(words.shape[:2]):
            holder.words = words[g, r]
            generators[g, r] = np.random.PCG64(holder)
        for (g, r), generator in generators.items():
            want = np.random.default_rng([cfg.seed, g, r]).bit_generator.state
            assert generator.state == want, (g, r)

    @given(
        seed=st.integers(0, 2**64 - 1),
        grid_size=st.integers(1, 4),
        replications=st.integers(1, 6),
    )
    def test_stream_states_equal_default_rng_for_any_seed(self, seed, grid_size, replications):
        cfg = small_config(
            theta2_grid=tuple(range(grid_size)), replications=replications, seed=seed
        )
        self.assert_streams_match_default_rng(
            cfg, [(g, r) for g in range(grid_size) for r in range(replications)]
        )

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([1.0, 1.25, 2.0]),
                st.floats(1.0, 1e300),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_one_quantile_call_equals_scalar_calls(self, values):
        # study quantiles come from one call; the golden pin checks them to 1e-6 only
        block = np.array(values)
        together = np.quantile(block, (0.10, 0.50, 0.90))
        apart = np.array([np.quantile(block, q) for q in (0.10, 0.50, 0.90)])
        assert together.tobytes() == apart.tobytes()

    @given(
        st.integers(1, 40).flatmap(
            lambda count: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([1.0, 1.25, 2.0, math.inf]),
                        st.floats(1.0, 1e300),
                    ),
                    min_size=count,
                    max_size=count,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_one_block_quantile_call_equals_per_row_calls(self, rows):
        # a study takes the quantiles of every grid point with the same
        # replicate count in one axis=1 call; each row must keep its bits
        block = np.array(rows)
        with np.errstate(invalid="ignore"):  # inf - inf between tied infinities
            together = np.quantile(block, (0.10, 0.50, 0.90), axis=1).T
            apart = np.array([np.quantile(row, (0.10, 0.50, 0.90)) for row in block])
        assert together.tobytes() == apart.tobytes()

    def test_quantiles_beside_infinity_take_the_order_statistic(self):
        # linear interpolation gives 2 + 0 * inf = NaN at the integral index
        # beside +inf, and inf - inf past it
        block = np.array([[1.0, 2.0, math.inf], [1.0, 2.0, 3.0]])
        got = simulation._kappa_max_quantiles(block, (0.5, 0.75))
        assert got.tolist() == [[2.0, math.inf], [2.0, 2.5]]

    @given(
        st.integers(1, 12).flatmap(
            lambda count: st.lists(
                st.lists(
                    st.one_of(st.sampled_from([1.0, 2.0, math.inf]), st.floats(1.0, 1e300)),
                    min_size=count,
                    max_size=count,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_study_quantiles_are_linear_wherever_that_is_defined(self, rows):
        # the study's quantiles keep np.quantile's bits where it is not NaN,
        # and lie between the lower and higher order statistics everywhere
        block, q = np.array(rows), (0.10, 0.50, 0.90)
        got = simulation._kappa_max_quantiles(block, q)
        with np.errstate(invalid="ignore"):
            linear = np.quantile(block, q, axis=1).T
        defined = ~np.isnan(linear)
        assert got[defined].tobytes() == linear[defined].tobytes()
        assert (np.quantile(block, q, axis=1, method="lower").T <= got).all()
        assert (got <= np.quantile(block, q, axis=1, method="higher").T).all()

    def test_ragged_summaries_match_a_per_point_reference(self, monkeypatch):
        # replicates kept per grid point: none, one, and two points sharing
        # a count, so rates are summed over ragged segments around an empty
        # one and quantiles come from blocks of several sizes
        keep = {0: [], 1: [3], 2: [0, 2, 4, 5, 6], 4: [1, 2, 3, 5, 6]}
        cfg = small_config(
            theta2_grid=(-1.0, -0.5, 0.0, 0.5, 1.0), n=20, replications=7, kappas=(1.5, 3.0)
        )
        points = []
        study = simulation._study_estimates

        def ragged(config):
            est, se, ok = study(config)
            for gi, rows in keep.items():
                ok[gi] = np.isin(np.arange(config.replications), rows) & ok[gi]
            points.extend(columns for columns, _ in grid_points((est, se, ok)))
            return est, se, ok

        monkeypatch.setattr(simulation, "_study_estimates", ragged)
        res = run_rejection_study(cfg)

        rates, quantiles, dropped = [], {}, {}
        for theta2, columns in zip(cfg.theta2_grid, points):
            valid = len(columns[0])
            if valid < cfg.replications:
                dropped[theta2] = cfg.replications - valid
            if valid == 0:
                continue
            batch = PairBatch(*columns)
            for kappa in cfg.kappas:
                for test, run in (("rd", rd_test), ("omnibus", omnibus_test)):
                    p_hat = int(run(batch, kappa, cfg.alpha).rejected.sum()) / valid
                    se = math.sqrt(p_hat * (1.0 - p_hat) / valid)
                    rates.append(RateCell(theta2, kappa, test, p_hat, se, valid))
            kmax = kappa_max(batch, cfg.alpha).kappa_max
            quantiles[theta2] = {q: float(np.quantile(kmax, q)) for q in (0.10, 0.50, 0.90)}
        assert dropped == {-1.0: 7, -0.5: 6, 0.0: 2, 1.0: 2}
        # the result's rows, read across its columns, are the reference cells
        assert list(zip(*(c.tolist() for c in res.rates.values()))) == list(map(astuple, rates))
        assert res.dropped == dropped
        got = res.kappa_max_quantiles
        assert list(got) == ["theta2", "q10", "q50", "q90"]
        assert got["theta2"].tolist() == list(quantiles)
        assert np.column_stack(list(got.values())[1:]).tolist() == [
            list(qs.values()) for qs in quantiles.values()]
        assert set(res.rates["replicates"].tolist()) == {1, 5, 7}

    @staticmethod
    def per_point_reference(cfg):
        # each grid point drawn from its default_rng streams and fitted alone
        for g, theta2 in enumerate(cfg.theta2_grid):
            draws = np.array([
                np.random.default_rng([cfg.seed, g, r]).standard_normal((4, cfg.n))
                for r in range(cfg.replications)
            ])
            x, y = draws[:, 0::2], draws[:, 1::2]
            y += np.array([[cfg.theta1], [theta2]]) * x
            fit = ols_slope(SampleBatch(x.reshape(-1, cfg.n), y.reshape(-1, cfg.n)))
            valid = fit.ok.reshape(-1, 2).all(axis=1)
            est, se = (v.reshape(-1, 2)[valid] for v in (fit.estimate, fit.std_error))
            yield (est[:, 0], se[:, 0], est[:, 1], se[:, 1]), cfg.replications - int(valid.sum())

    @staticmethod
    def as_bytes(grid_points):
        return [([c.tobytes() for c in columns], dropped) for columns, dropped in grid_points]

    @pytest.mark.parametrize(
        "overrides, replicates_per_block",
        [
            # one replicate per block; 3, so blocks split points and span
            # their ends; one point per block; 2, 2 and a 1-point last
            # block; one block
            (dict(theta2_grid=(-1.0, -0.5, 0.0, 0.5, 1.0), n=20, replications=7),
             (1, 3, 7, 14, 35)),
            # a grid point of 400,000 values, past the default budget, which
            # splits it into blocks of 3 replicates; one replicate, one point
            (dict(theta2_grid=(0.0, -0.7), n=5_000, replications=20), (None, 1, 20)),
        ],
        ids=["five-points", "point-past-budget"],
    )
    def test_results_do_not_depend_on_the_block_size(
        self, monkeypatch, overrides, replicates_per_block
    ):
        cfg = small_config(kappas=(1.5, 3.0), **overrides)
        want = self.as_bytes(self.per_point_reference(cfg))
        fitted = []  # sample values of each fitted block: x and y of both groups
        fit = simulation.ols_slope
        monkeypatch.setattr(simulation, "ols_slope",
                            lambda sample: fitted.append(2 * sample.x.size) or fit(sample))
        studies = []
        for replicates in replicates_per_block:
            if replicates is not None:  # None keeps the default budget
                monkeypatch.setattr(simulation, "_BLOCK_VALUES", replicates * 4 * cfg.n)
            fitted.clear()
            assert self.as_bytes(grid_points(_study_estimates(cfg))) == want
            # no block holds more than the budget, or one replicate past it
            assert max(fitted) <= max(simulation._BLOCK_VALUES, 4 * cfg.n)
            studies.append(run_rejection_study(cfg))
        assert all(study == studies[0] for study in studies)

    def test_two_n_study_does_not_depend_on_the_block_size(self, monkeypatch, tmp_path):
        # the CLI runs one study per n, each through its own blocks
        argv = ["simulate", "--theta1", "0.8", "--theta2-min", "-1", "--theta2-max", "1",
                "--theta2-step", "0.5", "--n", "5", "30", "--reps", "6", "--kappas", "1.5",
                "--alpha", "0.1", "--seed", "4294967301"]
        outputs = []
        # one point per block; 2 points per block at n = 30 and the whole
        # grid at n = 5; the whole grid
        for budget in (1, 2 * 4 * 6 * 30, 5 * 4 * 6 * 30):
            monkeypatch.setattr(simulation, "_BLOCK_VALUES", budget)
            out = tmp_path / str(budget)
            out.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--output", str(out / "study")]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2]

    def test_single_replicate_rates_are_indicator(self):
        res = run_rejection_study(small_config(replications=1))
        assert set(res.rates["rejection_rate"].tolist()) <= {0.0, 1.0}
        assert set(res.rates["mc_std_error"].tolist()) == {0.0}

    def test_mc_std_error_formula(self):
        res = run_rejection_study(small_config(replications=80))
        rates = res.rates
        for p_hat, se, replicates in zip(rates["rejection_rate"].tolist(),
                                         rates["mc_std_error"].tolist(),
                                         rates["replicates"].tolist()):
            expected = math.sqrt(p_hat * (1 - p_hat) / replicates)
            assert se == pytest.approx(expected, abs=1e-15)
            assert replicates == 80

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
        quantiles = res.kappa_max_quantiles
        assert list(quantiles) == ["theta2", "q10", "q50", "q90"]
        assert quantiles["theta2"].tolist() == [0.0, 0.5]
        assert (quantiles["q10"] <= quantiles["q50"]).all()
        assert (quantiles["q50"] <= quantiles["q90"]).all()
        assert (quantiles["q10"] >= 1.0).all()

    def test_no_kappa_max_quantiles_at_alpha_half_or_more(self):
        # the inversion is defined for alpha < 1/2 only; the rates still are
        res = run_rejection_study(small_config(alpha=0.5, replications=10))
        assert list(res.kappa_max_quantiles) == ["theta2", "q10", "q50", "q90"]
        assert all(len(column) == 0 for column in res.kappa_max_quantiles.values())
        assert all(len(column) == 4 for column in res.rates.values())

    def test_rate_lookup_missing_cell(self):
        res = run_rejection_study(small_config(replications=10))
        with pytest.raises(KeyError):
            res.rate(0.0, 3.0, "rd")

    @pytest.mark.parametrize(
        "theta2, offset, found",
        # math.isclose(..., abs_tol=1e-12): a relative 1e-9 at 0.5, 1e-12 at 0
        [(0.5, 4e-10, True), (0.5, 6e-10, False), (0.0, 5e-13, True), (0.0, 2e-12, False)],
    )
    def test_rate_lookup_keeps_the_isclose_rule_at_its_edges(self, theta2, offset, found):
        res = run_rejection_study(small_config(replications=10))
        for query in (theta2 + offset, theta2 - offset):
            if found:
                cell = res.rate(query, 2.0, "omnibus")
                assert (cell.theta2, cell.kappa, cell.test) == (theta2, 2.0, "omnibus")
            else:
                with pytest.raises(KeyError):
                    res.rate(query, 2.0, "omnibus")
        for query in (math.inf, math.nan):
            with pytest.raises(KeyError):
                res.rate(query, 2.0, "rd")

    def test_study_builds_no_rate_cell(self, monkeypatch, tmp_path):
        # the rates stay columns from the counts to the CLI's writer; a
        # RateCell is built only as the row that rate() returns
        cfg = small_config(replications=10)
        want = run_rejection_study(cfg).rate(0.5, 2.0, "rd")

        def refuse(*args):
            raise AssertionError("a RateCell was built")

        monkeypatch.setattr(simulation, "RateCell", refuse)
        res = run_rejection_study(cfg)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--n", "10", "--reps", "3", "--theta2-step", "0.5",
                         "--output", str(tmp_path / "study")]) == 0
        with pytest.raises(AssertionError, match="RateCell"):
            res.rate(0.5, 2.0, "rd")
        monkeypatch.undo()
        assert res.rate(0.5, 2.0, "rd") == want

    def test_results_compare_column_by_column(self):
        res = run_rejection_study(small_config(replications=10))
        assert res == run_rejection_study(small_config(replications=10))
        rates, quantiles = res.rates, res.kappa_max_quantiles
        for changed in (
            replace(res, rates={**rates, "replicates": rates["replicates"] + 1}),
            replace(res, rates={name: column[:-1] for name, column in rates.items()}),
            replace(res, kappa_max_quantiles={**quantiles, "q90": quantiles["q90"] + 1.0}),
            replace(res, kappa_max_quantiles={}),
            replace(res, dropped={0.5: 1}),
        ):
            assert res != changed
        assert res != rates


class TestKappaMaxStudy:
    """The kappa_max quantiles that run_rejection_study carries."""

    def test_deterministic(self):
        cfg = small_config(theta2_grid=(0.5,), replications=60)
        quantiles = run_rejection_study(cfg).kappa_max_quantiles
        assert quantiles["theta2"].tolist() == [0.5]
        again = run_rejection_study(cfg).kappa_max_quantiles
        assert all(quantiles[name].tobytes() == again[name].tobytes() for name in quantiles)
