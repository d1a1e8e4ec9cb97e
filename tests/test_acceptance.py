"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test prints (and registers for the terminal summary) a single
"criterion N: PASS/FAIL" line carrying the measured margin, then asserts.
Tolerances and runtime budgets are fixed here on purpose: loosening one is
a behavior change, not a test fix.  The Monte Carlo work reuses one seeded
n=100 study and one n=50 study across criteria 3-6.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from qualint import (
    PairBatch,
    SimulationConfig,
    gail_simon_test,
    kappa_max,
    mc_null_oracle,
    omnibus_null_tail,
    omnibus_test,
    rd_null_tail,
    rd_power_approx,
    rd_test,
    run_rejection_study,
)
from qualint.distributions import bvn_upper_tail, ndtr

SEED = 20240814
ALPHA = 0.05
GRID = tuple(round(-1.0 + 0.1 * k, 10) for k in range(21))

# Reference panel of two-group estimates with published ratio bounds.
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


def _verdict(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def _pair(e1, s1, e2, s2) -> PairBatch:
    return PairBatch.from_rows([(e1, s1, e2, s2)])


def _study(n: int) -> tuple:
    config = SimulationConfig(
        theta1=1.0,
        theta2_grid=GRID,
        n=n,
        replications=1000,
        kappas=(2.0, 4.0),
        alpha=ALPHA,
        seed=SEED,
    )
    start = time.perf_counter()
    result = run_rejection_study(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_n100():
    return _study(100)


@pytest.fixture(scope="module")
def study_n50():
    return _study(50)


def test_criterion_1_reference_panel_reproduction():
    start = time.perf_counter()
    computed = {
        name: kappa_max(_pair(e1, s1, e2, s2), 0.10)[0].kappa_max
        for name, e1, s1, e2, s2, _ in TABLE_ROWS
    }
    elapsed = time.perf_counter() - start
    errors = {
        name: abs(computed[name] - published)
        for name, *_, published in TABLE_ROWS
    }
    worst = max(errors.values())
    spot_ok = (
        abs(computed["GRB2"] - 2.04) <= 0.1
        and abs(computed["APC"] - 1.91) <= 0.1
        and abs(computed["SOS1"] - 1.01) <= 0.1
    )
    passed = worst <= 0.1 and spot_ok and elapsed < 1.0
    _verdict(
        1,
        passed,
        f"12 rows at alpha=0.10, worst |error| {worst:.4f} <= 0.1, "
        f"{elapsed * 1e3:.0f} ms < 1 s",
    )


def test_criterion_2_analytic_null_vs_monte_carlo():
    start = time.perf_counter()
    draws = 10**6
    worst_units = 0.0
    tails = {"rd": rd_null_tail, "omnibus": omnibus_null_tail}
    for combo, (kappa, ratio) in enumerate(product((1.5, 2.0, 4.0), (0.5, 1.0, 2.0))):
        se1, se2 = ratio, 1.0
        for kind_index, kind in enumerate(("rd", "omnibus")):
            oracle = mc_null_oracle(
                kappa,
                se1,
                se2,
                draws,
                np.random.default_rng([SEED, combo, kind_index]),
                kind,
            )
            for t in (0.5, 1.0, 2.0):
                analytic = tails[kind](t, kappa, se1, se2)
                empirical = oracle.exceedance(t)
                mc_se = max(math.sqrt(empirical * (1 - empirical) / draws), 1 / draws)
                worst_units = max(worst_units, abs(analytic - empirical) / mc_se)
    elapsed = time.perf_counter() - start
    passed = worst_units <= 4.0 and elapsed < 120.0
    _verdict(
        2,
        passed,
        f"18 tail curves x 3 points, worst gap {worst_units:.2f} MC SEs <= 4, "
        f"{elapsed:.1f} s < 2 min",
    )


def test_criterion_3_size_control(study_n100):
    result, elapsed = study_n100
    bound = ALPHA + 3 * math.sqrt(ALPHA * (1 - ALPHA) / 1000)
    rd_null = [t2 for t2 in GRID if abs(t2) >= 0.5 - 1e-9]
    omnibus_null = [t2 for t2 in GRID if t2 >= 0.5 - 1e-9]
    worst_rd = max(result.rate(t2, 2.0, "rd").rejection_rate for t2 in rd_null)
    worst_omni = max(
        result.rate(t2, 2.0, "omnibus").rejection_rate for t2 in omnibus_null
    )
    passed = worst_rd <= bound and worst_omni <= bound and elapsed < 300.0
    _verdict(
        3,
        passed,
        f"null-region rates rd {worst_rd:.3f} / omnibus {worst_omni:.3f} "
        f"<= {bound:.4f}, study {elapsed:.1f} s < 5 min",
    )


def test_criterion_4_power_shape(study_n100, study_n50):
    big, _ = study_n100
    small, _ = study_n50
    rates_k2 = {t2: big.rate(t2, 2.0, "rd") for t2 in GRID}
    rates_k4 = {t2: big.rate(t2, 4.0, "rd") for t2 in GRID}
    peak = rates_k2[0.0].rejection_rate
    peak_is_max = all(peak >= cell.rejection_rate for cell in rates_k2.values())
    beats_04 = (
        peak > rates_k2[0.4].rejection_rate and peak > rates_k2[-0.4].rejection_rate
    )
    kappa_ordered = all(
        rates_k4[t2].rejection_rate
        <= rates_k2[t2].rejection_rate
        + 2 * math.hypot(rates_k2[t2].mc_std_error, rates_k4[t2].mc_std_error)
        for t2 in GRID
    )
    big_cell = rates_k2[0.0]
    small_cell = small.rate(0.0, 2.0, "rd")
    n_ordered = (
        big_cell.rejection_rate
        >= small_cell.rejection_rate
        - 2 * math.hypot(big_cell.mc_std_error, small_cell.mc_std_error)
    )
    passed = peak_is_max and beats_04 and kappa_ordered and n_ordered
    _verdict(
        4,
        passed,
        f"peak at 0 ({peak:.3f}), beats +/-0.4 "
        f"({rates_k2[0.4].rejection_rate:.3f}/{rates_k2[-0.4].rejection_rate:.3f}), "
        f"kappa=4 <= kappa=2 pointwise: {kappa_ordered}, n=100 >= n=50: {n_ordered}",
    )


def test_criterion_5_analytic_vs_mc_power(study_n100):
    result, _ = study_n100
    # model standard errors: slope of Y = theta X + noise with unit-variance
    # X and noise has SE ~ 1/sqrt(n) = 0.1 at n = 100
    truth = _pair(1.0, 0.1, 0.0, 0.1)
    analytic = rd_power_approx(truth, 2.0, ALPHA)[0]
    empirical = result.rate(0.0, 2.0, "rd").rejection_rate
    gap = abs(analytic - empirical)
    passed = gap <= 0.05
    _verdict(
        5,
        passed,
        f"analytic {analytic:.4f} vs Monte Carlo {empirical:.4f}, "
        f"|gap| {gap:.4f} <= 0.05",
    )


def test_criterion_6_kappa_max_consistency(study_n100):
    result, _ = study_n100
    q90_at_half = result.kappa_max_quantiles[0.5][0.90]
    median_at_one = result.kappa_max_quantiles[1.0][0.50]
    passed = q90_at_half <= 2.25 and median_at_one == 1.0
    _verdict(
        6,
        passed,
        f"q90(kappa_max | theta2=0.5) = {q90_at_half:.3f} <= 2.25, "
        f"median(kappa_max | theta2=1) = {median_at_one:g} == 1",
    )


def test_criterion_7_large_kappa_collapse():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(100):
        e1 = rng.uniform(0.05, 2.0)
        e2 = -rng.uniform(0.05, 2.0)
        if rng.random() < 0.5:
            e1, e2 = e2, e1
        pair = _pair(e1, rng.uniform(0.05, 1.0), e2, rng.uniform(0.05, 1.0))
        omnibus_p = omnibus_test(pair, 1e6, ALPHA)[0].p_value
        classical_p = gail_simon_test(pair, ALPHA)[0].p_value
        worst = max(worst, abs(omnibus_p - classical_p))
    passed = worst <= 1e-4
    _verdict(
        7,
        passed,
        f"100 opposite-sign pairs, max |p(kappa=1e6) - p_gs| {worst:.2e} <= 1e-4",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(SEED + 8)
    failures = []

    def pairs(count):
        for _ in range(count):
            yield _pair(
                rng.normal(scale=1.5),
                rng.uniform(0.05, 1.0),
                rng.normal(scale=1.5),
                rng.uniform(0.05, 1.0),
            )

    # scale invariance: multiplying every estimate and SE by c > 0 changes
    # nothing (tests to 1e-10, the inversion to root-solver resolution)
    for pair in pairs(25):
        for c in (0.1, 3.7):
            scaled = _pair(
                c * pair.est1[0],
                c * pair.se1[0],
                c * pair.est2[0],
                c * pair.se2[0],
            )
            for kappa in (1.5, 3.0):
                if abs(
                    rd_test(pair, kappa, ALPHA)[0].p_value
                    - rd_test(scaled, kappa, ALPHA)[0].p_value
                ) > 1e-10 or abs(
                    omnibus_test(pair, kappa, ALPHA)[0].p_value
                    - omnibus_test(scaled, kappa, ALPHA)[0].p_value
                ) > 1e-10:
                    failures.append("scale invariance")
            if abs(kappa_max(pair, 0.10)[0].kappa_max
                   - kappa_max(scaled, 0.10)[0].kappa_max) > 1e-5:
                failures.append("scale invariance (inversion)")

    # group exchange and sign symmetries
    for pair in pairs(25):
        swapped = _pair(
            pair.est2[0],
            pair.se2[0],
            pair.est1[0],
            pair.se1[0],
        )
        flipped = _pair(
            -pair.est1[0],
            pair.se1[0],
            -pair.est2[0],
            pair.se2[0],
        )
        one_flipped = _pair(
            -pair.est1[0],
            pair.se1[0],
            pair.est2[0],
            pair.se2[0],
        )
        for kappa in (1.5, 3.0):
            base_rd = rd_test(pair, kappa, ALPHA)[0].p_value
            if abs(base_rd - rd_test(swapped, kappa, ALPHA)[0].p_value) > 1e-12:
                failures.append("rd exchange symmetry")
            # the magnitude-ratio test ignores every sign pattern
            if (
                abs(base_rd - rd_test(flipped, kappa, ALPHA)[0].p_value) > 1e-12
                or abs(base_rd - rd_test(one_flipped, kappa, ALPHA)[0].p_value) > 1e-12
            ):
                failures.append("rd sign symmetry")
            base_omni = omnibus_test(pair, kappa, ALPHA)[0].p_value
            if abs(base_omni - omnibus_test(swapped, kappa, ALPHA)[0].p_value) > 1e-12:
                failures.append("omnibus exchange symmetry")
            if abs(base_omni - omnibus_test(flipped, kappa, ALPHA)[0].p_value) > 1e-12:
                failures.append("omnibus global sign symmetry")
        if (
            abs(
                gail_simon_test(pair, ALPHA)[0].p_value
                - gail_simon_test(swapped, ALPHA)[0].p_value
            )
            > 1e-12
        ):
            failures.append("gs exchange symmetry")

    # rd p-values never decrease as the ratio bound grows (the quantified
    # invariant; it is what makes the inversion well defined)
    kappa_grid = (1.000000001, 1.3, 2.0, 3.5, 8.0)
    for pair in pairs(25):
        values = [rd_test(pair, k, ALPHA)[0].p_value for k in kappa_grid]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            failures.append("rd p monotone in kappa")

    # test-inversion consistency: reject just below kappa_max, accept just above
    for name, e1, s1, e2, s2, _ in TABLE_ROWS:
        pair = _pair(e1, s1, e2, s2)
        bound = kappa_max(pair, 0.10)[0].kappa_max
        if bound <= 1.0 + 1e-6:
            continue
        below = rd_test(pair, bound * (1 - 1e-3), 0.10)[0].p_value
        above = rd_test(pair, bound * (1 + 1e-3), 0.10)[0].p_value
        if not (below < 0.10 <= above):
            failures.append(f"inversion consistency ({name})")

    # bivariate-normal identities
    for a, b in ((0.0, 0.0), (0.5, -0.3), (1.2, 2.0)):
        if abs(
            bvn_upper_tail(a, b, 0.0)
            - (1 - ndtr(a)) * (1 - ndtr(b))
        ) > 1e-13:
            failures.append("bvn independence factorization")
        for rho in (-0.9, -0.4, 0.3, 0.8):
            if abs(bvn_upper_tail(a, b, rho) - bvn_upper_tail(b, a, rho)) > 1e-14:
                failures.append("bvn exchange symmetry")
    for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
        orthant = 0.25 + math.asin(rho) / (2 * math.pi)
        if abs(bvn_upper_tail(0.0, 0.0, rho) - orthant) > 1e-13:
            failures.append("bvn orthant formula")

    # seeded determinism of simulation outputs
    config = SimulationConfig(
        theta1=1.0,
        theta2_grid=(0.0, 0.5),
        n=25,
        replications=50,
        kappas=(2.0,),
        alpha=ALPHA,
        seed=SEED,
    )
    runs = [run_rejection_study(config) for _ in range(3)]
    if not (runs[0] == runs[1] == runs[2]):
        failures.append("seeded determinism")

    unique = sorted(set(failures))
    _verdict(
        8,
        not unique,
        "7 property families quantified"
        + ("" if not unique else f"; failing: {', '.join(unique)}"),
    )
