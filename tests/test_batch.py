"""Batch/size-1 parity of the array-first core, and the scalar root solver.

The panel mixes seeded rows (lopsided, one-group-null and near-equal pairs,
log-uniform SEs) with hand-picked ones: exact ties |est1| = |est2|, zero
estimates, the origin, rows that never reject, and the paper's reference
rows.  Each row carries kappa_max at alpha = 0.10 as computed by an earlier
scalar implementation (bracket doubling + Brent refinement to 1e-6; 1.0
where no kappa rejects), frozen here as the reference the closed form must
stay within 1e-6 of.
"""

import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from qualint import inference
from qualint.distributions import first_crossing
from qualint.inference import (
    PairBatch,
    gail_simon_test,
    kappa_max,
    omnibus_statistic,
    omnibus_test,
    rd_power_approx,
    rd_statistic,
    rd_test,
)

ALPHA = 0.10

# (est1, se1, est2, se2, kappa_max) at alpha = 0.10
PANEL = [
    (-0.7627, 0.2477, -0.0878, 0.0732, 2.727026115289718),
    (-0.8403, 0.2811, -0.119, 0.1261, 1.9262543396101082),
    (0.4668, 0.0539, 0.5128, 0.0605, 1.0),
    (2.4911, 0.0585, 0.2618, 0.1041, 5.741880984976493),
    (-0.5196, 0.0507, -0.1517, 0.2885, 1.0),
    (-0.6332, 0.0962, -0.6548, 0.2897, 1.0),
    (-0.2995, 0.1731, -0.9079, 0.1011, 1.5005856163412228),
    (0.0897, 0.6527, 2.2157, 0.0901, 1.900052625762027),
    (0.8807, 0.7021, 0.9299, 0.2273, 1.0),
    (-2.2925, 0.9121, -0.0541, 0.1435, 5.552542112770715),
    (-1.1331, 0.383, 0.1503, 0.0765, 2.754817209218677),
    (-1.0041, 0.1432, -1.0554, 0.521, 1.0),
    (-0.1051, 0.3735, -2.0185, 0.1802, 2.7699938583827275),
    (-0.0558, 0.5841, -2.74, 0.3691, 2.62448153572661),
    (2.2702, 0.3316, 2.3276, 0.072, 1.0),
    (0.0923, 0.5591, 2.7794, 0.9236, 2.255674150485956),
    (0.2851, 0.3129, -1.4965, 0.9425, 1.0),
    (-1.7922, 0.3715, -1.703, 0.578, 1.0),
    (-0.1002, 0.5129, -1.2134, 0.0569, 1.2813072666404879),
    (-0.1338, 0.101, -1.8914, 0.5798, 4.825016696855842),
    (0.6359, 0.2219, 0.6654, 0.1407, 1.0),
    (0.0691, 0.7154, 1.7808, 0.1083, 1.4218198617152926),
    (2.884, 0.0505, 0.32, 0.1712, 4.789643703702503),
    (2.1918, 0.3325, 2.1095, 0.4081, 1.0),
    (-1.4752, 0.2698, -0.1819, 0.071, 4.384754501550822),
    (-0.0223, 0.2383, -2.1866, 0.0805, 5.267980319963738),
    (-1.7968, 0.2166, -1.9059, 0.0567, 1.0),
    (-1.1829, 0.1719, -0.1404, 0.0986, 3.700230303255192),
    (-0.2652, 0.4185, -1.0338, 0.271, 1.0),
    (1.6458, 0.3039, 1.9077, 0.9508, 1.0),
    (-1.1555, 0.1967, -0.226, 0.5654, 1.0),
    (0.1155, 0.1663, -1.0297, 0.3671, 1.9459307261070284),
    (1.82, 0.9051, 1.8124, 0.3804, 1.0),
    (-0.5673, 0.1868, -0.1499, 0.2191, 1.0),
    (1.0915, 0.0676, -0.0715, 0.3093, 1.869914453115911),
    (-1.8176, 0.8001, -1.7769, 0.147, 1.0),
    (1.5, 0.2, -1.5, 0.3, 1.0),
    (0.8, 0.1, 0.8, 0.1, 1.0),
    (1.2, 0.3, 0.0, 0.25, 2.660046693119033),
    (0.0, 0.4, -2.0, 0.3, 2.9458085030618437),
    (0.0, 0.5, 0.0, 0.5, 1.0),
    (2.5, 0.05, 0.01, 0.6, 2.5063723606088004),
    (40.0, 1.0, 0.5, 0.02, 74.11761317421167),
    (3.0, 0.2, 1.0, 0.9, 1.197293739134428),
    (-0.06, 0.31, -1.66, 0.68, 2.0648806799883332),
    (1.34, 0.32, -0.09, 0.33, 1.9193816381641948),
]

# the boundary tail of this row reaches alpha only past kappa = 1e9:
# at 1e9 sqrt((10 / z)^2 - 1), z = Phi^-1(0.95)
NEVER_REACHES_ALPHA = (10.0, 1.0, 0.0, 1e-9)


def pair(e1, s1, e2, s2):
    return PairBatch.from_rows([(e1, s1, e2, s2)])


@pytest.fixture(scope="module")
def batch():
    return PairBatch.from_rows(row[:4] for row in PANEL)


@pytest.fixture(scope="module")
def bounds(batch):
    return kappa_max(batch, ALPHA)


def test_panel_covers_the_solver_branches(bounds):
    binding = bounds.binding_root
    assert any(abs(r[0]) == abs(r[2]) and r[0] != 0.0 for r in PANEL)  # ties
    assert any(0.0 in (r[0], r[2]) for r in PANEL)  # zero estimates
    assert np.sum(binding == "none") >= 5  # no kappa rejects
    assert np.sum(binding == "normal_boundary") >= 20


@pytest.mark.parametrize("kappa", [1.5, 3.0])
def test_tests_match_size_one_calls(batch, kappa):
    for test in (rd_test, omnibus_test):
        whole = test(batch, kappa, ALPHA)
        assert len(whole) == len(PANEL)
        for i, row in enumerate(PANEL):
            single = test(pair(*row[:4]), kappa, ALPHA)[0]
            assert whole[i] == single
            assert whole[i].components == single.components
    whole_rd = rd_statistic(batch, kappa)
    whole_omnibus = omnibus_statistic(batch, kappa)
    whole_power = rd_power_approx(batch, kappa, ALPHA)
    assert whole_power.shape == (len(PANEL),)
    for i, row in enumerate(PANEL):
        assert whole_rd[i] == rd_statistic(pair(*row[:4]), kappa)[0]
        assert whole_omnibus[i] == omnibus_statistic(pair(*row[:4]), kappa)[0]
        assert whole_power[i] == rd_power_approx(pair(*row[:4]), kappa, ALPHA)[0]


def test_gail_simon_matches_size_one_calls(batch):
    whole = gail_simon_test(batch, ALPHA)
    for i, row in enumerate(PANEL):
        single = gail_simon_test(pair(*row[:4]), ALPHA)[0]
        assert whole[i] == single
        assert whole[i].components == single.components


def test_kappa_max_matches_size_one_calls(batch, bounds):
    for i, row in enumerate(PANEL):
        single = kappa_max(pair(*row[:4]), ALPHA)[0]
        assert bounds[i] == single  # kappa_max, alpha and binding_root
        assert single.kappa_max == bounds.kappa_max[i]


def test_kappa_max_stays_within_tolerance_of_previous_solver(bounds):
    for i, (*_, frozen) in enumerate(PANEL):
        assert abs(bounds.kappa_max[i] - frozen) <= 1e-6, PANEL[i]
        assert (bounds.binding_root[i] == "none") == (frozen == 1.0), PANEL[i]


def test_rd_test_rejects_exactly_below_kappa_max(bounds):
    for i, row in enumerate(PANEL):
        bound = bounds.kappa_max[i]
        if bound <= 1.001:
            continue
        assert rd_test(pair(*row[:4]), bound * (1 - 1e-5), ALPHA)[0].rejected, row
        assert not rd_test(pair(*row[:4]), bound * (1 + 1e-5), ALPHA)[0].rejected, row


def test_boundary_root_past_the_cap_is_finite_on_both_paths(bounds):
    z = float(ndtri(1.0 - ALPHA / 2.0))
    expected = 1e9 * math.sqrt((10.0 / z) ** 2 - 1.0)
    single = kappa_max(pair(*NEVER_REACHES_ALPHA), ALPHA)[0]
    assert single.kappa_max == pytest.approx(expected, rel=1e-12)
    assert single.binding_root == "normal_boundary"
    assert rd_test(pair(*NEVER_REACHES_ALPHA), expected * (1 - 1e-6), ALPHA)[0].rejected
    assert not rd_test(pair(*NEVER_REACHES_ALPHA), expected * (1 + 1e-6), ALPHA)[0].rejected
    rows = [row[:4] for row in PANEL[:5]] + [NEVER_REACHES_ALPHA]
    whole = kappa_max(PairBatch.from_rows(rows), ALPHA)
    assert whole[5] == single
    assert whole.kappa_max[:5].tolist() == bounds.kappa_max[:5].tolist()


def test_kappa_max_evaluates_no_bivariate_tail_unless_roots_are_read(batch, bounds, monkeypatch):
    # the zero-point tail never exceeds the boundary tail, so the boundary
    # tail alone decides which rows reject at the probe kappa, and a
    # single-pair result is a row of its batch, reading nothing it is not asked
    calls = []
    tail = inference.bvn_upper_tail

    def counted(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(inference, "bvn_upper_tail", counted)
    fresh = kappa_max(batch, ALPHA)
    assert fresh.kappa_max.tolist() == bounds.kappa_max.tolist()
    assert fresh.binding_root.tolist() == bounds.binding_root.tolist()
    single = kappa_max(pair(*PANEL[0][:4]), ALPHA)[0]
    assert single.kappa_max == bounds.kappa_max[0]
    tested = rd_test(pair(*PANEL[0][:4]), 2.0, ALPHA)[0]
    assert (tested.p_value, tested.rejected) == (rd_test(batch, 2.0, ALPHA).p_value[0], True)
    assert not calls
    assert tested.p_value == max(tested.components.values())
    assert calls


def test_closed_form_matches_a_search_of_the_boundary_tail(batch, bounds):
    # a Brent search of each row's boundary tail, as the reference
    for i in np.flatnonzero(bounds.binding_root != "none"):
        a1, a2 = abs(batch.est1[i]), abs(batch.est2[i])
        first = a1 >= a2  # no ties among rows that reject
        big, small = (a1, a2) if first else (a2, a1)
        v1, v2 = batch.se1[i] ** 2, batch.se2[i] ** 2
        v_big, v_small = (v1, v2) if first else (v2, v1)

        def boundary_excess(kappa):
            t = (big - kappa * small) / math.sqrt(v_big + kappa**2 * v_small)
            return 2.0 * ndtr(-t) - ALPHA

        hi = 2.0
        while boundary_excess(hi) < 0.0:
            hi *= 2.0
        searched = brentq(boundary_excess, 1.0 + 1e-9, hi, xtol=1e-300, rtol=1e-15)
        assert abs(bounds.kappa_max[i] - searched) <= 1e-11 * searched, PANEL[i]


# each kind of result: how it is computed, and the field it computes on read
LAZY_RUNS = {
    "rd": (lambda p: rd_test(p, 2.0, ALPHA), "components"),
    "omnibus": (lambda p: omnibus_test(p, 2.0, ALPHA), "components"),
    "gs": (lambda p: gail_simon_test(p, ALPHA), "components"),
    "kappa_max": (lambda p: kappa_max(p, ALPHA), None),
}


def snapshot(result, lazy):
    """Every field of a result or batch, its lazy field read."""
    if lazy is None:
        return {"kappa_max": result.kappa_max, "alpha": result.alpha,
                "binding_root": result.binding_root}
    return {"statistic": result.statistic, "p_value": result.p_value,
            "rejected": result.rejected, "alpha": result.alpha, **result.components}


@pytest.mark.parametrize("kind", sorted(LAZY_RUNS))
def test_results_pickle_before_and_after_their_lazy_read(batch, kind):
    run, lazy = LAZY_RUNS[kind]
    # a rejecting row, a row that does not reject, and the whole panel
    for result in (run(pair(*PANEL[0][:4]))[0], run(pair(*PANEL[2][:4]))[0], run(batch)):
        unread = pickle.loads(pickle.dumps(result))
        want = snapshot(result, lazy)
        read = pickle.loads(pickle.dumps(result))
        for copy in (unread, read):
            got = snapshot(copy, lazy)
            assert got.keys() == want.keys()
            for name, value in want.items():
                if value is None:
                    assert got[name] is None
                else:
                    np.testing.assert_array_equal(got[name], value)


def test_empty_batch():
    empty = PairBatch.from_rows([])
    assert len(rd_test(empty, 2.0, ALPHA)) == 0
    assert len(kappa_max(empty, ALPHA)) == 0


def test_batch_validation_names_the_bad_row():
    with pytest.raises(ValueError, match=r"se2\[1\]"):
        PairBatch.from_rows([(1.0, 0.5, 0.2, 0.3), (1.0, 0.5, 0.2, 0.0)])
    with pytest.raises(ValueError, match=r"est1\[0\]"):
        PairBatch.from_rows([(math.nan, 0.5, 0.2, 0.3)])
    # the first bad field is named, then that field's first bad row
    rows = [(1.0, 0.5, 0.2, 0.0), (1.0, 0.5, 0.2, 0.3), (1.0, 0.5, 0.2, 0.3),
            (math.inf, 0.5, 0.2, 0.3)]
    with pytest.raises(ValueError, match=r"^est1\[3\] must be finite, got inf$"):
        PairBatch.from_rows(rows)


# ---------------------------------------------------------------------------
# first_crossing: one doubling + safeguarded Illinois
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def test_first_crossing_roots_and_cap():
    linear = lambda target: lambda x: x - target
    # a bracket end that is an exact root is returned as is
    assert first_crossing(linear(2.0), 1.0, -1.0, 2.0) == 2.0
    assert first_crossing(linear(4.0), 1.0, -3.0, 2.0) == 4.0
    # f still negative at 2 hi: no crossing
    assert math.isinf(first_crossing(linear(4.5), 1.0, -3.5, 2.0))
    for target in (1.5, 3.7, 1.25e8):
        got = first_crossing(linear(target), 1.0, 1.0 - target, 0.75 * target)
        assert abs(got - target) <= 4 * EPS * target
    # Phi(x) = 0.975, by inverting ndtr
    quantile = lambda x: ndtr(x) - 0.975
    got = first_crossing(quantile, 1.0, quantile(1.0), 2.0)
    assert abs(got - ndtri(0.975)) <= 4 * EPS * got


def test_first_crossing_stays_in_bracket_on_a_near_step():
    # regula falsi alone crawls on this function; the bisection fallback
    # bounds the work and every iterate stays inside the bracket
    root = 2.345678
    seen = []

    def steep(x):
        seen.append(x)
        return np.arctan(1e8 * (x - root))

    got = first_crossing(steep, 1.0, np.arctan(1e8 * (1.0 - root)), 2.0)
    assert abs(got - root) <= 4 * EPS * root
    assert seen[:2] == [2.0, 4.0]  # hi, then 2 hi
    assert all(2.0 < x < 4.0 for x in seen[2:])
    assert len(seen) < 150
