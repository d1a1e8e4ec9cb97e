"""Batch/size-1 parity of the array-first core and the batched root solver.

The panel mixes seeded rows (lopsided, one-group-null and near-equal pairs,
log-uniform SEs) with hand-picked ones: exact ties |est1| = |est2|, zero
estimates, the origin, rows that never reject, rows whose zero-point root
pi_2 is +inf, and the paper's reference rows.  Each row carries kappa_max
and pi_2 at alpha = 0.10 as computed by the previous scalar implementation
(bracket doubling + Brent refinement to 1e-6; None where no kappa rejects),
frozen here as the reference the batched solver must stay within 1e-6 of.
"""

import math
import pickle

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from qualint import inference
from qualint.distributions import first_crossing
from qualint.inference import (
    EstimatePair,
    PairBatch,
    SubgroupEstimate,
    gail_simon_test,
    kappa_max,
    omnibus_statistic,
    omnibus_test,
    rd_statistic,
    rd_test,
)

ALPHA = 0.10

# (est1, se1, est2, se2, kappa_max, pi_2) at alpha = 0.10
PANEL = [
    (-0.7627, 0.2477, -0.0878, 0.0732, 2.727026115289718, 6.521043606687027),
    (-0.8403, 0.2811, -0.119, 0.1261, 1.9262543396101082, 5.590456384013721),
    (0.4668, 0.0539, 0.5128, 0.0605, 1.0, None),
    (2.4911, 0.0585, 0.2618, 0.1041, 5.741880984976493, math.inf),
    (-0.5196, 0.0507, -0.1517, 0.2885, 1.0, None),
    (-0.6332, 0.0962, -0.6548, 0.2897, 1.0, None),
    (-0.2995, 0.1731, -0.9079, 0.1011, 1.5005856163412228, 2.2466387425600365),
    (0.0897, 0.6527, 2.2157, 0.0901, 1.900052625762027, 2.2671543254305435),
    (0.8807, 0.7021, 0.9299, 0.2273, 1.0, None),
    (-2.2925, 0.9121, -0.0541, 0.1435, 5.552542112770715, math.inf),
    (-1.1331, 0.383, 0.1503, 0.0765, 2.754817209218677, 4.7447310237345395),
    (-1.0041, 0.1432, -1.0554, 0.521, 1.0, None),
    (-0.1051, 0.3735, -2.0185, 0.1802, 2.7699938583827275, math.inf),
    (-0.0558, 0.5841, -2.74, 0.3691, 2.62448153572661, math.inf),
    (2.2702, 0.3316, 2.3276, 0.072, 1.0, None),
    (0.0923, 0.5591, 2.7794, 0.9236, 2.255674150485956, math.inf),
    (0.2851, 0.3129, -1.4965, 0.9425, 1.0, None),
    (-1.7922, 0.3715, -1.703, 0.578, 1.0, None),
    (-0.1002, 0.5129, -1.2134, 0.0569, 1.2813072666404879, 1.3819723648938473),
    (-0.1338, 0.101, -1.8914, 0.5798, 4.825016696855842, 10.742604327313387),
    (0.6359, 0.2219, 0.6654, 0.1407, 1.0, None),
    (0.0691, 0.7154, 1.7808, 0.1083, 1.4218198617152926, 1.6324952766017151),
    (2.884, 0.0505, 0.32, 0.1712, 4.789643703702503, 7.905471041255646),
    (2.1918, 0.3325, 2.1095, 0.4081, 1.0, None),
    (-1.4752, 0.2698, -0.1819, 0.071, 4.384754501550822, 6.928339046933941),
    (-0.0223, 0.2383, -2.1866, 0.0805, 5.267980319963738, math.inf),
    (-1.7968, 0.2166, -1.9059, 0.0567, 1.0, None),
    (-1.1829, 0.1719, -0.1404, 0.0986, 3.700230303255192, math.inf),
    (-0.2652, 0.4185, -1.0338, 0.271, 1.0, None),
    (1.6458, 0.3039, 1.9077, 0.9508, 1.0, None),
    (-1.1555, 0.1967, -0.226, 0.5654, 1.0, None),
    (0.1155, 0.1663, -1.0297, 0.3671, 1.9459307261070284, 7.510645730066442),
    (1.82, 0.9051, 1.8124, 0.3804, 1.0, None),
    (-0.5673, 0.1868, -0.1499, 0.2191, 1.0, None),
    (1.0915, 0.0676, -0.0715, 0.3093, 1.869914453115911, 2.6451547142295735),
    (-1.8176, 0.8001, -1.7769, 0.147, 1.0, None),
    (1.5, 0.2, -1.5, 0.3, 1.0, None),
    (0.8, 0.1, 0.8, 0.1, 1.0, None),
    (1.2, 0.3, 0.0, 0.25, 2.660046693119033, math.inf),
    (0.0, 0.4, -2.0, 0.3, 2.9458085030618437, math.inf),
    (0.0, 0.5, 0.0, 0.5, 1.0, None),
    (2.5, 0.05, 0.01, 0.6, 2.5063723606088004, 2.8810358919828603),
    (40.0, 1.0, 0.5, 0.02, 74.11761317421167, 78.25271383795243),
    (3.0, 0.2, 1.0, 0.9, 1.197293739134428, 1.3309261231809202),
    (-0.06, 0.31, -1.66, 0.68, 2.0648806799883332, math.inf),
    (1.34, 0.32, -0.09, 0.33, 1.9193816381641948, math.inf),
]

# the boundary tail of this row reaches alpha only past kappa = 1e9, the cap
# of the zero-point search: at 1e9 sqrt((10 / z)^2 - 1), z = Phi^-1(0.95)
NEVER_REACHES_ALPHA = (10.0, 1.0, 0.0, 1e-9)


def pair(e1, s1, e2, s2):
    return EstimatePair(SubgroupEstimate(e1, s1), SubgroupEstimate(e2, s2))


@pytest.fixture(scope="module")
def batch():
    return PairBatch.from_rows(row[:4] for row in PANEL)


@pytest.fixture(scope="module")
def bounds(batch):
    return kappa_max(batch, ALPHA)


def test_panel_covers_the_solver_branches(bounds):
    amax = np.array([max(abs(r[0]), abs(r[2])) for r in PANEL])
    amin = np.array([min(abs(r[0]), abs(r[2])) for r in PANEL])
    binding = bounds.binding_root
    pi2 = bounds.roots[:, 1]
    assert any(abs(r[0]) == abs(r[2]) and r[0] != 0.0 for r in PANEL)  # ties
    assert any(0.0 in (r[0], r[2]) for r in PANEL)  # zero estimates
    assert np.sum(binding == "none") >= 5  # no kappa rejects
    assert np.sum(np.isinf(pi2)) >= 5  # pi_2 = +inf
    # the zero-point search runs past kappa = amax / amin, where the statistic
    # is <= 0 and the objective is the t -> 0+ limit of the tail
    assert np.any(np.isinf(pi2) & (amin > 0.0)) and np.any(pi2 > amax / np.maximum(amin, 1e-300))
    assert np.sum(binding == "normal_boundary") >= 20


@pytest.mark.parametrize("kappa", [1.5, 3.0])
def test_tests_match_size_one_calls(batch, kappa):
    for test in (rd_test, omnibus_test):
        whole = test(batch, kappa, ALPHA)
        assert len(whole) == len(PANEL)
        for i, row in enumerate(PANEL):
            single = test(pair(*row[:4]), kappa, ALPHA)
            assert whole[i] == single
            assert whole[i].components == single.components
    whole_rd = rd_statistic(batch, kappa)
    whole_omnibus = omnibus_statistic(batch, kappa)
    for i, row in enumerate(PANEL):
        assert whole_rd[i] == rd_statistic(pair(*row[:4]), kappa)
        assert whole_omnibus[i] == omnibus_statistic(pair(*row[:4]), kappa)


def test_gail_simon_matches_size_one_calls(batch):
    whole = gail_simon_test(batch, ALPHA)
    for i, row in enumerate(PANEL):
        single = gail_simon_test(pair(*row[:4]), ALPHA)
        assert whole[i] == single
        assert whole[i].components == single.components


def test_kappa_max_matches_size_one_calls(batch, bounds):
    for i, row in enumerate(PANEL):
        single = kappa_max(pair(*row[:4]), ALPHA)
        assert bounds[i] == single  # kappa_max, alpha and binding_root
        assert bounds[i].roots == single.roots
        assert single.kappa_max == bounds.kappa_max[i]


def test_kappa_max_stays_within_tolerance_of_previous_solver(bounds):
    for i, (*_, frozen, frozen_pi2) in enumerate(PANEL):
        assert abs(bounds.kappa_max[i] - frozen) <= 1e-6, PANEL[i]
        if frozen_pi2 is None:
            assert bounds.binding_root[i] == "none"
        elif math.isinf(frozen_pi2):
            assert math.isinf(bounds.roots[i, 1]), PANEL[i]
        else:
            assert abs(bounds.roots[i, 1] - frozen_pi2) <= 1e-6, PANEL[i]


def test_rd_test_rejects_exactly_below_kappa_max(bounds):
    for i, row in enumerate(PANEL):
        bound = bounds.kappa_max[i]
        if bound <= 1.001:
            continue
        assert rd_test(pair(*row[:4]), bound * (1 - 1e-5), ALPHA).rejected, row
        assert not rd_test(pair(*row[:4]), bound * (1 + 1e-5), ALPHA).rejected, row


def test_boundary_root_past_the_cap_is_finite_on_both_paths(bounds):
    z = float(ndtri(1.0 - ALPHA / 2.0))
    expected = 1e9 * math.sqrt((10.0 / z) ** 2 - 1.0)
    single = kappa_max(pair(*NEVER_REACHES_ALPHA), ALPHA)
    assert single.kappa_max == pytest.approx(expected, rel=1e-12)
    assert single.binding_root == "normal_boundary"
    assert single.roots == (single.kappa_max, math.inf)
    assert rd_test(pair(*NEVER_REACHES_ALPHA), expected * (1 - 1e-6), ALPHA).rejected
    assert not rd_test(pair(*NEVER_REACHES_ALPHA), expected * (1 + 1e-6), ALPHA).rejected
    rows = [row[:4] for row in PANEL[:5]] + [NEVER_REACHES_ALPHA]
    whole = kappa_max(PairBatch.from_rows(rows), ALPHA)
    assert whole[5] == single
    assert whole[5].roots == single.roots
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
    single = kappa_max(pair(*PANEL[0][:4]), ALPHA)
    assert single.kappa_max == bounds.kappa_max[0]
    tested = rd_test(pair(*PANEL[0][:4]), 2.0, ALPHA)
    assert (tested.p_value, tested.rejected) == (rd_test(batch, 2.0, ALPHA).p_value[0], True)
    assert not calls
    assert single.roots == tuple(bounds.roots[0])
    assert calls
    calls.clear()
    assert tested.p_value == max(tested.components.values())
    assert calls


def test_closed_form_matches_a_search_of_the_boundary_tail(batch, bounds):
    # the bracket-doubling Illinois search of the boundary tail that the
    # closed form replaced, as the reference
    rows = np.flatnonzero(bounds.binding_root != "none")
    a1, a2 = np.abs(batch.est1[rows]), np.abs(batch.est2[rows])
    first = a1 >= a2  # no ties among rows that reject
    big, small = np.where(first, a1, a2), np.where(first, a2, a1)
    v1, v2 = batch.se1[rows] ** 2, batch.se2[rows] ** 2
    v_big, v_small = np.where(first, v1, v2), np.where(first, v2, v1)

    def boundary_excess(kappa, sel):
        t = (big[sel] - kappa * small[sel]) / np.sqrt(v_big[sel] + kappa**2 * v_small[sel])
        return 2.0 * ndtr(-t) - ALPHA

    lo = 1.0 + 1e-9
    searched = first_crossing(
        boundary_excess, lo, boundary_excess(lo, np.arange(rows.size)), 2.0, 1e9, 1e-12
    )
    assert np.all(np.abs(bounds.kappa_max[rows] - searched) <= 1e-11 * searched)


# each kind of result: how it is computed, and the field it computes on read
LAZY_RUNS = {
    "rd": (lambda p: rd_test(p, 2.0, ALPHA), "components"),
    "omnibus": (lambda p: omnibus_test(p, 2.0, ALPHA), "components"),
    "gs": (lambda p: gail_simon_test(p, ALPHA), "components"),
    "kappa_max": (lambda p: kappa_max(p, ALPHA), "roots"),
}


def snapshot(result, lazy):
    """Every field of a result or batch, its lazy field read."""
    if lazy == "roots":
        roots = result.roots
        return {"kappa_max": result.kappa_max, "alpha": result.alpha,
                "binding_root": result.binding_root,
                "roots": None if roots is None else np.asarray(roots)}
    return {"statistic": result.statistic, "p_value": result.p_value,
            "rejected": result.rejected, "alpha": result.alpha, **result.components}


@pytest.mark.parametrize("kind", sorted(LAZY_RUNS))
def test_results_pickle_before_and_after_their_lazy_read(batch, kind):
    run, lazy = LAZY_RUNS[kind]
    # a rejecting row, a row that does not reject, and the whole panel
    for result in (run(pair(*PANEL[0][:4])), run(pair(*PANEL[2][:4])), run(batch)):
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
# first_crossing: doubling + safeguarded Illinois
# ---------------------------------------------------------------------------


def linear_rows(targets):
    targets = np.asarray(targets, dtype=float)
    return lambda x, rows: x - targets[rows]


def test_first_crossing_roots_and_cap():
    targets = [1.5, 3.7, 4.0, 1.25e8, 3e9]
    linear = linear_rows(targets)
    quantile = len(targets)  # one more row: Phi(x) = 0.975, by inverting ndtr

    def f(x, rows):
        x = np.broadcast_to(x, rows.shape)
        linear_values = linear(x, np.minimum(rows, quantile - 1))
        return np.where(rows == quantile, ndtr(x) - 0.975, linear_values)

    roots = first_crossing(f, 1.0, f(1.0, np.arange(quantile + 1)), 2.0, 1e9, tol=1e-9)
    assert roots[2] == 4.0  # a doubling point that is an exact root is returned as is
    assert math.isinf(roots[4])  # no crossing at any doubling point <= cap
    for got, want in zip(roots[:4], targets[:4]):
        assert abs(got - want) <= 1e-9 + 8 * np.finfo(float).eps * want
    assert roots[quantile] == pytest.approx(1.959964, abs=1e-6)


def test_first_crossing_rows_are_independent():
    targets = np.array([1.1, 2.9, 17.0, 5e5, 4e8])
    cubes = lambda x, rows: x**3 - targets[rows] ** 3
    lo_values = cubes(1.0, np.arange(targets.size))
    whole = first_crossing(cubes, 1.0, lo_values, 2.0, 1e9, tol=1e-9)
    for i in range(targets.size):
        single = first_crossing(
            lambda x, rows: cubes(x, np.array([i])[rows]), 1.0, lo_values[i:i + 1], 2.0, 1e9,
            tol=1e-9,
        )
        assert single[0] == whole[i]
        assert abs(whole[i] - targets[i]) <= 1e-9 * max(1.0, targets[i])


def test_first_crossing_stays_in_bracket_on_a_near_step():
    # regula falsi alone crawls on this function; the bisection fallback
    # bounds the work and every iterate stays inside the bracket
    root = 2.345678
    seen = []

    def steep(x, rows):
        x = np.broadcast_to(x, rows.shape)
        seen.extend(x.tolist())
        return np.arctan(1e8 * (x - root))

    got = first_crossing(steep, 1.0, steep(1.0, np.arange(1)), 2.0, 1e9, tol=1e-12)
    assert abs(got[0] - root) <= 1e-12 + 8 * np.finfo(float).eps * root
    iterates = seen[2:]  # after the start and the doubling points 2 and 4
    assert all(2.0 <= x <= 4.0 for x in iterates)
    assert len(seen) < 150


def test_coinciding_tails_report_pi_2_equal_to_pi_1():
    # se2 is so small that nu1 rounds to 1 and nu2 to -1, where the
    # zero-point tail equals the boundary tail; the pi_2 search then lands a
    # rounding error below the closed-form pi_1 on this row
    res = kappa_max(pair(3.0, 1.0, 1.0, 1e-8), ALPHA)
    assert res.roots == (res.kappa_max, res.kappa_max)
