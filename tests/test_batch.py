"""Batch/size-1 parity of the array-first core.

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
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from qualint import cli, distributions, inference
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
from qualint.simulation import SimulationConfig, run_rejection_study

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


# pairs whose boundary tail 2 Phi(-t) is subnormal at kappa_max for the alphas
# below; t moves enough per 1e-6 of kappa to cross a subnormal step even at
# 1e-320, whose half is 1012 steps of 2^-1074
SUBNORMAL_TAIL_PAIRS = [(100.0, 1.0, 0.1, 1.0), (100.0, 1.0, -20.0, 1.0),
                        (1e6, 1e4, 2e5, 3e3), (80.0, 1.0, 0.0, 1.0)]


@pytest.mark.parametrize("alpha", [5e-324, 1e-320, 1e-300])
def test_rd_test_and_kappa_max_agree_where_the_tail_is_subnormal(alpha):
    # ndtr rounded its Gaussian factor into the subnormal range before
    # multiplying it, so at alpha = 2^-1074 the tail read 0 just below t = z
    for row in SUBNORMAL_TAIL_PAIRS:
        bound = kappa_max(pair(*row), alpha)[0].kappa_max
        assert rd_test(pair(*row), bound * (1 - 1e-6), alpha)[0].rejected, row
        assert not rd_test(pair(*row), bound * (1 + 1e-6), alpha)[0].rejected, row


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
    with pytest.raises(ValueError, match="^PairBatch columns must be one-dimensional$"):
        PairBatch(np.ones((2, 2)), 0.5, 0.2, 0.3)


# kappa up to 2**600: past 2**510 a contrast's variance can fall below the
# normal range, which _variance marks low and roots by hypot
DRAWN_KAPPAS = st.one_of(
    st.sampled_from([1.5, 2.0, 4.0, 2.0**511, 2.0**600]),
    st.floats(1.0, 2.0**600, exclude_min=True),
)
MAGNITUDES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1e6))
STANDARD_ERRORS = st.one_of(
    st.floats(1e-300, 1e-298, exclude_min=True),  # near the floor of the input rule
    st.floats(1e-3, 1e3),
)


@st.composite
def edge_rows(draw, kappas):
    """Pair rows with ties, zero estimates, rows on a region edge (one
    estimate kappa times the other, for a drawn kappa), standard errors near
    1e-300, and standard errors 2**-600 apart for the low-variance path."""
    est1 = draw(st.sampled_from([-1.0, 1.0])) * draw(MAGNITUDES)
    kind = draw(st.sampled_from(["free", "tie", "edge", "far"]))
    if kind == "free":
        est2 = draw(st.sampled_from([-1.0, 1.0])) * draw(MAGNITUDES)
    else:
        factor = {"tie": 1.0, "edge": draw(st.sampled_from(kappas)), "far": 1.0}[kind]
        est2 = draw(st.sampled_from([-1.0, 1.0])) * est1 * factor
    se1, se2 = draw(STANDARD_ERRORS), draw(STANDARD_ERRORS)
    if kind == "far":
        se2 = se1 * 2.0**-600 if se1 * 2.0**-600 > 1e-300 else se1
    return est1, se1, est2, se2


@st.composite
def kappa_cases(draw):
    kappas = draw(st.lists(DRAWN_KAPPAS, min_size=1, max_size=4))
    rows = draw(st.lists(edge_rows(kappas), min_size=1, max_size=8))
    return rows, kappas, draw(st.sampled_from([5e-324, 1e-10, 0.05, 0.6]))


def four_cone_region(x1, x2, m, s):
    """The omnibus alternative region as four cones, each compared in the
    kappa-scaled products: the reference for the contrasts' signs."""
    s1, s2 = x1 * s, x2 * s
    k1, k2 = m * x1, m * x2
    return (
        ((s1 > k2) & (x1 > 0.0))
        | ((-s1 > -k2) & (x1 < 0.0))
        | ((s2 > k1) & (x2 > 0.0))
        | ((-s2 > -k1) & (x2 < 0.0))
    )


@given(kappa_cases())
@example(([(1.0, 1.0, 1e-200, 2.0**-600), (0.0, 0.5, 0.0, 1e-299), (3.0, 0.1, -3.0, 0.2),
           (2.0**600, 1.0, 1.0, 2.0**-600)], [2.0**600, 2.0**511, 1.5], 0.05))
def test_region_is_four_cones_and_context_p_values_are_rd_tests(case):
    # the region read off the contrasts' signs is the four cones, edge rows included
    rows, kappas, alpha = case
    batch = PairBatch.from_rows(rows)
    for kappa in kappas:
        m, s = inference._kappa_split(kappa)
        region = inference._omnibus_stat(batch.scaled, m, s)[1]
        assert region.tolist() == four_cone_region(batch.scaled.x1, batch.scaled.x2, m, s).tolist()
    # kappa-max tests its context kappas one at a time: each column keeps the
    # bits of its rd_test call
    context = cli._context_p_values(batch, alpha)
    assert list(context) == [f"{kappa:.10g}" for kappa in cli._CONTEXT_KAPPAS]
    for kappa, got in zip(cli._CONTEXT_KAPPAS, context.values()):
        want = cli._g10s(rd_test(batch, kappa, alpha).p_value)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.text.tolist() == want.text.tolist()


# ---------------------------------------------------------------------------
# memory of a pass: numpy reports its buffers to tracemalloc
# ---------------------------------------------------------------------------

MEMORY_ROWS = 100_000


def traced_peak(call) -> int:
    """The most bytes traced at once while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ndtr_holds_a_few_arrays_of_its_input():
    # Horner's rule gathers one power's coefficients at a time; a table of
    # every power's coefficients would be 14 x 8 bytes a value on its own
    x = np.random.default_rng(3).normal(0.0, 10.0, MEMORY_ROWS)
    assert traced_peak(lambda: distributions.ndtr(x)) <= 100 * MEMORY_ROWS


def memory_batch() -> PairBatch:
    rng = np.random.default_rng(4)
    return PairBatch(rng.normal(size=MEMORY_ROWS), rng.uniform(0.1, 1.0, MEMORY_ROWS),
                     rng.normal(size=MEMORY_ROWS), rng.uniform(0.1, 1.0, MEMORY_ROWS))


def test_rd_test_holds_a_few_arrays_of_its_rows():
    batch = memory_batch()
    assert traced_peak(lambda: rd_test(batch, 2.0, 0.05).p_value) <= 120 * MEMORY_ROWS


def test_kept_kappa_max_holds_its_bounds_alone():
    # binding_root is read off kappa_max when read; the labels stored as a
    # <U15 column beside the bounds held 68 B a row
    batch = memory_batch()
    tracemalloc.start()
    try:
        kept = kappa_max(batch, 0.05)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16 * MEMORY_ROWS
    assert len(kept) == MEMORY_ROWS


def test_context_p_values_hold_one_kappas_rows_at_a_time():
    # the three context kappas are tested one after another: the rows tiled
    # once per kappa held three times one pass's temporaries (402 B a row,
    # against 196 B with the three formatted columns kept)
    batch = memory_batch()
    assert traced_peak(lambda: cli._context_p_values(batch, 0.05)) <= 250 * MEMORY_ROWS


def test_study_holds_one_kappas_rows_at_a_time():
    # each kappa is tested in turn: the batch's rows tiled once per kappa
    # held 1,588 B a replicate at four kappas, against 702 B at any count
    config = SimulationConfig(theta1=0.5, theta2_grid=np.linspace(-1.0, 1.0, 21), n=3,
                              replications=2000, kappas=(2.0, 4.0, 8.0, 16.0), alpha=0.05, seed=1)
    replicates = len(config.theta2_grid) * config.replications
    assert traced_peak(lambda: run_rejection_study(config)) <= 800 * replicates


def test_json_table_holds_one_chunk_of_rows_at_a_time():
    # network-shaped rows written as JSON to a sink that keeps nothing: one
    # dict per row and the whole payload handed to json.dump held 504 B a row
    rng = np.random.default_rng(5)
    labels = np.array([f"g{j}" for j in range(1000)], dtype=object)
    a, b = rng.integers(0, 1000, (2, MEMORY_ROWS))
    r1, r2, statistic = rng.uniform(-1.0, 1.0, (3, MEMORY_ROWS))
    p_raw = cli._g10s(rng.uniform(0.0, 1.0, MEMORY_ROWS))
    edges = (labels[a], labels[b], r1, r2, statistic, p_raw, cli._bonferroni(p_raw, "bonferroni"),
             rng.integers(0, 3, MEMORY_ROWS))
    fieldnames = ("feature_a", "feature_b", "r1", "r2", "statistic", "p_raw", "p_adjusted",
                  "stronger_group")
    order = rng.permutation(MEMORY_ROWS)
    sink = types.SimpleNamespace(write=len)  # counts each text and keeps nothing

    def write():
        cli._write_table(sink, "json", fieldnames, edges, order, summary={"tested": MEMORY_ROWS})

    with mock.patch.object(cli, "_WRITE_ROWS", 4096):
        assert traced_peak(write) <= 250 * MEMORY_ROWS


@pytest.mark.parametrize(("quote", "bad"), [("", 1), ('"', 1), ("", 0)],
                         ids=["unquoted-ids", "quoted-ids", "clean"])
def test_pair_file_with_one_bad_cell_reads_in_bounded_memory(tmp_path, capsys, quote, bad):
    # one NA cell sends every row past np.loadtxt to the float() pass; each
    # row held as its list of cells until all had converted peaked at 921 B
    # a row.  Quoted ids (as R's write.csv writes them) keep np.loadtxt off
    # the whole file; the records read from a copy of the text in io.StringIO
    # peaked at 666 B a row.  The clean file, read by np.loadtxt, peaked at
    # 324 B a row while its text was held through loadtxt for a character test
    rng = np.random.default_rng(30)
    values = rng.uniform(0.05, 3.0, (MEMORY_ROWS, 4)).tolist()
    lines = [f"{quote}p{i}{quote}," + ",".join(map(repr, row)) for i, row in enumerate(values)]
    if bad:
        lines[MEMORY_ROWS // 2] = lines[MEMORY_ROWS // 2].rpartition(",")[0] + ",NA"
    path = tmp_path / "pairs.csv"
    path.write_text("id,est1,se1,est2,se2\n" + "\n".join(lines) + "\n", encoding="utf-8")
    ids = []
    assert traced_peak(lambda: ids.extend(cli._read_pairs(str(path), strict=False)[0])) \
        <= 300 * MEMORY_ROWS
    assert len(ids) == MEMORY_ROWS - bad
    assert capsys.readouterr().err.count("warning: skipping") == bad
