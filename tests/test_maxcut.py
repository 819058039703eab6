import math

import numpy as np
import pytest

from advice_csp.advice import LabelAdvice, gen_label_advice
from advice_csp.errors import InputError
from advice_csp.instances import GraphInstance, cut_value, plant_bipartite_regular
from advice_csp.lp import LinearProgram, _expand_rows, solve_lp
from advice_csp.maxcut import (
    BENCH_PARAMS,
    MaxCutParams,
    build_lp,
    compute_deltas,
    round_lp,
    solve_maxcut_with_advice,
    split_at_threshold,
    split_vertices,
)
from advice_csp.verify import sides_inside_plant, witness_check

A1_PLANT = plant_bipartite_regular(256, 32, 0.0, seed=5)

# name -> (n, d, gamma, plant seed, advice epsilon, advice seed) of a balance
# LP: the A1 shape (no row can bind), and the golden kept-rows shape (61 can)
LP_CASES = {
    **{f"a1-seed{s}": (1024, 64, 0.0, s, 0.3, (s, 1)) for s in (1, 2, 3)},
    "kept-rows": (1024, 128, 0.37, 1, 0.9, (1, 1)),
}


def lp_case(n, d, gamma, seed, eps, advice_seed):
    plant = plant_bipartite_regular(n, d, gamma, seed=seed)
    advice = gen_label_advice(plant.x_star, eps, seed=advice_seed)
    split = split_vertices(compute_deltas(plant.instance, advice), d, n, BENCH_PARAMS)
    return plant, split


def dense_balance_lp(graph, split, epsilon, params):
    """The balance LP with one ranged row per undecided vertex, a dense
    (|Q|, |Q|) neighbour matrix: the reference for ``build_lp``'s rows."""
    d = graph.regular_degree
    q = split.undecided
    nq = q.shape[0]
    pos_in_q = -np.ones(graph.n, dtype=np.int64)
    pos_in_q[q] = np.arange(nq)
    d_s, d_t = graph.neighbour_sums(split.side == 1), graph.neighbour_sums(split.side == -1)
    delta = params.slack(d, graph.n, epsilon)
    rows = np.zeros((nq, nq), dtype=np.float64)
    u, v = graph.edges.T
    uq, vq = pos_in_q[u], pos_in_q[v]
    both = (uq >= 0) & (vq >= 0)
    np.add.at(rows, (uq[both], vq[both]), 1.0)
    np.add.at(rows, (vq[both], uq[both]), 1.0)
    return LinearProgram(
        c=(d_t[q] - d_s[q]).astype(np.float64),
        rows=rows,
        row_lo=d / 2 - delta - d_s[q],
        row_hi=d / 2 + delta - d_s[q],
        lo=np.zeros(nq),
        hi=np.ones(nq),
        offset=float(d_s[q].sum()),
    )


class TestDeltas:
    def test_star_neighborhood(self):
        # Center vertex 0 sees labels (+1, +1, -1, +1).
        graph = GraphInstance(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
        adv = LabelAdvice(values=np.array([1, 1, 1, -1, 1], dtype=np.int8), epsilon=0.5)
        assert compute_deltas(graph, adv)[0] == 2

    def test_isolated_vertex(self):
        graph = GraphInstance(n=3, edges=((0, 1),))
        adv = LabelAdvice(values=np.ones(3, dtype=np.int8), epsilon=0.5)
        assert compute_deltas(graph, adv)[2] == 0

    def test_length_mismatch(self):
        graph = GraphInstance(n=3, edges=((0, 1),))
        adv = LabelAdvice(values=np.ones(2, dtype=np.int8), epsilon=0.5)
        with pytest.raises(InputError):
            compute_deltas(graph, adv)

    def test_mean_matches_bias_times_imbalance(self):
        # Monte Carlo around the planted cut: E[Delta_i] = eps * Delta*_i,
        # where Delta*_i = |E(i, S*)| - |E(i, T*)|.
        plant = plant_bipartite_regular(64, 8, 0.0, seed=2)
        graph = plant.instance
        eps, draws = 0.5, 4000
        acc = np.zeros(graph.n)
        for s in range(draws):
            acc += compute_deltas(graph, gen_label_advice(plant.x_star, eps, seed=s))
        star_sign = plant.x_star.astype(np.float64)
        delta_star = np.zeros(graph.n)
        u, v = graph.edges.T
        np.add.at(delta_star, u, star_sign[v])
        np.add.at(delta_star, v, star_sign[u])
        # 3 sigma on the mean of sums of 8 labels
        band = 3 * math.sqrt(8 / draws)
        assert np.max(np.abs(acc / draws - eps * delta_star)) <= band


class TestSplit:
    def test_small_graph_all_undecided(self):
        # Paper-default threshold 20 * sqrt(2 ln 4) = 33.3 dwarfs any score.
        graph = GraphInstance(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        adv = LabelAdvice(values=np.ones(4, dtype=np.int8), epsilon=0.5)
        split = split_vertices(compute_deltas(graph, adv), 2, 4, MaxCutParams())
        assert split.undecided.size == 4
        assert not split.side.any()

    def test_synthetic_scores(self):
        split = split_at_threshold(np.array([40, -40, 0]), 33.3)
        assert list(split.side) == [-1, 1, 0]
        assert list(split.undecided) == [2]

    def test_boundary_is_committed(self):
        split = split_at_threshold(np.array([40, -40, 39]), 40.0)
        assert list(split.side) == [-1, 1, 0]
        assert list(split.undecided) == [2]

    def test_zero_score_goes_to_s_side(self):
        split = split_at_threshold(np.array([0, 5]), 0.0)
        assert list(split.side) == [1, -1]


class TestBuildLp:
    def test_empty_pool(self):
        plant = plant_bipartite_regular(16, 3, 0.0, seed=1)
        adv = LabelAdvice(values=plant.x_star, epsilon=1.0)
        deltas = compute_deltas(plant.instance, adv)
        split = split_at_threshold(deltas, 0.5)  # everything committed
        lp = build_lp(plant.instance, split, 1.0, BENCH_PARAMS)
        assert lp.p == 0
        out = solve_lp(lp)
        assert out.is_optimal and out.value == 0.0

    def test_planted_witness_feasible_and_bounding(self):
        for case, kept in (((256, 32, 0.0, 5, 0.4, 3), 0), (LP_CASES["kept-rows"], 61)):
            plant, split = lp_case(*case)
            graph, eps = plant.instance, case[4]
            lp = build_lp(graph, split, eps, BENCH_PARAMS)
            ref = dense_balance_lp(graph, split, eps, BENCH_PARAMS)
            # A reference row is dropped exactly when it holds at both box
            # extremes, theta = 0 (value 0) and theta = 1 (its row sum).
            holds = (ref.row_lo <= 0.0) & (ref.rows.sum(axis=1) <= ref.row_hi)
            assert np.count_nonzero(~holds) == kept
            assert np.array_equal(lp.rows, ref.rows[~holds])
            assert np.array_equal(lp.row_lo, ref.row_lo[~holds])
            assert np.array_equal(lp.row_hi, ref.row_hi[~holds])
            assert witness_check(graph, split, lp, plant.x_star) == (0, 0)

    def test_irregular_rejected(self):
        graph = GraphInstance(n=3, edges=((0, 1), (1, 2)))
        adv = LabelAdvice(values=np.ones(3, dtype=np.int8), epsilon=0.5)
        split = split_at_threshold(compute_deltas(graph, adv), 100.0)
        with pytest.raises(InputError):
            build_lp(graph, split, 0.5, BENCH_PARAMS)


def assert_same_lp(lp, ref):
    """The LP and the dense reference give byte-equal inequalities and the same solve."""
    for field in ("c", "lo", "hi", "offset"):
        assert np.asarray(getattr(lp, field)).tobytes() == np.asarray(getattr(ref, field)).tobytes()
    got, want = _expand_rows(lp), _expand_rows(ref)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    a, b = solve_lp(lp), solve_lp(ref)
    assert (a.status, a.value, a.pivots, a.phase1_used) == (
        b.status, b.value, b.pivots, b.phase1_used)
    assert (a.x is None and b.x is None) or a.x.tobytes() == b.x.tobytes()
    return a


@pytest.mark.parametrize("name", LP_CASES)
def test_lp_matches_dense_reference(name):
    plant, split = lp_case(*LP_CASES[name])
    eps = LP_CASES[name][4]
    lp = build_lp(plant.instance, split, eps, BENCH_PARAMS)
    d_s, d_t = (plant.instance.neighbour_sums(split.side == side) for side in (1, -1))
    given = build_lp(plant.instance, split, eps, BENCH_PARAMS, side_degrees=(d_s, d_t))
    assert all(np.array_equal(getattr(given, f), getattr(lp, f)) for f in ("rows", "row_lo", "row_hi"))
    assert_same_lp(lp, dense_balance_lp(plant.instance, split, eps, BENCH_PARAMS))


def test_lp_matches_dense_reference_on_random_splits():
    # random sides and slacks on a small graph: rows kept for their lower end,
    # for their upper end, dropped, and infeasible programs
    graph = plant_bipartite_regular(64, 12, 0.5, seed=3).instance
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(60):
        split = split_at_threshold(rng.integers(-3, 4, size=64), 2)
        params = MaxCutParams(1.0, float(rng.uniform(0.01, 0.6)))
        lp = build_lp(graph, split, 0.5, params)
        out = assert_same_lp(lp, dense_balance_lp(graph, split, 0.5, params))
        seen.add(out.status)
        if np.any(lp.row_lo > 0):
            seen.add("lower")
        if np.any(lp.rows.sum(axis=1) > lp.row_hi):
            seen.add("upper")
        if 0 < len(lp.rows) < split.undecided.size:
            seen.add("dropped")
    assert seen == {"optimal", "infeasible", "lower", "upper", "dropped"}


class TestRoundLp:
    def test_degenerate_probabilities(self):
        y = round_lp(np.array([1.0, 0.0, 1.0]), seed=0)
        assert list(y) == [1, 0, 1]

    def test_band_at_half(self):
        y = round_lp(np.full(10_000, 0.5), seed=1)
        assert abs(float(np.mean(y)) - 0.5) <= 0.015

    def test_out_of_range_rejected(self):
        for theta in ([1.1], [math.nan, 0.5]):
            with pytest.raises(InputError):
                round_lp(np.array(theta), seed=0)


class TestPipeline:
    def test_four_cycle_paper_defaults(self):
        graph = GraphInstance(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        adv = LabelAdvice(values=np.array([1, -1, 1, -1], dtype=np.int8), epsilon=1.0)
        res = solve_maxcut_with_advice(graph, adv, MaxCutParams(), seed=0)
        assert res.cut_weight >= 0
        assert res.cut_weight == cut_value(graph, res.assignment)

    def test_partition_validity_and_identity(self):
        plant = A1_PLANT
        for s in range(5):
            adv = gen_label_advice(plant.x_star, 0.3, seed=(1, s))
            res = solve_maxcut_with_advice(plant.instance, adv, BENCH_PARAMS, seed=(2, s))
            assert res.cut_weight == cut_value(plant.instance, res.assignment)
            d = res.diagnostics
            assert 2 * d.q_cut_direct == d.q_cut_identity_twice
            assert d.f_y == d.f_y_recount

    def test_planted_recovery(self):
        plant = A1_PLANT
        hits = 0
        for s in range(10):
            adv = gen_label_advice(plant.x_star, 0.3, seed=(3, s))
            res = solve_maxcut_with_advice(plant.instance, adv, BENCH_PARAMS, seed=(4, s))
            hits += res.cut_weight >= 0.95 * plant.planted_value
        assert hits >= 9

    def test_containment_on_plant(self):
        plant = A1_PLANT
        good = 0
        for s in range(50):
            adv = gen_label_advice(plant.x_star, 0.3, seed=(5, s))
            deltas = compute_deltas(plant.instance, adv)
            split = split_vertices(deltas, 32, plant.instance.n, BENCH_PARAMS)
            good += sides_inside_plant(split, plant.x_star)
        assert good >= 49

    def test_degenerate_uniform_path(self):
        plant = A1_PLANT
        adv = gen_label_advice(plant.x_star, 0.3, seed=6)
        res = solve_maxcut_with_advice(plant.instance, adv, MaxCutParams(), seed=7)
        assert res.diagnostics.lp_status == "degenerate-uniform"
        assert res.cut_weight >= 0.4 * len(plant.instance.edges)
        assert not res.diagnostics.fallback

    def test_empty_undecided_pool(self):
        # Exact advice commits every vertex, so no LP is built.
        plant = plant_bipartite_regular(128, 8, 0.0, seed=1)
        adv = LabelAdvice(values=plant.x_star, epsilon=1.0)
        res = solve_maxcut_with_advice(plant.instance, adv, BENCH_PARAMS, seed=2)
        d = res.diagnostics
        assert (d.committed, d.undecided) == (128, 0)
        assert (d.lp_status, d.lp_value, d.fallback) == ("optimal", 0.0, False)
        assert res.cut_weight == len(plant.instance.edges) == 512

    def test_irregular_graph_rejected(self):
        graph = GraphInstance(n=3, edges=((0, 1), (1, 2)))
        adv = LabelAdvice(values=np.ones(3, dtype=np.int8), epsilon=0.5)
        with pytest.raises(InputError):
            solve_maxcut_with_advice(graph, adv, BENCH_PARAMS, seed=0)

    def test_deterministic_given_seeds(self):
        plant = A1_PLANT
        adv = gen_label_advice(plant.x_star, 0.3, seed=8)
        a = solve_maxcut_with_advice(plant.instance, adv, BENCH_PARAMS, seed=9)
        b = solve_maxcut_with_advice(plant.instance, adv, BENCH_PARAMS, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.cut_weight == b.cut_weight


def test_params_validation():
    for c1, c2 in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                   (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(InputError):
            MaxCutParams(c1, c2)
    p = MaxCutParams(1.0, 1.5)
    assert p.threshold(64, 1024) == pytest.approx(math.sqrt(64 * math.log(1024)))
    assert p.slack(64, 1024, 0.3) == pytest.approx(1.5 * math.sqrt(64 * math.log(1024)) / 0.3)
