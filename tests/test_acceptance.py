"""Acceptance gate: one test per criterion A1..A10, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Statistical criteria use fixed seeds, so the suite is
deterministic end to end.
"""

import math
import time

import numpy as np
import pytest

from advice_csp.advice import LabelAdvice, gen_label_advice
from advice_csp.enumeration import enumerate_solve, projected_runs, qp_subset_inner
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.max3lin import build_psi, solve_max3lin_with_advice
from advice_csp.maxcut import (
    MaxCutParams,
    compute_deltas,
    solve_maxcut_with_advice,
    split_vertices,
)
from advice_csp.qp_advice import solve_qp_with_advice
from advice_csp.verify import (
    binomial_band,
    brute_force_best,
    heavy_vote_errors,
    light_vote_errors,
    lp_oracle_disagreements,
    qp_ceiling_violations,
    rank_one_qp,
    reduction_map_failures,
    rounding_decreases,
    sides_inside_plant,
)

BENCH = MaxCutParams(1.0, 1.5)
PAPER = MaxCutParams(20.0, 30.0)


def report(line):
    print(line, flush=True)


@pytest.fixture(scope="module")
def a1_plants():
    return {s: plant_bipartite_regular(1024, 64, 0.0, seed=s) for s in range(10)}


def test_a1_maxcut_pipeline(a1_plants):
    # Planted gamma=0, n=1024, d=64, eps=0.3, coefficients (1, 1.5):
    # cut >= 0.95 * nd/2 in >= 9/10 seeds, under 60 s per seed.
    target = 0.95 * (1024 * 64 / 2)
    hits = 0
    worst_time = 0.0
    for s in range(10):
        t0 = time.monotonic()
        plant = a1_plants[s]
        advice = gen_label_advice(plant.x_star, 0.3, seed=(s, 1))
        res = solve_maxcut_with_advice(plant.instance, advice, BENCH, seed=(s, 2))
        worst_time = max(worst_time, time.monotonic() - t0)
        hits += res.cut_weight >= target
    assert hits >= 9, f"only {hits}/10 seeds reached {target}"
    assert worst_time < 60.0
    # Paper-default coefficients: valid partition, cut >= 0.40 |E|, all seeds.
    degenerate_ok = 0
    for s in range(10):
        plant = a1_plants[s]
        advice = gen_label_advice(plant.x_star, 0.3, seed=(s, 1))
        res = solve_maxcut_with_advice(plant.instance, advice, PAPER, seed=(s, 2))
        valid = res.side_s.size + res.side_t.size == 1024
        degenerate_ok += valid and res.cut_weight >= 0.40 * len(plant.instance.edges)
    assert degenerate_ok == 10
    report(f"A1 PASS: {hits}/10 seeds >= {target}, paper defaults {degenerate_ok}/10 "
           f">= 0.40|E|, worst seed {worst_time:.1f}s")


def test_a2_quadratic_form_bound():
    # Planted rank-one matrix, n=200, eps=0.5, 50 draws: mean recovered
    # value >= n(n-1) - sqrt(n) ||A||_F / eps, under 120 s total.
    rng = np.random.default_rng(2024)
    n, eps, draws = 200, 0.5, 50
    A, xs = rank_one_qp(rng, n)
    floor = n * (n - 1) - math.sqrt(n) * A.frobenius / eps
    t0 = time.monotonic()
    values = []
    for s in range(draws):
        advice = gen_label_advice(xs, eps, seed=(2, s))
        _, value = solve_qp_with_advice(A, advice)
        values.append(value)
    elapsed = time.monotonic() - t0
    mean_value = float(np.mean(values))
    assert mean_value >= floor, f"mean {mean_value} below floor {floor}"
    assert elapsed < 120.0
    # Exhaustive ceiling on 100 random matrices with n <= 12.
    assert qp_ceiling_violations(rng, 100, 13) == 0
    # Rounding monotonicity on 500 random fractional points.
    assert rounding_decreases(rng, 500, 2, 21) == 0
    report(f"A2 PASS: mean {mean_value:.0f} >= {floor:.0f} ({elapsed:.0f}s), "
           f"ceiling 100/100, monotone 500/500")


def test_a3_max3lin_pipeline():
    # n=2000, delta=0.05, eps=0.9, m=225400, threshold t=30:
    # fraction >= 0.85 in >= 9/10 seeds, under 10 min per seed.
    hits = 0
    worst_time = 0.0
    for s in range(10):
        t0 = time.monotonic()
        plant = plant_klin(2000, 3, 225400, 0.05, seed=(3, s))
        advice = gen_label_advice(plant.x_star, 0.9, seed=(3, s, 1))
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.05,
                                        epsilon=0.9, seed=(3, s, 2))
        worst_time = max(worst_time, time.monotonic() - t0)
        assert res.diagnostics.threshold == 30
        hits += res.satisfied_fraction >= 0.85
    assert hits >= 9, f"only {hits}/10 seeds reached 0.85"
    assert worst_time < 600.0
    # Noiseless plant at n=60 with exact advice solves exactly.
    exact_hits = 0
    for s in range(10):
        plant = plant_klin(60, 3, 3600, 0.0, seed=(33, s))
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.01, seed=(34, s))
        exact_hits += res.satisfied_fraction == 1.0
    assert exact_hits >= 9
    report(f"A3 PASS: {hits}/10 seeds >= 0.85 (worst {worst_time:.0f}s), "
           f"noiseless {exact_hits}/10 exact")


def test_a4_heavy_vote_recovery():
    # Over >= 1000 heavy pairs with per-pair violation < 25 percent, the
    # vote error rate stays within exp(-eps^2 t / 8) plus 3 sigma.
    eps, delta = 0.6, 0.05
    errors = total = 0
    for s in range(2):
        plant = plant_klin(50, 3, 36000, 0.05, seed=(4, s))
        advice = gen_label_advice(plant.x_star, eps, seed=(4, s, 1))
        reduced = build_psi(plant.instance, advice, delta, eps)
        # both seeds share the threshold, so they share the bound
        seed_errors, seed_total, bound = heavy_vote_errors(
            plant.instance, plant.x_star, reduced, eps)
        errors += seed_errors
        total += seed_total
    assert total >= 1000, f"only {total} qualifying heavy pairs"
    margin = binomial_band(bound, total)
    assert errors / total <= bound + margin
    report(f"A4 PASS: {errors}/{total} heavy vote errors, bound {bound:.4f}+{margin:.4f}")


def test_a5_light_vote_recovery():
    # Over >= 1000 light variables, the vote error rate stays within
    # exp(-eps^4 |L_i| / (16 t)) plus 3 sigma.
    eps, delta = 0.95, 0.3
    plant = plant_klin(1000, 3, 80000, 0.05, seed=5)
    phi, x_star = plant.instance, plant.x_star
    advice = gen_label_advice(x_star, eps, seed=(5, 1))
    reduced = build_psi(phi, advice, delta, eps)
    errors, total, mean_bound = light_vote_errors(phi, x_star, reduced, eps)
    assert total >= 1000, f"only {total} light variables"
    margin = binomial_band(mean_bound, total)
    assert errors / total <= mean_bound + margin
    report(f"A5 PASS: {errors}/{total} light vote errors, bound {mean_bound:.4f}+{margin:.4f}")


def test_a6_committed_side_containment(a1_plants):
    # 100 advice draws on the A1 plant: committed sides inside the planted
    # sides in at least 99 draws.
    plant = a1_plants[0]
    d = plant.instance.regular_degree
    good = 0
    for s in range(100):
        advice = gen_label_advice(plant.x_star, 0.3, seed=(6, s))
        deltas = compute_deltas(plant.instance, advice)
        split = split_vertices(deltas, d, plant.instance.n, BENCH)
        good += sides_inside_plant(split, plant.x_star)
    assert good >= 99, f"containment held in only {good}/100 draws"
    report(f"A6 PASS: containment in {good}/100 draws")


def test_a7_delta_statistics():
    # Per-vertex mean of Delta_i over 10^4 draws stays within 0.5 of
    # bias * Delta*_i at d=64, where the bias of the advice model at
    # parameter eps is eps itself; the 4 sqrt(d ln n) uniform tail is
    # violated in at most 5 percent of draws.
    plant = plant_bipartite_regular(512, 64, 0.0, seed=7)
    graph = plant.instance
    n, d, eps, draws = graph.n, 64, 0.3, 10_000
    u, v = graph.edges.T
    delta_star = graph.neighbour_sums(plant.x_star)  # |E(i,S*)| - |E(i,T*)|
    adj = np.zeros((n, n), dtype=np.float32)
    adj[u, v] = 1.0
    adj[v, u] = 1.0
    rng = np.random.default_rng(777)
    center = eps * delta_star
    tail_limit = 4.0 * math.sqrt(d * math.log(n))
    acc = np.zeros(n)
    tail_violations = 0
    chunk = 1000
    for start in range(0, draws, chunk):
        flips = rng.random((chunk, n)) < (1 - eps) / 2
        labels = np.where(flips, -plant.x_star, plant.x_star).astype(np.float32)
        deltas = labels @ adj
        acc += deltas.sum(axis=0)
        tail_violations += int(np.count_nonzero(
            np.max(np.abs(deltas - center.astype(np.float32)), axis=1) > tail_limit))
    max_dev = float(np.max(np.abs(acc / draws - center)))
    assert max_dev <= 0.5, f"worst per-vertex mean deviation {max_dev}"
    assert tail_violations <= 0.05 * draws
    report(f"A7 PASS: worst mean deviation {max_dev:.3f} <= 0.5, "
           f"{tail_violations}/{draws} tail violations")


def test_a8_lp_against_vertex_oracle():
    # 200 random LPs with p <= 6: value within 1e-6 of the enumeration
    # oracle; identical outcomes on repeat solves.
    mismatches, nondet = lp_oracle_disagreements(np.random.default_rng(8), 200)
    assert mismatches == 0
    assert nondet == 0
    report("A8 PASS: 200/200 LPs match the vertex oracle, determinism 200/200")


def test_a9_enumeration_exactness():
    # n=10, eps=0.3 satisfiable 2-Lin: run count equals the projection,
    # the best value equals the brute-force optimum, under 5 minutes.
    cons = tuple(((i, (i + 1) % 10), 1, 1.0) for i in range(9))
    inst = KLinInstance.from_constraints(k=2, n=10, constraints=cons)
    t0 = time.monotonic()
    res = enumerate_solve(inst, 0.3, qp_subset_inner, seed=9)
    elapsed = time.monotonic() - t0
    projected = projected_runs(10, 0.3)
    best = brute_force_best(inst)
    assert res.runs == projected
    assert res.value == best
    assert elapsed < 300.0
    report(f"A9 PASS: {res.runs} runs == projection, value {res.value} == brute force, "
           f"{elapsed:.0f}s")


def test_a10_reduction_maps():
    # 100 random (phi, sigma, sigma', t <= 8): completeness equality and
    # soundness inequality with zero violations; counting identities exact.
    counting, complete, sound = reduction_map_failures(np.random.default_rng(10), 100)
    assert counting == 0
    assert complete == 0
    assert sound == 0
    report("A10 PASS: completeness 100/100, soundness 100/100, counting 100/100")
