"""Each shared lemma check in ``verify`` reports a planted fault: a case's
check passes on its fixture, then fails once one function that it calls
through ``verify`` is monkeypatched to return a slightly wrong answer."""

from dataclasses import replace

import numpy as np
import pytest

from advice_csp import verify
from advice_csp.advice import gen_label_advice
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.maxcut import BENCH_PARAMS, compute_deltas, split_vertices
from advice_csp.twolin_sdp import UnitEmbedding

PM1 = np.random.default_rng(0).choice([-1, 1], size=(32, 9)).astype(np.int8)
rng = np.random.default_rng


def witness():
    plant = plant_bipartite_regular(256, 32, 0.0, seed=5)
    graph, advice = plant.instance, gen_label_advice(plant.x_star, 0.4, seed=3)
    split = split_vertices(compute_deltas(graph, advice), 32, graph.n, BENCH_PARAMS)
    lp = verify.build_lp(graph, split, 32, 0.4, BENCH_PARAMS)
    return verify.witness_check(graph, split, lp, plant.x_star)


def rounding():
    hom, _ = verify.homogenize(verify.random_2lin(rng(6), 20, 60))
    emb = verify.solve_relaxation(hom, rank=4, sweeps=40, seed=7)
    return verify.rounding_dominance_failures(hom, emb, trials=16, seed=8)


def counting():
    plant = plant_klin(20, 3, 1500, 0.1, seed=12)
    advice = gen_label_advice(plant.x_star, 0.8, seed=13)
    return sum(verify.reduction_counting_failures(
        plant.instance, verify.build_psi(plant.instance, advice, 0.1, 0.8)))


def lift_map():
    phi = plant_klin(9, 3, 25, 0.4, seed=4).instance
    return sum(sum(verify.lift_map_failures(phi, 3, x, np.append(x, [1, -1, 1]))) for x in PM1)


def with_columns(inst, **columns):
    columns = {"idx": inst.idx, "rhs": inst.rhs, "w": inst.w, **columns}
    return KLinInstance(inst.k, inst.n, **columns)


def drop_last_row(r):
    psi = with_columns(r.psi, idx=r.psi.idx[:-1], rhs=r.psi.rhs[:-1], w=r.psi.w[:-1])
    return replace(r, psi=psi, source=r.source[:-1], flagged=r.flagged[:-1])


UNARY = KLinInstance.from_constraints(2, 4, (((0,), 1, 2.0), ((1,), -1, 0.5), ((2, 3), 1, 1.0)))

# id: (check, the name in verify to patch, the wrong version of the real function f)
CASES = {
    "negation, rhs ignored": (
        lambda: verify.negation_failures(plant_klin(9, 3, 20, 0.3, seed=5).instance, PM1),
        "satisfied_mask", lambda f: lambda inst, x: f(with_columns(inst, rhs=np.ones(inst.m)), x)),
    "identity, weights nudged by 1e-6": (
        lambda: verify.identity_failures(verify.random_2lin(rng(1), 9, 20), PM1),
        "to_quadratic_matrix", lambda f: lambda inst: f(with_columns(inst, w=inst.w + 1e-6))),
    "concavity, convex term added": (
        lambda: verify.concavity_failures(rng(2), 20, 8), "advice_objective",
        lambda f: lambda A, x, y, eps: f(A, x, y, eps) + 10.0 * float(np.square(x).sum())),
    "form dominance, l1 penalty dropped": (
        lambda: verify.form_dominance_failures(rng(3), 20, 8), "advice_objective",
        lambda f: lambda A, x, y, eps: float(np.asarray(x) @ A.a @ np.asarray(y))),
    "grid sandwich, origin returned": (
        lambda: verify.grid_sandwich_failures(rng(5), 2), "maximize_concave",
        lambda f: lambda A, y, eps: np.zeros(A.n)),
    "witness rows, each band cut to its lower end": (
        lambda: witness()[0], "build_lp",
        lambda f: lambda *args: replace(f(*args), row_hi=f(*args).row_lo)),
    "witness value, LP value 1 low": (
        lambda: witness()[1], "solve_lp",
        lambda f: lambda lp: replace(f(lp), value=f(lp).value - 1.0)),
    "ascent, last vector negated": (
        lambda: verify.ascent_decreases(verify.random_2lin(rng(2), 10, 25), 4, 3, 15),
        "solve_relaxation", lambda f: lambda *args, **kw: UnitEmbedding(
            f(*args, **kw).vectors * np.append(np.ones(9), -1.0)[:, None])),
    "dehomogenization, reference sign ignored": (
        lambda: verify.dehomogenization_failures(UNARY, PM1[:, :5]), "dehomogenize",
        lambda f: lambda x, ref: np.delete(x, ref)),
    "rounding, first trial kept": (
        rounding, "hyperplane_round",
        lambda f: lambda hom, emb, trials, seed: f(hom, emb, trials=1, seed=seed)),
    "counting, last representative dropped": (
        counting, "build_psi", lambda f: lambda *args: drop_last_row(f(*args))),
    "lift map, last new variable -1": (
        lift_map, "lift_assignment", lambda f: lambda sigma, t: np.append(f(sigma, t)[:-1], -1)),
}


@pytest.mark.parametrize("check, name, fault", CASES.values(), ids=CASES)
def test_check_reports_planted_fault(monkeypatch, check, name, fault):
    assert check() == 0
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    assert check() >= 1
