"""Golden hashes: pinned seeds must give bit-identical answers.

Each case runs a small seeded pipeline and digests its int8 answer (and,
for the reduction, every column of the reduced instance) with sha256;
each Max-Cut case also pins the repr of its whole diagnostics record.
The digests were recorded before the constraint store became columnar
(the LP and enumeration digests before the LP went to matrix form, the
planted-graph digests while edges were still tuples), so a
refactor that changes any answer, vote, emission order, weight sum or
LP float on these seeds fails here.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from advice_csp import lp as lp_module
from advice_csp import maxcut, qp_advice
from advice_csp.advice import gen_label_advice, subset_to_label
from advice_csp.enumeration import enumerate_solve, qp_subset_inner
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.lp import solve_lp
from advice_csp.max3lin import build_psi, solve_max3lin_with_advice
from advice_csp.maxcut import MaxCutParams, solve_maxcut_with_advice
from advice_csp.qp_advice import solve_2lin_with_advice
from advice_csp.twolin_sdp import TwoLinConfig, solve_2lin
from advice_csp.verify import random_lp


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def answer(x) -> str:
    return digest(np.asarray(x, dtype=np.int8))


def planted_columns(plant) -> str:
    inst = plant.instance
    return digest(inst.idx, inst.rhs, inst.w, plant.x_star)


# name -> (n, m, plant noise, advice epsilon, delta, epsilon, seed)
MAX3LIN_CASES = {
    "max3lin-light": (300, 3000, 0.05, 0.9, 0.05, 0.9, 11),
    "max3lin-heavy": (40, 8000, 0.05, 0.9, 0.05, 0.9, 12),
    # weak advice and t = 6: both heavy and light votes sum to zero
    "max3lin-flagged": (24, 300, 0.1, 0.2, 0.5, 1.0, 16),
}


def max3lin_case(name):
    n, m, noise, adv_eps, delta, eps, seed = MAX3LIN_CASES[name]
    plant = plant_klin(n, 3, m, noise, seed=seed)
    advice = gen_label_advice(plant.x_star, adv_eps, seed=(seed, 1))
    res = solve_max3lin_with_advice(plant.instance, advice, delta, eps, seed=(seed, 2))
    reduced = build_psi(plant.instance, advice, delta, eps)
    return plant, res, reduced


def weighted_mixed(seed) -> KLinInstance:
    rng = np.random.default_rng(seed)
    n, cons = 25, []
    for _ in range(120):
        w = float(rng.random() + 0.1)
        if rng.random() < 0.3:
            cons.append(((int(rng.integers(n)),), int(rng.choice([-1, 1])), w))
        else:
            i, j = rng.choice(n, size=2, replace=False)
            cons.append(((int(i), int(j)), int(rng.choice([-1, 1])), w))
    return KLinInstance.from_constraints(2, n, cons)


GOLDEN = {
    "max3lin-flagged.plant": "629163e1e5ca72dac142835d8771c89691b35d72a3976ad66f1cf59e9d375d16",
    "max3lin-flagged.answer": "8dc86a4c4ad4c3d331c84fa8f7e8bb90f2aa9979e5cfe430ccc6bdbbb9b7cd7e",
    "max3lin-flagged.fraction": "0.5433333333333333",
    "max3lin-flagged.psi": "ab96663247ddae7d825cdeff7e0b47d9d97182983e5e52a50d307c65d1479c79",
    "max3lin-flagged.votes": "1c82b4b77799e827a11440d28d8a66ce2d203952f109a225ebfb3633dd4fba4c",
    "max3lin-heavy.plant": "60ae214a449f3879997189c2e92ddf566bf1abfbee8bb80158504c7265ff55ed",
    "max3lin-heavy.answer": "45952223ee1951478533feca993bb9bdcb7600328e4b5514ba89b687dd2acc67",
    "max3lin-heavy.fraction": "0.9505",
    "max3lin-heavy.psi": "6c82a89301fc8eefa4b200f68ff49d70dfac18560e00aed8f61112de4f970d8c",
    "max3lin-heavy.votes": "90a78a1d01e51eab2a1aebbe5233164ae6c0237caaa7af616e1a94febb8c4c9d",
    "max3lin-light.plant": "43b49f36e1ad81bc24f5bf0fb7ee5e9dc92cc0417b05c7ab5ab96e1f23e011ce",
    "max3lin-light.answer": "0b32d2233dd2483930932452e2407c695a53b250e0a5abfa4cdae097f5a488fc",
    "max3lin-light.fraction": "0.9486666666666667",
    "max3lin-light.psi": "6586a26545b59cc62aac74aac12aa618f0c31c15a9f59b881ade737a008f88e1",
    "max3lin-light.votes": "51ef6591a8c52aa2b2377fc263dd3c86888984d66b53d3a9dfa8568044715766",
    "maxcut.answer": "1acdc000b666b2c4e67543624a7c7a138b7a79a3f1ba40e52d13259e93ac5bf7",
    "maxcut.cut": "1128.0",
    "maxcut.diagnostics": "{'lp_status': 'optimal', 'lp_value': 143.0, 'f_y': 143.0, "
    "'f_y_recount': 143.0, 'balance_violations': 0, 'q_cut_direct': 1127, "
    "'q_cut_identity_twice': 2254, 'fallback': False, 'committed': 10, 'undecided': 246}",
    "maxcut-kept.answer": "5109fc6c32650e4aaae2461b53d47e7ebc688788bbda8f2a311afd47be145808",
    "maxcut-kept.cut": "37566.0",
    "maxcut-kept.lp_value": "24056.0",
    "maxcut-kept.theta": "271d808a7ba9b066cc143e1794c2b97647d9b5799fe2b08914f380327fda006e",
    "maxcut-kept.diagnostics": "{'lp_status': 'optimal', 'lp_value': 24056.0, 'f_y': 24056.0, "
    "'f_y_recount': 24056.0, 'balance_violations': 0, 'q_cut_direct': 25882, "
    "'q_cut_identity_twice': 51764, 'fallback': False, 'committed': 577, 'undecided': 447}",
    "maxcut-uniform.answer": "e78713b6038e82744214a67d78d6b1b0335c140339ff856a4e221606aabe0512",
    "maxcut-uniform.cut": "2054.0",
    "maxcut-uniform.diagnostics": "{'lp_status': 'degenerate-uniform', 'lp_value': 0.0, "
    "'f_y': 0.0, 'f_y_recount': 0.0, 'balance_violations': 0, 'q_cut_direct': 2054, "
    "'q_cut_identity_twice': 4108, 'fallback': False, 'committed': 0, 'undecided': 256}",
    "maxcut-fallback.answer": "b76d517995868375691826808e70be84d840333913163e1a4432f0900957f784",
    "maxcut-fallback.cut": "94.0",
    "maxcut-fallback.diagnostics": "{'lp_status': 'infeasible', 'lp_value': nan, 'f_y': 28.0, "
    "'f_y_recount': 28.0, 'balance_violations': 10, 'q_cut_direct': 28, "
    "'q_cut_identity_twice': 56, 'fallback': True, 'committed': 50, 'undecided': 14}",
    "qp-advice.answer": "41aceaa06ae12faae31d7d9a55b4f6838e68a5859ed92d696aa8917a8e06bbae",
    "qp-advice.weight": "186.0",
    "weighted-2lin.answer": "97659c0632c243c40f602d55d5dcab69189f53dd115937a2c109575255b4e283",
    "weighted-2lin.weight": "55.13704858052644",
    "weighted-2lin.total": "72.46257225788403",
    "lp.random": "4bcf04b593e583a2d22f13be9b94ada1df8eaa3c6d854d0906e110103abba01c",
    "enumerate.inner": "a613a00cd00ecd05d29474ca9bb867039d7cba209e6b19595545217d274cb1e5",
    "graph.1024-64-0.0": "78e1a47636b4f301b44648bbf48d422fbaf89cc049e11c989bc1f9c35fc7f7b4",
    "graph.256-16-0.2": "36df6c1ab4b07cb97b4922e797fe378c2fea3f156fd1a6c7dbb108694e617421",
    "graph.64-6-0.5": "a419e93eaf128cb6de8b820089b0c50ba5daacdc2127213fb3cbd6a9abf51838",
    "graph.128-8-1.0": "52c6f8b45629b74a446711a0024a5178e8da57ff751f0d6ed08ae5020c875562",
    "graph.1024-128-0.37": "8d531bc083c601e00f946a8827f500ac11b88d9fe7e02c7b6e91a36d99164634",
    "graph.512-96-0.4": "ebd28e95baccd7d719f1324259064292c3cb8eb0e007687c226e5b6824edda84",
    "graph.40-9-1.0": "347721105e81e17d4b0fac1a18055a0bafba2a39ac9c17124423a36471753fab",
    "klin.40-1-500-0.2": "971447adf69e6b8fc8ac190787a261da09ebed33582b3488404bc0febc3221d7",
    "klin.40-1-500-0.2.value": "409.0",
    "klin.30-2-400-0.1": "1845fd4f715fef95b746c02f306b6b39531b9385ca89e236359ecd1f7b1c1378",
    "klin.30-2-400-0.1.value": "355.0",
    "klin.50-3-1000-0.3": "67ab6799568039279323ee0af77d8eece28152478edbd40e96ce840b29a1f2bc",
    "klin.50-3-1000-0.3.value": "712.0",
    "klin.5-4-300-0.1": "14adf6f55cff7bbc889759a1a30985b22b1880bc7b0397275c7a53da9271188a",
    "klin.5-4-300-0.1.value": "269.0",
    "klin.200-3-200000-0.05": "f10cfbb46e927d71f7fe5c6fedc3ede1016b70b8ce3f1630a39cbfba623d327a",
    "klin.200-3-200000-0.05.value": "189847.0",
}

# name -> (n, d, gamma, plant seed, advice epsilon, advice seed, params, solve seed):
# the Max-Cut branches that no other case reaches
MAXCUT_BRANCH_CASES = {
    # paper-default threshold: no vertex commits and the LP objective is zero
    "maxcut-uniform": (256, 32, 0.0, 5, 0.3, 6, MaxCutParams(), 7),
    # a slack far below sqrt(d): the balance LP is infeasible and the sign fallback runs
    "maxcut-fallback": (64, 6, 0.5, 2, 0.5, (0, 1), MaxCutParams(0.3, 0.01), (0, 2)),
}

# (n, d, gamma, seed): no intra edges, both kinds, half each, no cross edges;
# then two shapes whose intra sides take many repair sweeps, and an
# intra-only graph of degree 9 on sides of 20
GRAPH_CASES = [(1024, 64, 0.0, 1), (256, 16, 0.2, 2), (64, 6, 0.5, 3), (128, 8, 1.0, 4),
               (1024, 128, 0.37, 1), (512, 96, 0.4, 2), (40, 9, 1.0, 5)]

# (n, k, m, delta, seed): k = 1 to 4; at (5, 4) and (200, 3) the
# distinct-index redraw runs several rounds
KLIN_CASES = [(40, 1, 500, 0.2, 21), (30, 2, 400, 0.1, 22), (50, 3, 1000, 0.3, 23),
              (5, 4, 300, 0.1, 24), (200, 3, 200000, 0.05, 25)]


@pytest.mark.parametrize("name", sorted(MAX3LIN_CASES))
def test_max3lin(name):
    plant, res, reduced = max3lin_case(name)
    diag = res.diagnostics
    assert (diag.heavy_pair_count > 0) == (name != "max3lin-light")
    assert (diag.sigma_zero_count > 0) == (name == "max3lin-flagged")
    psi = reduced.psi
    assert planted_columns(plant) == GOLDEN[f"{name}.plant"]
    assert answer(res.assignment) == GOLDEN[f"{name}.answer"]
    assert repr(res.satisfied_fraction) == GOLDEN[f"{name}.fraction"]
    assert digest(psi.idx, psi.rhs, psi.w, reduced.source, reduced.flagged) == GOLDEN[f"{name}.psi"]
    assert digest(reduced.heavy_pairs, reduced.heavy_mask, reduced.sigma_pair,
                  reduced.sigma_var) == GOLDEN[f"{name}.votes"]


def test_maxcut():
    plant = plant_bipartite_regular(256, 16, 0.2, seed=13)
    advice = gen_label_advice(plant.x_star, 0.3, seed=(13, 1))
    res = solve_maxcut_with_advice(plant.instance, advice, MaxCutParams(1.0, 1.5), seed=(13, 2))
    assert answer(res.assignment) == GOLDEN["maxcut.answer"]
    assert repr(res.cut_weight) == GOLDEN["maxcut.cut"]
    assert repr(asdict(res.diagnostics)) == GOLDEN["maxcut.diagnostics"]


@pytest.mark.parametrize("name", sorted(MAXCUT_BRANCH_CASES))
def test_maxcut_branch(name):
    n, d, gamma, plant_seed, eps, adv_seed, params, seed = MAXCUT_BRANCH_CASES[name]
    plant = plant_bipartite_regular(n, d, gamma, seed=plant_seed)
    advice = gen_label_advice(plant.x_star, eps, seed=adv_seed)
    res = solve_maxcut_with_advice(plant.instance, advice, params, seed=seed)
    assert answer(res.assignment) == GOLDEN[f"{name}.answer"]
    assert repr(res.cut_weight) == GOLDEN[f"{name}.cut"]
    assert repr(asdict(res.diagnostics)) == GOLDEN[f"{name}.diagnostics"]


def test_maxcut_lp_keeps_rows(monkeypatch):
    # The one pinned Max-Cut case whose balance LP reaches the simplex.
    kept, outcomes = [], []
    expand, solve = lp_module._expand_rows, maxcut.solve_lp

    def counting_expand(lp):
        rows = expand(lp)
        kept.append(rows[0].shape[0])
        return rows

    def recording_solve(lp):
        outcomes.append(solve(lp))
        return outcomes[-1]

    monkeypatch.setattr(lp_module, "_expand_rows", counting_expand)
    monkeypatch.setattr(maxcut, "solve_lp", recording_solve)
    plant = plant_bipartite_regular(1024, 128, 0.37, seed=1)
    advice = gen_label_advice(plant.x_star, 0.9, seed=(1, 1))
    res = solve_maxcut_with_advice(plant.instance, advice, MaxCutParams(1.0, 1.5), seed=(1, 2))
    # Presolve keeps 61 balance inequalities, so the simplex runs.
    assert kept == [61]
    assert digest(outcomes[0].x) == GOLDEN["maxcut-kept.theta"]
    assert answer(res.assignment) == GOLDEN["maxcut-kept.answer"]
    assert repr(res.cut_weight) == GOLDEN["maxcut-kept.cut"]
    assert repr(res.diagnostics.lp_value) == GOLDEN["maxcut-kept.lp_value"]
    assert repr(asdict(res.diagnostics)) == GOLDEN["maxcut-kept.diagnostics"]


@pytest.mark.parametrize("n,d,gamma,seed", GRAPH_CASES)
def test_bipartite_plants(n, d, gamma, seed):
    plant = plant_bipartite_regular(n, d, gamma, seed=seed)
    edges = np.asarray(plant.instance.edges, dtype=np.int64).reshape(-1, 2)
    assert edges.shape == (n * d // 2, 2)
    assert digest(edges, plant.x_star) == GOLDEN[f"graph.{n}-{d}-{gamma}"]


@pytest.mark.parametrize("n,k,m,delta,seed", KLIN_CASES)
def test_klin_plants(n, k, m, delta, seed):
    plant = plant_klin(n, k, m, delta, seed=seed)
    name = f"klin.{n}-{k}-{m}-{delta}"
    assert planted_columns(plant) == GOLDEN[name]
    assert repr(plant.planted_value) == GOLDEN[f"{name}.value"]


def test_qp_advice():
    plant = plant_klin(30, 2, 200, 0.1, seed=14)
    advice = gen_label_advice(plant.x_star, 0.5, seed=(14, 1))
    x, weight = solve_2lin_with_advice(plant.instance, advice)
    assert answer(x) == GOLDEN["qp-advice.answer"]
    assert repr(weight) == GOLDEN["qp-advice.weight"]


def test_weighted_mixed_arity_2lin():
    inst = weighted_mixed(15)
    x, weight = solve_2lin(inst, TwoLinConfig(sweeps=50, trials=20), seed=(15, 2))
    assert answer(x) == GOLDEN["weighted-2lin.answer"]
    assert repr(weight) == GOLDEN["weighted-2lin.weight"]
    assert repr(inst.total_weight) == GOLDEN["weighted-2lin.total"]


def test_lp_outcomes():
    # status, optimal point bytes and value of 300 random LPs
    rng = np.random.default_rng(21)
    h = hashlib.sha256()
    for _ in range(300):
        out = solve_lp(random_lp(rng))
        h.update(out.status.encode())
        if out.is_optimal:
            h.update(out.x.tobytes())
            h.update(repr(out.value).encode())
    assert h.hexdigest() == GOLDEN["lp.random"]


def test_enumeration_inner_answers():
    # every one of the 201 qp-advice inner answers, in run order
    plant = plant_klin(10, 2, 30, 0.0, seed=17)
    answers = []

    def inner(instance, subset, seed):
        x = qp_subset_inner(instance, subset, seed)
        answers.append(np.asarray(x, dtype=np.int8))
        return x

    res = enumerate_solve(plant.instance, 0.1, inner, seed=(17, 2))
    assert res.runs == len(answers) == 201
    assert digest(*answers) == GOLDEN["enumerate.inner"]


def test_enumeration_solves_each_label_vector_once(monkeypatch):
    # the golden enumeration case: one surrogate LP per distinct label vector
    plant = plant_klin(10, 2, 30, 0.0, seed=17)
    labels, solved = set(), []
    solve = qp_advice.solve_lp

    def counting(lp):
        solved.append(lp)
        return solve(lp)

    monkeypatch.setattr(qp_advice, "solve_lp", counting)

    def inner(instance, subset, seed):
        labels.add(subset_to_label(subset, seed).values.tobytes())
        return qp_subset_inner(instance, subset, seed)

    res = enumerate_solve(plant.instance, 0.1, inner, seed=(17, 2))
    assert res.runs == 201
    assert len(solved) == len(labels) < res.runs
