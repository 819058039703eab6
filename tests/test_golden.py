"""Golden hashes: pinned seeds must give bit-identical answers.

Each case runs a small seeded pipeline and digests its int8 answer (and,
for the reduction, every column of the reduced instance) with sha256.
The digests were recorded before the constraint store became columnar,
so a refactor that changes any answer, vote, emission order or weight
sum on these seeds fails here.
"""

import hashlib

import numpy as np
import pytest

from advice_csp.advice import gen_label_advice
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.max3lin import build_psi, solve_max3lin_with_advice
from advice_csp.maxcut import MaxCutParams, solve_maxcut_with_advice
from advice_csp.qp_advice import solve_2lin_with_advice
from advice_csp.twolin_sdp import TwoLinConfig, solve_2lin


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
    "qp-advice.answer": "41aceaa06ae12faae31d7d9a55b4f6838e68a5859ed92d696aa8917a8e06bbae",
    "qp-advice.weight": "186.0",
    "weighted-2lin.answer": "97659c0632c243c40f602d55d5dcab69189f53dd115937a2c109575255b4e283",
    "weighted-2lin.weight": "55.13704858052644",
    "weighted-2lin.total": "72.46257225788403",
}


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
