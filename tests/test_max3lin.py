import math

import numpy as np
import pytest

from advice_csp.advice import LabelAdvice, gen_label_advice
from advice_csp.errors import InputError
from advice_csp.instances import KLinInstance, plant_klin, satisfied_mask
from advice_csp.max3lin import (
    Groups,
    build_psi,
    classify_constraints,
    compute_threshold,
    conservative_psi_value,
    create_h_constraints,
    create_l_constraints,
    representative_accounting,
    solve_max3lin_with_advice,
)


def all_ones_advice(n, eps=1.0):
    return LabelAdvice(values=np.ones(n, dtype=np.int8), epsilon=eps)


class TestThreshold:
    def test_value(self):
        # 8 * ln(20) / 0.81 = 29.59 rounds up to 30
        assert compute_threshold(0.05, 0.9) == 30

    def test_range_validation(self):
        with pytest.raises(InputError):
            compute_threshold(0.0, 0.5)
        with pytest.raises(InputError):
            compute_threshold(0.7, 0.5)
        with pytest.raises(InputError):
            compute_threshold(0.1, 1.5)


class TestClassify:
    def test_pair_counts_against_threshold(self):
        cons = (((0, 1, 2), 1, 1.0), ((0, 1, 3), 1, 1.0), ((0, 1, 4), 1, 1.0),
                ((2, 3, 4), 1, 1.0))
        phi = KLinInstance.from_constraints(k=3, n=5, constraints=cons)
        incidence, lights = classify_constraints(phi, t=3)
        assert incidence.is_heavy((0, 1))
        assert not incidence.is_heavy((2, 3))
        assert incidence.heavy_pairs.tolist() == [[0, 1]]
        # the lone (2,3,4) constraint stays light
        assert lights.by_var.keys.tolist() == [2, 3, 4]

    def test_threshold_one_makes_everything_heavy(self):
        plant = plant_klin(10, 3, 15, 0.0, seed=0)
        incidence, lights = classify_constraints(plant.instance, t=1)
        assert lights.by_var.keys.size == 0
        assert np.all(incidence.by_pair.sizes >= 1)

    def test_counting_identity(self):
        plant = plant_klin(25, 3, 300, 0.2, seed=1)
        incidence, _ = classify_constraints(plant.instance, t=5)
        assert incidence.by_pair.offsets[-1] == 3 * 300

    def test_light_membership_three_sets(self):
        plant = plant_klin(25, 3, 100, 0.2, seed=2)
        incidence, lights = classify_constraints(plant.instance, t=50)
        counts = np.bincount(lights.by_var.members, minlength=100)
        assert np.all(counts == 3)
        assert counts.size == 100

    def test_rejects_wrong_arity(self):
        phi = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, 1.0),))
        with pytest.raises(InputError):
            classify_constraints(phi, t=2)


class TestGroups:
    def test_sort_paths_agree(self):
        # Keys too large for the packed key * size + rank sort take the
        # stable argsort; both must keep positions in order within a key.
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5, size=40)
        positions = np.arange(40)
        small = Groups.of(keys, positions)
        big = Groups.of(keys + 2**61, positions)
        assert np.array_equal(big.keys - 2**61, small.keys)
        assert np.array_equal(big.offsets, small.offsets)
        assert np.array_equal(big.members, small.members)
        for key in small.keys:
            assert small.members_of(key).tolist() == np.flatnonzero(keys == key).tolist()
        assert small.members_of(7).size == 0
        assert Groups.of(keys[:0], positions[:0]).offsets.tolist() == [0]


class TestCreateH:
    def test_hand_vote(self):
        cons = (((1, 2, 3), 1, 1.0), ((1, 2, 4), -1, 1.0), ((1, 2, 5), 1, 1.0))
        phi = KLinInstance.from_constraints(k=3, n=6, constraints=cons)
        labels = np.array([1, 1, 1, 1, -1, 1], dtype=np.int8)
        advice = LabelAdvice(values=labels, epsilon=0.5)
        incidence, _ = classify_constraints(phi, t=3)
        assert incidence.heavy_pairs.tolist() == [[1, 2]]
        reps = create_h_constraints(incidence, advice, phi)
        assert reps.sigma.tolist() == [1] and not reps.flagged.any()
        assert reps.idx.tolist() == [[1, 2], [3, -1], [1, 2], [4, -1], [1, 2], [5, -1]]
        assert reps.rhs.tolist() == [1, 1, 1, -1, 1, 1]
        assert reps.source.tolist() == [0, 0, 1, 1, 2, 2]

    def test_noiseless_vote_recovers_pair_product(self):
        plant = plant_klin(12, 3, 240, 0.0, seed=3)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        incidence, _ = classify_constraints(plant.instance, t=2)
        reps = create_h_constraints(incidence, advice, plant.instance)
        pairs = incidence.heavy_pairs
        assert len(pairs) >= 10 and not reps.flagged.any()
        truth = plant.x_star[pairs[:, 0]] * plant.x_star[pairs[:, 1]]
        assert np.array_equal(reps.sigma, truth)

    def test_zero_vote_flagged(self):
        cons = (((0, 1, 2), 1, 1.0), ((0, 1, 3), -1, 1.0))
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=cons)
        advice = all_ones_advice(4)
        incidence, _ = classify_constraints(phi, t=2)
        reps = create_h_constraints(incidence, advice, phi)
        # a zero vote keeps sign +1 for the emitted rows but records 0
        assert reps.flagged.all() and reps.sigma.tolist() == [0]
        assert len(reps.idx) == 4 and reps.rhs[0::2].tolist() == [1, 1]


class TestCreateL:
    def test_hand_vote(self):
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=(((1, 2, 3), 1, 1.0),))
        labels = np.array([1, 1, 1, -1], dtype=np.int8)
        advice = LabelAdvice(values=labels, epsilon=0.5)
        _, lights = classify_constraints(phi, t=2)
        reps = create_l_constraints(lights, advice, phi)
        assert reps.sigma[1] == -1 and not reps.flagged.any()
        # variables 1, 2, 3 each emit their one light representative
        assert reps.idx.tolist() == [[1, -1], [2, -1], [3, -1]]
        assert reps.rhs.tolist() == [-1, -1, 1] and reps.source.tolist() == [0, 0, 0]

    def test_noiseless_vote_recovers_value(self):
        plant = plant_klin(15, 3, 60, 0.0, seed=4)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        _, lights = classify_constraints(plant.instance, t=1000)
        reps = create_l_constraints(lights, advice, plant.instance)
        voters = lights.by_var.keys
        assert not reps.flagged.any()
        assert np.array_equal(reps.sigma[voters], plant.x_star[voters])

    def test_empty_members(self):
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=(((0, 1, 2), 1, 1.0),))
        _, lights = classify_constraints(phi, t=2)
        reps = create_l_constraints(lights, all_ones_advice(4), phi)
        # variable 3 has no light members: it emits nothing and records no vote
        assert 3 not in reps.idx[:, 0].tolist() and reps.sigma[3] == 0


class TestBuildPsi:
    def test_counting(self):
        plant = plant_klin(20, 3, 250, 0.1, seed=5)
        advice = gen_label_advice(plant.x_star, 0.8, seed=6)
        reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=0.8)
        incidence, lights = classify_constraints(plant.instance, reduced.threshold)
        expected = 2 * int(incidence.by_pair.sizes[incidence.heavy].sum())
        expected += int(lights.by_var.offsets[-1])
        assert reduced.m == expected
        reps = np.bincount(reduced.source, minlength=plant.instance.m)
        assert set(np.unique(reps)).issubset({2, 3, 4, 6})

    def test_noiseless_plant_satisfies_unflagged(self):
        plant = plant_klin(40, 3, 900, 0.0, seed=7)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        reduced = build_psi(plant.instance, advice, delta=0.05, epsilon=1.0)
        sat = satisfied_mask(reduced.psi, plant.x_star)
        assert np.all(sat[~reduced.flagged])
        assert conservative_psi_value(reduced, plant.x_star) == float(
            (~reduced.flagged).sum()
        )

    def test_empty_instance(self):
        phi = KLinInstance.from_constraints(k=3, n=5, constraints=())
        reduced = build_psi(phi, all_ones_advice(5), delta=0.1, epsilon=0.5)
        assert reduced.m == 0

    def test_deterministic(self):
        plant = plant_klin(18, 3, 200, 0.1, seed=8)
        advice = gen_label_advice(plant.x_star, 0.7, seed=9)
        a = build_psi(plant.instance, advice, delta=0.1, epsilon=0.7)
        b = build_psi(plant.instance, advice, delta=0.1, epsilon=0.7)
        for col in ("idx", "rhs", "w"):
            assert np.array_equal(getattr(a.psi, col), getattr(b.psi, col))
        assert np.array_equal(a.source, b.source)


class TestSolve:
    def test_noiseless_small_instance_solved_exactly(self):
        hits = 0
        for s in range(10):
            plant = plant_klin(60, 3, 3600, 0.0, seed=(10, s))
            advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
            res = solve_max3lin_with_advice(plant.instance, advice, delta=0.01, seed=(11, s))
            hits += res.satisfied_fraction == 1.0
        assert hits >= 9

    def test_heavy_implication_audit_clean(self):
        for s in range(5):
            plant = plant_klin(20, 3, 300, 0.1, seed=(12, s))
            advice = gen_label_advice(plant.x_star, 0.7, seed=(13, s))
            res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=(14, s))
            assert res.diagnostics.heavy_implication_violations == 0

    def test_representative_accounting_bound(self):
        for s in range(5):
            plant = plant_klin(30, 3, 500, 0.1, seed=(15, s))
            advice = gen_label_advice(plant.x_star, 0.75, seed=(16, s))
            reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=0.75)
            res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=(17, s))
            acc = representative_accounting(
                plant.instance, reduced, res.assignment, plant.x_star
            )
            assert acc["unsat_phi"] <= acc["bound"]

    def test_out_of_guarantee_flagged(self):
        plant = plant_klin(50, 3, 100, 0.1, seed=18)
        advice = gen_label_advice(plant.x_star, 0.5, seed=19)
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=20)
        assert not res.diagnostics.in_guarantee

    def test_rejects_wrong_arity(self):
        phi = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, 1.0),))
        with pytest.raises(InputError):
            solve_max3lin_with_advice(phi, all_ones_advice(3), delta=0.1, seed=0)


class TestRecoveryRates:
    def test_heavy_vote_error_bound(self):
        plant = plant_klin(40, 3, 16000, 0.05, seed=21)
        phi, x_star = plant.instance, plant.x_star
        eps, delta = 0.6, 0.05
        advice = gen_label_advice(x_star, eps, seed=22)
        reduced = build_psi(phi, advice, delta, eps)
        incidence, _ = classify_constraints(phi, reduced.threshold)
        sat_star = satisfied_mask(phi, x_star)
        errors = total = 0
        for g, pair in enumerate(reduced.heavy_pairs.tolist()):
            members = incidence.members(pair)
            if sum(0 if sat_star[p] else 1 for p in members) >= len(members) / 4:
                continue
            total += 1
            truth = int(x_star[pair[0]]) * int(x_star[pair[1]])
            errors += reduced.sigma_pair[g] != truth
        bound = math.exp(-eps * eps * reduced.threshold / 8)
        margin = 3 * math.sqrt(bound * (1 - bound) / max(total, 1))
        assert total >= 100
        assert errors / total <= bound + margin

    def test_light_vote_error_bound(self):
        plant = plant_klin(300, 3, 21000, 0.05, seed=23)
        phi, x_star = plant.instance, plant.x_star
        eps, delta = 0.8, 0.2
        advice = gen_label_advice(x_star, eps, seed=24)
        reduced = build_psi(phi, advice, delta, eps)
        _, lights = classify_constraints(phi, reduced.threshold)
        errors = 0
        bounds = []
        for var, size in zip(lights.by_var.keys.tolist(), lights.by_var.sizes.tolist()):
            errors += reduced.sigma_var[var] != int(x_star[var])
            bounds.append(math.exp(-eps**4 * size / (16 * reduced.threshold)))
        total = len(bounds)
        mean_bound = float(np.mean(bounds))
        margin = 3 * math.sqrt(mean_bound * (1 - mean_bound) / total)
        assert total >= 100
        assert errors / total <= mean_bound + margin
