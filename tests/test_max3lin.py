import numpy as np
import pytest

from advice_csp import max3lin
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
from advice_csp.verify import (
    binomial_band,
    heavy_vote_errors,
    light_vote_errors,
    reduction_counting_failures,
    same_columns,
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
        incidence, by_var = classify_constraints(phi, t=3)
        assert incidence.heavy_pairs.tolist() == [[0, 1]]
        # the lone (2,3,4) constraint stays light
        assert incidence.heavy_mask.tolist() == [True, True, True, False]
        assert by_var.keys.tolist() == [2, 3, 4]

    def test_threshold_one_makes_everything_heavy(self):
        plant = plant_klin(10, 3, 15, 0.0, seed=0)
        incidence, by_var = classify_constraints(plant.instance, t=1)
        assert by_var.keys.size == 0
        assert np.all(incidence.by_pair.sizes >= 1) and incidence.heavy_mask.all()

    def test_counting_identity(self):
        # pair lists hold 3m members at any t; build_psi's least t is 6 (delta 1/2, eps 1)
        plant = plant_klin(25, 3, 300, 0.2, seed=1)
        reduced = build_psi(plant.instance, all_ones_advice(25), delta=0.5, epsilon=1.0)
        assert reduced.threshold == 6
        assert reduction_counting_failures(plant.instance, reduced) == (0, 0)

    def test_light_membership_three_sets(self):
        plant = plant_klin(25, 3, 100, 0.2, seed=2)
        incidence, by_var = classify_constraints(plant.instance, t=50)
        counts = np.bincount(by_var.members, minlength=100)
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
        assert small.keys.tolist() == np.unique(keys).tolist()
        for g, key in enumerate(small.keys):
            members = small.members[small.offsets[g]:small.offsets[g + 1]]
            assert members.tolist() == np.flatnonzero(keys == key).tolist()
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
        _, by_var = classify_constraints(phi, t=2)
        reps = create_l_constraints(by_var, advice, phi)
        assert reps.sigma[1] == -1 and not reps.flagged.any()
        # variables 1, 2, 3 each emit their one light representative
        assert reps.idx.tolist() == [[1, -1], [2, -1], [3, -1]]
        assert reps.rhs.tolist() == [-1, -1, 1] and reps.source.tolist() == [0, 0, 0]

    def test_noiseless_vote_recovers_value(self):
        plant = plant_klin(15, 3, 60, 0.0, seed=4)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        _, by_var = classify_constraints(plant.instance, t=1000)
        reps = create_l_constraints(by_var, advice, plant.instance)
        voters = by_var.keys
        assert not reps.flagged.any()
        assert np.array_equal(reps.sigma[voters], plant.x_star[voters])

    def test_empty_members(self):
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=(((0, 1, 2), 1, 1.0),))
        _, by_var = classify_constraints(phi, t=2)
        reps = create_l_constraints(by_var, all_ones_advice(4), phi)
        # variable 3 has no light members: it emits nothing and records no vote
        assert 3 not in reps.idx[:, 0].tolist() and reps.sigma[3] == 0


class TestBuildPsi:
    def test_counting(self):
        plant = plant_klin(20, 3, 250, 0.1, seed=5)
        advice = gen_label_advice(plant.x_star, 0.8, seed=6)
        reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=0.8)
        assert reduction_counting_failures(plant.instance, reduced) == (0, 0)

    def test_noiseless_plant_satisfies_unflagged(self):
        plant = plant_klin(40, 3, 900, 0.0, seed=7)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        reduced = build_psi(plant.instance, advice, delta=0.05, epsilon=1.0)
        sat = satisfied_mask(reduced.psi, plant.x_star)
        assert np.all(sat[~reduced.flagged])
        assert conservative_psi_value(reduced, plant.x_star) == float(
            (~reduced.flagged).sum()
        )

    def test_heavy_rows_lead_as_couples(self):
        # Rows below heavy_rows are (pair, unary) couples sharing a heavy
        # source; every row after them is a light unary representative.
        plant = plant_klin(20, 3, 1500, 0.1, seed=(12, 0))
        advice = gen_label_advice(plant.x_star, 0.8, seed=(13, 0))
        reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=0.8)
        h, arity, src = reduced.heavy_rows, reduced.psi.arity, reduced.source
        assert 0 < h < reduced.m and h % 2 == 0
        assert np.all(arity[:h:2] == 2) and np.all(arity[1:h:2] == 1)
        assert np.array_equal(src[:h:2], src[1:h:2])
        assert np.all(reduced.heavy_mask[src[:h]]) and not reduced.heavy_mask[src[h:]].any()
        assert np.all(arity[h:] == 1)

    def test_empty_instance(self):
        phi = KLinInstance.from_constraints(k=3, n=5, constraints=())
        reduced = build_psi(phi, all_ones_advice(5), delta=0.1, epsilon=0.5)
        assert reduced.m == 0 and reduced.heavy_rows == 0

    def test_deterministic(self):
        plant = plant_klin(18, 3, 200, 0.1, seed=8)
        advice = gen_label_advice(plant.x_star, 0.7, seed=9)
        a = build_psi(plant.instance, advice, delta=0.1, epsilon=0.7)
        b = build_psi(plant.instance, advice, delta=0.1, epsilon=0.7)
        assert same_columns(a.psi, b.psi)
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

    def test_one_satisfied_mask_per_instance(self, monkeypatch):
        # phi's and psi's masks of the answer serve unsat_total, psi_fraction
        # and the implication audit alike.
        plant = plant_klin(20, 3, 1500, 0.1, seed=(12, 0))
        advice = gen_label_advice(plant.x_star, 0.8, seed=(13, 0))
        masked = []

        def counting(instance, x):
            masked.append(instance)
            return satisfied_mask(instance, x)

        monkeypatch.setattr(max3lin, "satisfied_mask", counting)
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=(14, 0))
        reduced = build_psi(plant.instance, advice, 0.1, 0.8)
        assert len(masked) == 2
        diag, x = res.diagnostics, res.assignment
        assert diag.heavy_pair_count > 0
        assert diag.unsat_total == np.count_nonzero(~satisfied_mask(plant.instance, x))
        assert diag.psi_fraction == (conservative_psi_value(reduced, x)
                                     / reduced.psi.total_weight)

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
        errors, total, bound = heavy_vote_errors(phi, x_star, reduced, eps)
        assert total >= 100
        assert errors / total <= bound + binomial_band(bound, total)

    def test_light_vote_error_bound(self):
        plant = plant_klin(300, 3, 21000, 0.05, seed=23)
        phi, x_star = plant.instance, plant.x_star
        eps, delta = 0.8, 0.2
        advice = gen_label_advice(x_star, eps, seed=24)
        reduced = build_psi(phi, advice, delta, eps)
        errors, total, mean_bound = light_vote_errors(phi, x_star, reduced, eps)
        assert total >= 100
        assert errors / total <= mean_bound + binomial_band(mean_bound, total)


class TestAuditOutputs:
    """The audits' exact outputs on pinned fixtures, so a refactor of the
    reduction's bookkeeping cannot move them while the bounds still hold."""

    @pytest.mark.parametrize("s, expected", [(0, (0, 1214, 0.04904583548701675)),
                                             (1, (0, 1216, 0.04904583548701675))])
    def test_heavy_votes_on_a4_fixtures(self, s, expected):
        eps, delta = 0.6, 0.05
        plant = plant_klin(50, 3, 36000, 0.05, seed=(4, s))
        advice = gen_label_advice(plant.x_star, eps, seed=(4, s, 1))
        reduced = build_psi(plant.instance, advice, delta, eps)
        assert heavy_vote_errors(plant.instance, plant.x_star, reduced, eps) == expected

    def test_heavy_votes_with_errors_and_skipped_pairs(self):
        # 82 of the 108 heavy pairs have under a quarter of their members
        # violated by x*, and two of those votes are wrong.
        eps = 0.4
        plant = plant_klin(30, 3, 6000, 0.2, seed=21)
        advice = gen_label_advice(plant.x_star, eps, seed=22)
        reduced = build_psi(plant.instance, advice, 0.4, eps)
        assert len(reduced.heavy_pairs) == 108
        assert heavy_vote_errors(plant.instance, plant.x_star, reduced, eps) == (
            2, 82, 0.39851904108451414)

    def test_light_votes_on_a5_fixture(self):
        eps, delta = 0.95, 0.3
        plant = plant_klin(1000, 3, 80000, 0.05, seed=5)
        advice = gen_label_advice(plant.x_star, eps, seed=(5, 1))
        reduced = build_psi(plant.instance, advice, delta, eps)
        assert light_vote_errors(plant.instance, plant.x_star, reduced, eps) == (
            0, 1000, 0.3302312106028317)

    @pytest.mark.parametrize("shape, seeds, expected", [
        # seed 3 of test_representative_accounting_bound: no heavy pair
        ((30, 500, 0.75), (15, 3), dict(unsat_phi=87, heavy_reps_unsat_hat=0,
                                        light_sources_unsat_star=53,
                                        light_reps_unsat_either=50, bound=103)),
        # 29 heavy pairs covering 721 of the 1500 constraints
        ((20, 1500, 0.8), (12, 0), dict(unsat_phi=155, heavy_reps_unsat_hat=92,
                                        light_sources_unsat_star=82,
                                        light_reps_unsat_either=0, bound=174)),
    ])
    def test_representative_accounting(self, shape, seeds, expected):
        n, m, eps = shape
        a, s = seeds
        plant = plant_klin(n, 3, m, 0.1, seed=(a, s))
        advice = gen_label_advice(plant.x_star, eps, seed=(a + 1, s))
        reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=eps)
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=(a + 2, s))
        assert representative_accounting(
            plant.instance, reduced, res.assignment, plant.x_star) == expected
