import itertools

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
    create_h_constraints,
    create_l_constraints,
    representative_accounting,
    solve_max3lin_with_advice,
)
from advice_csp.twolin_sdp import TwoLinConfig, solve_2lin
from advice_csp.verify import (
    binomial_band,
    conservative_psi_value,
    heavy_vote_errors,
    light_vote_errors,
    merged_failures,
    rebuild_failures,
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
        incidence = classify_constraints(phi, t=3)
        assert incidence.heavy_pairs.tolist() == [[0, 1]]
        # the lone (2,3,4) constraint stays light
        assert incidence.heavy_mask.tolist() == [True, True, True, False]
        assert incidence.by_var.keys.tolist() == [2, 3, 4]

    def test_threshold_one_makes_everything_heavy(self):
        plant = plant_klin(10, 3, 15, 0.0, seed=0)
        incidence = classify_constraints(plant.instance, t=1)
        assert incidence.by_var.keys.size == 0
        assert np.all(incidence.by_pair.sizes >= 1) and incidence.heavy_mask.all()

    def test_counting_identity(self):
        # pair lists hold 3m members at any t; build_psi's least t is 6 (delta 1/2, eps 1)
        plant = plant_klin(25, 3, 300, 0.2, seed=1)
        reduced = build_psi(plant.instance, all_ones_advice(25), delta=0.5, epsilon=1.0)
        assert reduced.threshold == 6
        assert reduction_counting_failures(plant.instance, reduced) == (0, 0)

    def test_light_membership_three_sets(self):
        plant = plant_klin(25, 3, 100, 0.2, seed=2)
        incidence = classify_constraints(plant.instance, t=50)
        counts = np.bincount(incidence.by_var.members, minlength=100)
        assert np.all(counts == 3)
        assert counts.size == 100

    def test_rejects_wrong_arity(self):
        phi = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, 1.0),))
        with pytest.raises(InputError):
            classify_constraints(phi, t=2)

    @pytest.mark.parametrize("t", [2, 3, 6])
    @pytest.mark.parametrize("other_heavy", [True, False])
    def test_threshold_boundary(self, t, other_heavy):
        # (0, 1) is covered exactly t times, (2, 3) t - 1 times and, when
        # other_heavy, (4, 5) t + 2 times; every other pair once.
        fresh = itertools.count(6)
        cover = {(0, 1): t, (2, 3): t - 1, (4, 5): t + 2 if other_heavy else 0}
        cons = [((i, j, next(fresh)), 1, 1.0) for (i, j), c in cover.items() for _ in range(c)]
        phi = KLinInstance.from_constraints(3, next(fresh), cons)
        incidence = classify_constraints(phi, t)
        heavy = [[0, 1], [4, 5]] if other_heavy else [[0, 1]]
        assert incidence.heavy_pairs.tolist() == heavy
        assert incidence.by_pair.sizes.tolist() == [cover[tuple(p)] for p in heavy]
        mask = [True] * t + [False] * (t - 1) + [True] * cover[4, 5]
        assert incidence.heavy_mask.tolist() == mask
        # with the most covered pair one below the threshold, none is heavy
        incidence = classify_constraints(phi, max(cover.values()) + 1)
        assert incidence.heavy_pairs.shape == (0, 2) and not incidence.heavy_mask.any()
        assert incidence.by_pair.offsets.tolist() == [0]
        assert incidence.by_var.offsets[-1] == 3 * phi.m


def reference_classify(phi, t):
    """classify_constraints with dicts: (heavy pairs, their members, heavy
    mask, light members per variable), pairs and variables ascending."""
    cover = {}
    for c, row in enumerate(phi.idx[:, :3].tolist()):
        for i, j in itertools.combinations(sorted(row), 2):
            cover.setdefault((i, j), []).append(c)
    heavy = sorted(p for p, members in cover.items() if len(members) >= t)
    mask = [False] * phi.m
    for p in heavy:
        for c in cover[p]:
            mask[c] = True
    by_var = {}
    for c, row in enumerate(phi.idx[:, :3].tolist()):
        if not mask[c]:
            for v in row:
                by_var.setdefault(v, []).append(c)
    return heavy, [cover[p] for p in heavy], mask, {v: by_var[v] for v in sorted(by_var)}


def csr_lists(groups):
    return [groups.members[a:b].tolist() for a, b in itertools.pairwise(groups.offsets)]


@pytest.mark.parametrize("n, m, t", [(6, 30, 1), (6, 30, 4), (8, 60, 5), (12, 150, 4),
                                     (30, 80, 2), (30, 80, 6), (10, 40, 121),
                                     (5, 0, 3)])
def test_classify_matches_dict_reference(n, m, t):
    rng = np.random.default_rng((n, m, t))
    for _ in range(4):
        idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(m)],
                       dtype=np.int64).reshape(m, 3)
        phi = KLinInstance(3, n, idx, rng.choice([-1, 1], size=m), np.ones(m))
        heavy, members, mask, by_var = reference_classify(phi, t)
        incidence = classify_constraints(phi, t)
        groups = incidence.by_var
        assert incidence.heavy_pairs.tolist() == [list(p) for p in heavy]
        assert csr_lists(incidence.by_pair) == members
        assert incidence.heavy_mask.tolist() == mask
        assert groups.keys.tolist() == list(by_var)
        assert np.diff(groups.offsets).tolist() == [len(c) for c in by_var.values()]
        assert csr_lists(groups) == list(by_var.values())


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
        incidence = classify_constraints(phi, t=3)
        assert incidence.heavy_pairs.tolist() == [[1, 2]]
        votes = create_h_constraints(incidence, advice, phi)
        assert votes.sigma.tolist() == [1] and votes.sizes.tolist() == [3]
        # each member pins its third variable to sigma * rhs: x3 = 1, x4 = -1, x5 = 1
        assert (votes.unary // 2).tolist() == [3, 4, 5]
        assert (2 * (votes.unary % 2) - 1).tolist() == [1, -1, 1]
        assert incidence.by_pair.members.tolist() == [0, 1, 2]

    def test_noiseless_vote_recovers_pair_product(self):
        plant = plant_klin(12, 3, 240, 0.0, seed=3)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        incidence = classify_constraints(plant.instance, t=2)
        votes = create_h_constraints(incidence, advice, plant.instance)
        pairs = incidence.heavy_pairs
        assert len(pairs) >= 10 and np.all(votes.sigma != 0)
        truth = plant.x_star[pairs[:, 0]] * plant.x_star[pairs[:, 1]]
        assert np.array_equal(votes.sigma, truth)

    def test_zero_vote_flagged(self):
        cons = (((0, 1, 2), 1, 1.0), ((0, 1, 3), -1, 1.0))
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=cons)
        advice = all_ones_advice(4)
        incidence = classify_constraints(phi, t=2)
        votes = create_h_constraints(incidence, advice, phi)
        # a zero vote records 0 but pins with sign +1: x2 = +1, x3 = -1
        assert votes.sigma.tolist() == [0] and votes.sizes.tolist() == [2]
        assert votes.unary.tolist() == [2 * 2 + 1, 2 * 3]


class TestCreateL:
    def test_hand_vote(self):
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=(((1, 2, 3), 1, 1.0),))
        labels = np.array([1, 1, 1, -1], dtype=np.int8)
        advice = LabelAdvice(values=labels, epsilon=0.5)
        incidence = classify_constraints(phi, t=2)
        votes = create_l_constraints(incidence, advice, phi)
        # variables 1, 2, 3 each vote once, from their one light constraint
        assert votes.sigma.tolist() == [0, -1, -1, 1] and votes.sizes.tolist() == [0, 1, 1, 1]
        assert incidence.by_var.keys.tolist() == [1, 2, 3]
        assert incidence.by_var.members.tolist() == [0, 0, 0]

    def test_noiseless_vote_recovers_value(self):
        plant = plant_klin(15, 3, 60, 0.0, seed=4)
        advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
        incidence = classify_constraints(plant.instance, t=1000)
        votes = create_l_constraints(incidence, advice, plant.instance)
        voters = np.flatnonzero(votes.sizes)
        assert np.array_equal(voters, incidence.by_var.keys)
        assert np.array_equal(votes.sigma[voters], plant.x_star[voters])

    def test_empty_members(self):
        phi = KLinInstance.from_constraints(k=3, n=4, constraints=(((0, 1, 2), 1, 1.0),))
        votes = create_l_constraints(classify_constraints(phi, t=2), all_ones_advice(4), phi)
        # variable 3 has no light members: it records no vote
        assert votes.sizes[3] == 0 and votes.sigma[3] == 0


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


def merge_fixture(name):
    """(phi, advice, delta, epsilon) of a merged-psi check: heavy pairs and
    light constraints, no heavy pair (test_golden's max3lin-light), both
    kinds of zero vote (test_golden's max3lin-flagged), or no constraint."""
    if name == "empty":
        phi = KLinInstance.from_constraints(k=3, n=5, constraints=())
        return phi, all_ones_advice(5), 0.1, 0.5
    n, m, noise, adv_eps, delta, eps, seed = {
        "heavy": (20, 1500, 0.1, 0.8, 0.1, 0.8, 12),
        "light": (300, 3000, 0.05, 0.9, 0.05, 0.9, 11),
        "flagged": (24, 300, 0.1, 0.2, 0.5, 1.0, 16),
    }[name]
    plant = plant_klin(n, 3, m, noise, seed=seed)
    return plant.instance, gen_label_advice(plant.x_star, adv_eps, seed=(seed, 1)), delta, eps


class TestMerged:
    @pytest.mark.parametrize("name", ["heavy", "light", "flagged", "empty"])
    def test_same_objective_in_fewer_rows(self, name):
        phi, advice, delta, eps = merge_fixture(name)
        reduced = build_psi(phi, advice, delta, eps)
        merged = reduced.merged
        xs = np.random.default_rng(3).choice([-1, 1], size=(16, phi.n))
        assert merged_failures(reduced, [advice.values, *xs]) == 0
        assert rebuild_failures(merged) == 0
        assert merged.m <= len(reduced.heavy_pairs) + 3 * phi.n
        assert (merged.m == 0) == (name == "empty")
        assert np.array_equal(merged.arity == 2, np.arange(merged.m) < len(reduced.heavy_pairs))

    def test_hand_layout(self):
        # pair (0, 1) is covered t = 6 times; (2, 3, 4) is light
        cons = [((0, 1, v), 1, 1.0) for v in range(2, 8)] + [((2, 3, 4), -1, 1.0)]
        phi = KLinInstance.from_constraints(k=3, n=8, constraints=cons)
        reduced = build_psi(phi, all_ones_advice(8), delta=0.5, epsilon=1.0)
        merged = reduced.merged
        assert reduced.m == 15 and merged.m == 10
        assert merged.idx[:, 0].tolist() == [0, 2, 3, 4, 5, 6, 7, 2, 3, 4]
        assert merged.idx[:, 1].tolist() == [1] + [-1] * 9
        assert merged.rhs.tolist() == [1] * 7 + [-1] * 3
        assert merged.w.tolist() == [6.0] + [1.0] * 9

    def test_zero_votes_keep_rhs_plus_one(self):
        reduced = build_psi(*merge_fixture("flagged"))
        psi, merged, h = reduced.psi, reduced.merged, reduced.heavy_rows
        pairs = len(reduced.heavy_pairs)
        zero_pair = reduced.sigma_pair == 0
        assert zero_pair.any() and np.all(merged.rhs[:pairs][zero_pair] == 1)
        assert np.all(psi.rhs[:h:2][reduced.flagged[:h:2]] == 1)
        # the light rows close merged, one per light variable, ascending
        light = np.unique(psi.idx[h:, 0])
        tail = slice(merged.m - light.size, merged.m)
        assert np.array_equal(merged.idx[tail, 0], light)
        zero_var = np.isin(light, psi.idx[h:, 0][reduced.flagged[h:]])
        assert zero_var.any() and np.all(merged.rhs[tail][zero_var] == 1)
        assert np.all(psi.rhs[h:][reduced.flagged[h:]] == 1)

    @pytest.mark.parametrize("name", ["heavy", "flagged"])
    def test_solver_takes_the_same_steps(self, name):
        phi, advice, delta, eps = merge_fixture(name)
        reduced = build_psi(phi, advice, delta, eps)
        config = TwoLinConfig(hint=advice.values)
        for s in range(6):
            x, w = solve_2lin(reduced.psi, config, (s, 2))
            x_merged, w_merged = solve_2lin(reduced.merged, config, (s, 2))
            assert np.array_equal(x_merged, x) and w_merged == w


class TestSolve:
    @pytest.mark.parametrize("name", ["heavy", "light", "flagged", "empty"])
    def test_solve_never_expands_psi(self, monkeypatch, name):
        # psi, its sources and its flags are grouped by Groups.of when first
        # read; the solver and the diagnostics read only the merged rows
        def refuse(*args):
            raise AssertionError("the solve expanded psi")

        built = []

        def recording(*args, build=max3lin.build_psi):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(max3lin.Groups, "of", refuse)
        monkeypatch.setattr(max3lin, "build_psi", recording)
        phi, advice, delta, eps = merge_fixture(name)
        solve_max3lin_with_advice(phi, advice, delta, eps, seed=1)
        assert not {"psi", "source", "flagged"} & set(vars(built[0]))

    def test_noiseless_small_instance_solved_exactly(self):
        hits = 0
        for s in range(10):
            plant = plant_klin(60, 3, 3600, 0.0, seed=(10, s))
            advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
            res = solve_max3lin_with_advice(plant.instance, advice, delta=0.01, seed=(11, s))
            hits += res.satisfied_fraction == 1.0
        assert hits >= 9

    def test_heavy_implication_audit_clean(self):
        # t = 29, so each plant has heavy pairs for the audit to read
        for s in range(5):
            plant = plant_klin(20, 3, 1500, 0.1, seed=(12, s))
            advice = gen_label_advice(plant.x_star, 0.8, seed=(13, s))
            res = solve_max3lin_with_advice(plant.instance, advice, delta=0.1, seed=(14, s))
            assert res.diagnostics.heavy_pair_count > 0
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
