import numpy as np
import pytest

from advice_csp import twolin_sdp
from advice_csp.errors import InputError
from advice_csp.instances import KLinInstance, evaluate, plant_klin, to_quadratic_matrix
from advice_csp.twolin_sdp import (
    TwoLinConfig,
    UnitEmbedding,
    dehomogenize,
    homogenize,
    hyperplane_round,
    merged_coefficients,
    relaxation_objective,
    solve_2lin,
    solve_relaxation,
)
from advice_csp.verify import (
    ascent_decreases,
    brute_force_best,
    dehomogenization_failures,
    random_2lin,
    rounding_dominance_failures,
)


class TestHomogenize:
    def test_unary_becomes_pair(self):
        inst = KLinInstance.from_constraints(k=1, n=1, constraints=(((0,), 1, 1.0),))
        hom, ref = homogenize(inst)
        assert ref == 1 and hom.n == 2
        assert hom.idx.tolist() == [[0, 1]]
        assert hom.rhs.tolist() == [1] and hom.w.tolist() == [1.0]
        for pattern in ([1, 1], [-1, -1]):
            assert evaluate(hom, np.array(pattern))[0] == 1.0
            assert dehomogenize(np.array(pattern, dtype=np.int8), ref)[0] == 1

    def test_passthrough_without_unary(self):
        rng = np.random.default_rng(0)
        inst = random_2lin(rng, 5, 8)
        hom, ref = homogenize(inst)
        assert hom.n == 6
        for col in ("idx", "rhs", "w"):
            assert np.array_equal(getattr(hom, col), getattr(inst, col))

    def test_weight_preserved(self):
        rng = np.random.default_rng(1)
        inst = KLinInstance.from_constraints(
            k=2, n=4,
            constraints=(((0,), 1, 2.0), ((1,), -1, 0.5), ((2, 3), 1, 1.0)),
        )
        xs = [rng.choice([-1, 1], size=5).astype(np.int8) for _ in range(20)]
        assert dehomogenization_failures(inst, xs) == 0

    def test_rejects_arity_three(self):
        inst = KLinInstance.from_constraints(k=3, n=3, constraints=(((0, 1, 2), 1, 1.0),))
        with pytest.raises(InputError):
            homogenize(inst)


class TestRelaxation:
    def test_antipodal_pair(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), -1, 1.0),))
        emb = solve_relaxation(inst, rank=3, sweeps=100, seed=0)
        assert float(emb.vectors[0] @ emb.vectors[1]) == pytest.approx(-1.0, abs=1e-6)

    def test_ascent_monotone_across_warm_starts(self):
        inst = random_2lin(np.random.default_rng(2), 10, 25)
        assert ascent_decreases(inst, rank=4, seed=3, steps=15) == 0

    def test_satisfiable_plant_reaches_total_weight(self):
        plant = plant_klin(30, 2, 120, 0.0, seed=4)
        hom, _ = homogenize(plant.instance)
        emb = solve_relaxation(hom, rank=9, sweeps=300, seed=5)
        assert relaxation_objective(hom, emb) >= plant.instance.total_weight * (1 - 1e-6)

    def test_rank_validation(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 1.0),))
        with pytest.raises(InputError):
            solve_relaxation(inst, rank=1, sweeps=10, seed=0)


class TestHyperplaneRound:
    def test_antipodal_always_satisfied(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), -1, 1.0),))
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        for s in range(10):
            _, w = hyperplane_round(inst, UnitEmbedding(vectors=v), trials=1, seed=s)
            assert w == 1.0

    def test_identical_vectors_equal_signs(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 1.0),))
        v = np.array([[0.6, 0.8], [0.6, 0.8]])
        for s in range(10):
            x, w = hyperplane_round(inst, UnitEmbedding(vectors=v), trials=1, seed=s)
            assert w == 1.0 and x[0] == x[1]

    def test_best_of_trials_dominates(self):
        rng = np.random.default_rng(6)
        inst = random_2lin(rng, 8, 20)
        hom, _ = homogenize(inst)
        emb = solve_relaxation(hom, rank=4, sweeps=40, seed=7)
        assert rounding_dominance_failures(hom, emb, trials=16, seed=8) == 0

    def test_relaxation_dominates_integral(self):
        rng = np.random.default_rng(9)
        inst = random_2lin(rng, 10, 30)
        hom, _ = homogenize(inst)
        emb = solve_relaxation(hom, rank=5, sweeps=200, seed=10)
        assert rounding_dominance_failures(hom, emb, trials=50, seed=11) == 0


class TestSolve2Lin:
    def test_satisfiable_chain_found(self):
        cons = tuple(((i, i + 1), 1, 1.0) for i in range(7))
        inst = KLinInstance.from_constraints(k=2, n=8, constraints=cons)
        hits = 0
        for s in range(10):
            _, w = solve_2lin(inst, TwoLinConfig(rank=4, trials=64), seed=s)
            hits += w == 7.0
        assert hits >= 9

    def test_empty_instance(self):
        inst = KLinInstance.from_constraints(k=2, n=4, constraints=())
        x, w = solve_2lin(inst, TwoLinConfig(), seed=0)
        assert w == 0.0 and x.shape == (4,)

    @pytest.mark.parametrize("field, value, message", [
        ("rank", 1, "relaxation rank must be >= 2"),
        ("rank", -3, "relaxation rank must be >= 2"),
        ("sweeps", -5, "relaxation sweep count must be >= 0"),
        ("trials", 0, "at least one rounding trial is required"),
        ("trials", -1, "at least one rounding trial is required"),
    ])
    def test_config_rejects_out_of_range_values(self, field, value, message):
        with pytest.raises(InputError, match=message):
            TwoLinConfig(**{field: value})

    def test_config_accepts_the_smallest_legal_values(self):
        inst = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), -1, 1.0),))
        _, w = solve_2lin(inst, TwoLinConfig(rank=2, sweeps=0, trials=1), seed=0)
        assert w == 1.0

    def test_near_optimal_on_small_instances(self):
        rng = np.random.default_rng(12)
        hits = 0
        for s in range(10):
            n = int(rng.integers(6, 13))
            inst = random_2lin(rng, n, int(rng.integers(n, 3 * n)))
            _, w = solve_2lin(inst, TwoLinConfig(), seed=s)
            hits += w >= 0.85 * brute_force_best(inst)
        assert hits >= 9

    def test_noiseless_plant_fully_satisfied(self):
        plant = plant_klin(40, 2, 200, 0.0, seed=13)
        _, w = solve_2lin(plant.instance, TwoLinConfig(), seed=14)
        assert w == plant.instance.total_weight

    def test_hint_is_used(self):
        plant = plant_klin(20, 2, 80, 0.0, seed=15)
        config = TwoLinConfig(rank=2, sweeps=1, trials=1, hint=plant.x_star)
        _, w = solve_2lin(plant.instance, config, seed=16)
        assert w == plant.instance.total_weight

    def test_duplicates_count_with_multiplicity(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 1.0),) * 3)
        _, w = solve_2lin(inst, TwoLinConfig(), seed=17)
        assert w == 3.0

    def test_rejects_arity_three(self):
        inst = KLinInstance.from_constraints(k=3, n=3, constraints=(((0, 1, 2), 1, 1.0),))
        with pytest.raises(InputError):
            solve_2lin(inst, TwoLinConfig(), seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        inst = random_2lin(rng, 12, 30)
        a = solve_2lin(inst, TwoLinConfig(), seed=19)
        b = solve_2lin(inst, TwoLinConfig(), seed=19)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_merged_coefficients_identity():
    rng = np.random.default_rng(20)
    inst = KLinInstance.from_constraints(
        k=2, n=5,
        constraints=(((0,), 1, 2.0), ((1, 2), -1, 1.5), ((1, 2), -1, 0.5), ((3, 4), 1, 1.0)),
    )
    m, lin = merged_coefficients(inst)
    assert m[1, 2] == pytest.approx(-2.0)
    assert lin[0] == pytest.approx(2.0)
    for _ in range(20):
        x = rng.choice([-1, 1], size=5).astype(np.float64)
        want, _ = evaluate(inst, x.astype(np.int8))
        got = inst.total_weight / 2 + 0.5 * float(lin @ x) + 0.25 * float(x @ m @ x)
        assert got == pytest.approx(want, abs=1e-9)


def test_solve_2lin_builds_coefficients_once(monkeypatch):
    # relaxation, rounding and flip search all read one homogenized matrix
    builds = []
    prop = KLinInstance.__dict__["pair_matrix"]
    build = prop.func

    def counting(instance):
        builds.append(instance.n)
        return build(instance)

    monkeypatch.setattr(prop, "func", counting)
    inst = KLinInstance.from_constraints(
        k=2, n=4, constraints=(((0,), 1, 1.0), ((1, 2), -1, 1.0), ((2, 3), 1, 2.0)))
    solve_2lin(inst, TwoLinConfig(), seed=3)
    assert builds == [inst.n + 1]


def test_coefficients_are_cached_read_only_and_shared_with_the_quadratic_matrix():
    inst = random_2lin(np.random.default_rng(22), 6, 15)
    m, lin = merged_coefficients(inst)
    assert to_quadratic_matrix(inst).a is m
    assert merged_coefficients(inst)[1] is lin
    with pytest.raises(ValueError):
        m[0, 1] = 1.0
    with pytest.raises(ValueError):
        lin[0] = 1.0


def test_embedding_rejects_nan_and_infinite_rows():
    for bad in ([[np.nan, 0.0], [1.0, 0.0]], [[np.inf, 0.0], [1.0, 0.0]],
                [[np.inf, np.nan], [1.0, 0.0]], [[1.0, 0.0], [0.6, np.nan]]):
        with pytest.raises(InputError):
            UnitEmbedding(vectors=bad)
    assert UnitEmbedding(vectors=[[0.6, 0.8], [1.0, 0.0]]).n == 2


def random_unary(rng, n, m):
    """Unary-only instance with dyadic weights, so every weight sum is exact.

    Variable 0 gets only canceling votes (L_0 = 0) and variable n - 1 none;
    the others may repeat, cancel or go unused too."""
    ids = rng.integers(1, n - 1, size=m)
    cons = [((int(i),), int(rng.choice([-1, 1])), float(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])))
            for i in ids]
    cons += [((0,), 1, 1.25), ((0,), -1, 0.5), ((0,), -1, 0.75)]
    return KLinInstance.from_constraints(k=2, n=n, constraints=cons)


class TestUnaryShortcut:
    def test_weighted_majority_is_optimal_and_ties_go_to_plus_one(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            inst = random_unary(rng, n, int(rng.integers(1, 3 * n)))
            lin = merged_coefficients(inst)[1]
            best = brute_force_best(inst)
            for s in range(3):
                x, w = solve_2lin(inst, TwoLinConfig(), seed=s)
                assert w == best == evaluate(inst, x)[0]
                assert np.array_equal(x, np.where(lin >= 0, 1, -1))
                assert x[0] == 1 and x[n - 1] == 1

    def test_tied_variable_is_plus_one_under_every_seed(self):
        inst = KLinInstance.from_constraints(
            k=1, n=3, constraints=(((0,), 1, 1.0), ((1,), -1, 2.0)))
        for s in range(10):
            x, w = solve_2lin(inst, TwoLinConfig(), seed=s)
            assert x.tolist() == [1, -1, 1] and w == 3.0

    @pytest.mark.parametrize("constraints", [(((0,), 1, 1.0),), ()], ids=["unary", "empty"])
    def test_checks_config_like_the_relaxation_path(self, constraints):
        inst = KLinInstance.from_constraints(k=2, n=3, constraints=constraints)
        with pytest.raises(InputError, match="hint assignment has length 2"):
            solve_2lin(inst, TwoLinConfig(hint=np.ones(2, dtype=np.int8)), seed=0)
        with pytest.raises(InputError, match="hint assignment entries"):
            solve_2lin(inst, TwoLinConfig(hint=[1, 0, 1]), seed=0)

    def test_skips_matrix_relaxation_rounding_and_flips(self, monkeypatch):
        calls = []
        homogenize_ = twolin_sdp.homogenize

        def counting(instance):
            calls.append("homogenize")
            return homogenize_(instance)

        def forbidden(*args, **kwargs):
            raise AssertionError("the unary path must not reach this")

        monkeypatch.setattr(twolin_sdp, "homogenize", counting)
        for name in ("merged_coefficients", "solve_relaxation", "hyperplane_round", "_flip_search"):
            monkeypatch.setattr(twolin_sdp, name, forbidden)
        inst = KLinInstance.from_constraints(
            k=2, n=4, constraints=(((0,), 1, 1.0), ((2,), -1, 2.0), ((0,), -1, 0.5)))
        x, w = solve_2lin(inst, TwoLinConfig(hint=np.ones(4, dtype=np.int8)), seed=3)
        assert calls == ["homogenize"]
        assert x.tolist() == [1, 1, -1, 1] and w == 3.0
