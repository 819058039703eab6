import itertools
import math

import numpy as np
import pytest

from advice_csp.advice import LabelAdvice, gen_label_advice
from advice_csp.errors import InputError
from advice_csp.instances import KLinInstance, QpMatrix
from advice_csp.qp_advice import (
    advice_objective,
    greedy_round,
    maximize_concave,
    solve_2lin_with_advice,
    solve_qp_with_advice,
)
from advice_csp.verify import brute_force_best, brute_force_qp_max


def random_qp(rng, n):
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return QpMatrix(a)


def rank_one_plant(rng, n):
    xs = rng.choice([-1, 1], size=n).astype(np.int8)
    a = np.outer(xs, xs).astype(np.float64)
    np.fill_diagonal(a, 0.0)
    return QpMatrix(a), xs


class TestObjective:
    def test_hand_computation(self):
        A = QpMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert advice_objective(A, [1.0, 1.0], [1.0, 1.0], 0.5) == pytest.approx(1.0)

    def test_zero_matrix(self):
        A = QpMatrix(np.zeros((3, 3)))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            y = rng.choice([-1.0, 1.0], size=3)
            assert advice_objective(A, x, y, 0.7) == 0.0

    def test_penalty_vanishes_at_epsilon_one(self):
        rng = np.random.default_rng(1)
        A = random_qp(rng, 5)
        y = rng.choice([-1.0, 1.0], size=5)
        assert advice_objective(A, y, y, 1.0) == pytest.approx(float(y @ A.a @ y))

    def test_concavity_probe(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            A = random_qp(rng, n)
            eps = float(rng.uniform(0.1, 1.0))
            y = rng.choice([-1.0, 1.0], size=n)
            x1, x2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
            mid = advice_objective(A, (x1 + x2) / 2, y, eps)
            avg = (advice_objective(A, x1, y, eps) + advice_objective(A, x2, y, eps)) / 2
            assert mid >= avg - 1e-9

    def test_form_dominates_scaled_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            A = random_qp(rng, n)
            eps = float(rng.uniform(0.1, 1.0))
            x = rng.uniform(-1, 1, size=n)
            y = rng.uniform(-1, 1, size=n)
            assert float(x @ A.a @ x) >= advice_objective(A, x, y, eps) / eps - 1e-9


class TestMaximizeConcave:
    def test_dominates_the_generating_point(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            A = random_qp(rng, n)
            eps = float(rng.uniform(0.2, 1.0))
            xs = rng.choice([-1.0, 1.0], size=n)
            y = rng.choice([-1.0, 1.0], size=n)
            xf = maximize_concave(A, y, eps)
            assert advice_objective(A, xf, y, eps) >= advice_objective(A, xs, y, eps) - 1e-7

    def test_grid_oracle_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 4
            A = random_qp(rng, n)
            eps = 0.5
            y = rng.choice([-1.0, 1.0], size=n)
            grid_best = max(
                advice_objective(A, np.array(pt), y, eps)
                for pt in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=n)
            )
            got = advice_objective(A, maximize_concave(A, y, eps), y, eps)
            lipschitz = float(np.abs(A.a @ y).sum() + eps * np.abs(A.a).sum())
            assert grid_best - 1e-9 <= got <= grid_best + 0.25 * lipschitz + 1e-9

    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(6)
        n = 6
        A, xs = rank_one_plant(rng, n)
        xf = maximize_concave(A, xs.astype(np.float64), 1.0)
        assert advice_objective(A, xf, xs.astype(np.float64), 1.0) == pytest.approx(
            n * (n - 1), abs=1e-6
        )


class TestGreedyRound:
    def test_hand_example(self):
        A = QpMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = greedy_round(A, np.array([0.5, 1.0]))
        assert np.array_equal(out, [1, 1])
        assert A.form_value(out) == 2.0

    def test_endpoints_fixed(self):
        rng = np.random.default_rng(7)
        A = random_qp(rng, 6)
        x = rng.choice([-1.0, 1.0], size=6)
        # Sign vectors whose slopes agree with their own signs stay put;
        # verify the invariant the spec states instead: +-1 inputs whose
        # value cannot improve coordinatewise are returned unchanged when
        # already locally optimal.
        rounded = greedy_round(A, x)
        assert set(np.unique(rounded)).issubset({-1, 1})
        assert A.form_value(rounded) >= float(x @ A.a @ x) - 1e-9

    def test_ties_break_positive(self):
        A = QpMatrix(np.zeros((3, 3)))
        assert np.array_equal(greedy_round(A, np.zeros(3)), [1, 1, 1])

    def test_never_decreases_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = 20
            A = random_qp(rng, n)
            x = rng.uniform(-1, 1, size=n)
            assert A.form_value(greedy_round(A, x)) >= float(x @ A.a @ x) - 1e-9

    def test_rejects_vector_outside_cube(self):
        A = QpMatrix(np.zeros((2, 2)))
        with pytest.raises(InputError):
            greedy_round(A, np.array([1.5, 0.0]))


class TestSolveQp:
    def test_rank_one_epsilon_one(self):
        rng = np.random.default_rng(9)
        A, xs = rank_one_plant(rng, 4)
        adv = LabelAdvice(values=xs, epsilon=1.0)
        _, value = solve_qp_with_advice(A, adv)
        assert value == pytest.approx(12.0)
        assert brute_force_qp_max(A) == pytest.approx(12.0)

    def test_zero_matrix(self):
        A = QpMatrix(np.zeros((4, 4)))
        adv = LabelAdvice(values=np.ones(4, dtype=np.int8), epsilon=0.5)
        _, value = solve_qp_with_advice(A, adv)
        assert value == 0.0

    def test_never_beats_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            A = random_qp(rng, n)
            adv = LabelAdvice(values=rng.choice([-1, 1], size=n).astype(np.int8),
                              epsilon=float(rng.uniform(0.2, 1.0)))
            _, value = solve_qp_with_advice(A, adv)
            assert value <= brute_force_qp_max(A) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        A = random_qp(rng, 8)
        adv = LabelAdvice(values=rng.choice([-1, 1], size=8).astype(np.int8), epsilon=0.6)
        x1, v1 = solve_qp_with_advice(A, adv)
        x2, v2 = solve_qp_with_advice(A, adv)
        assert np.array_equal(x1, x2) and v1 == v2


class TestSolve2Lin:
    def test_satisfiable_chain(self):
        cons = tuple(((i, i + 1), 1, 1.0) for i in range(5))
        inst = KLinInstance.from_constraints(k=2, n=6, constraints=cons)
        adv = LabelAdvice(values=np.ones(6, dtype=np.int8), epsilon=1.0)
        _, weight = solve_2lin_with_advice(inst, adv)
        assert weight == 6 - 1
        assert brute_force_best(inst) == 5.0

    def test_single_constraint_always_satisfied(self):
        rng = np.random.default_rng(12)
        for s in range(10):
            rhs = int(rng.choice([-1, 1]))
            inst = KLinInstance.from_constraints(k=2, n=4, constraints=(((1, 3), rhs, 2.0),))
            adv = gen_label_advice(rng.choice([-1, 1], size=4), 0.5, seed=s)
            _, weight = solve_2lin_with_advice(inst, adv)
            assert weight == 2.0

    def test_empty_instance(self):
        inst = KLinInstance.from_constraints(k=2, n=3, constraints=())
        adv = LabelAdvice(values=np.ones(3, dtype=np.int8), epsilon=0.5)
        x, weight = solve_2lin_with_advice(inst, adv)
        assert weight == 0.0 and x.shape == (3,)

    def test_rejects_unary(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0,), 1, 1.0),))
        adv = LabelAdvice(values=np.ones(2, dtype=np.int8), epsilon=0.5)
        with pytest.raises(InputError):
            solve_2lin_with_advice(inst, adv)

    def test_statistical_guarantee_band(self):
        # Rank-one plant at modest size: the mean recovered value stays
        # above the planted value minus sqrt(n) * frobenius / epsilon.
        rng = np.random.default_rng(13)
        n, eps, draws = 60, 0.5, 12
        A, xs = rank_one_plant(rng, n)
        values = []
        for s in range(draws):
            adv = gen_label_advice(xs, eps, seed=(21, s))
            _, v = solve_qp_with_advice(A, adv)
            values.append(v)
        floor = n * (n - 1) - math.sqrt(n) * A.frobenius / eps
        assert float(np.mean(values)) >= floor
