import math

import numpy as np
import pytest

from advice_csp import qp_advice
from advice_csp.advice import LabelAdvice, gen_label_advice
from advice_csp.errors import InputError
from advice_csp.instances import KLinInstance, QpMatrix
from advice_csp.lp import LinearProgram, _expand_rows, solve_lp
from advice_csp.qp_advice import (
    advice_objective,
    greedy_round,
    maximize_concave,
    solve_2lin_with_advice,
    solve_qp_with_advice,
)
from advice_csp.verify import (
    brute_force_best,
    brute_force_qp_max,
    concavity_failures,
    form_dominance_failures,
    grid_sandwich_failures,
    qp_ceiling_violations,
    random_qp,
    rank_one_qp,
    rounding_decreases,
)


class TestObjective:
    def test_hand_computation(self):
        A = QpMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert advice_objective(A, [1.0, 1.0], [1.0, 1.0], 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.5])
    def test_rejects_point_off_the_cube(self, bad):
        A = QpMatrix([[0, 1], [1, 0]])
        with pytest.raises(InputError):
            advice_objective(A, [bad, 0.0], [1.0, 1.0], 0.5)
        with pytest.raises(InputError):
            advice_objective(A, [1.0, 1.0], [0.0, bad], 0.5)

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
        assert concavity_failures(np.random.default_rng(2), 50, 8) == 0

    def test_form_dominates_scaled_objective(self):
        assert form_dominance_failures(np.random.default_rng(3), 50, 8) == 0


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
        assert grid_sandwich_failures(np.random.default_rng(5), 5) == 0

    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(6)
        n = 6
        A, xs = rank_one_qp(rng, n)
        xf = maximize_concave(A, xs.astype(np.float64), 1.0)
        assert advice_objective(A, xf, xs.astype(np.float64), 1.0) == pytest.approx(
            n * (n - 1), abs=1e-6
        )


class TestSurrogateMemo:
    @staticmethod
    def lps_solved(monkeypatch):
        lps, solve_lp = [], qp_advice.solve_lp

        def recording(lp):
            lps.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(qp_advice, "solve_lp", recording)
        return lps

    def test_repeat_call_hits_and_returns_a_fresh_array(self, monkeypatch):
        lps = self.lps_solved(monkeypatch)
        A = random_qp(np.random.default_rng(30), 6)
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        first = maximize_concave(A, y, 0.4)
        second = maximize_concave(A, y, 0.4)
        assert len(lps) == 1 and first.tobytes() == second.tobytes()
        keep = second.copy()
        first[:] = 0.25
        assert np.array_equal(maximize_concave(A, y, 0.4), keep)
        assert np.array_equal(second, keep)
        maximize_concave(A, y, 0.5)  # another epsilon is another key
        assert len(lps) == 2

    def test_cached_box_is_read_only(self, monkeypatch):
        lps = self.lps_solved(monkeypatch)
        A = random_qp(np.random.default_rng(31), 4)
        for y in (np.ones(4), -np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])):
            maximize_concave(A, y, 0.5)
        assert lps[1].lo is lps[2].lo and lps[1].hi is lps[2].hi
        for arr in (lps[1].lo, lps[1].hi):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    def test_budget_stops_growth_without_changing_answers(self, monkeypatch):
        rng = np.random.default_rng(32)
        n = 5
        a = random_qp(rng, n).a
        ys = [rng.choice([-1.0, 1.0], size=n) for _ in range(12)]
        want = [maximize_concave(QpMatrix(a), y, 0.3) for y in ys]
        # room for two optima
        optimum_cost = 2 * 8 * n + qp_advice._ENTRY_BYTES
        monkeypatch.setattr(qp_advice, "MEMO_BYTES", 2 * optimum_cost)
        A = QpMatrix(a)
        for _ in range(2):
            got = [maximize_concave(A, y, 0.3) for y in ys]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        memo = A.memo[qp_advice.__name__]
        assert len(memo.optima) == 2
        assert memo.charged <= qp_advice.MEMO_BYTES


def two_row_lp(A, y, eps):
    """The surrogate LP with s_r >= +-(A(eps*x - y))_r as two rows each."""
    n, b = A.n, A.a @ y
    return LinearProgram(c=np.concatenate([b, -np.ones(n)]),
                         rows=np.block([[eps * A.a, -np.eye(n)], [-eps * A.a, -np.eye(n)]]),
                         row_hi=np.concatenate([b, -b]),
                         lo=np.concatenate([-np.ones(n), np.zeros(n)]),
                         hi=np.concatenate([np.ones(n), np.full(n, math.inf)]))


class TestSurrogateFormulation:
    @staticmethod
    def solved(monkeypatch):
        """(lp, outcome) of each surrogate LP ``maximize_concave`` solves."""
        solved, solve = [], qp_advice.solve_lp

        def capture(lp):
            solved.append((lp, solve(lp)))
            return solved[-1][1]

        monkeypatch.setattr(qp_advice, "solve_lp", capture)
        return solved

    def test_matches_the_two_row_lp_without_phase_one(self, monkeypatch):
        # Sparse rows, isolated vertices and fractional labels make presolve
        # drop many rows.
        solved = self.solved(monkeypatch)
        rng = np.random.default_rng(40)
        zero_rows = dropped = 0
        for k in range(240):
            n = int(rng.integers(2, 41))
            a = random_qp(rng, n).a * (rng.random((n, n)) < rng.choice([0.1, 0.5, 1.0]))
            a = np.triu(a, 1) + np.triu(a, 1).T
            isolated = rng.random(n) < 0.2
            a[isolated], a[:, isolated] = 0.0, 0.0
            y = (rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5
                 else rng.uniform(-1.0, 1.0, size=n))
            A, eps = QpMatrix(a), float(1.0 - rng.random())  # eps in (0, 1]
            maximize_concave(A, y, eps)
            lp, out = solved[k]
            reference = solve_lp(two_row_lp(A, y, eps))
            assert out.is_optimal and reference.is_optimal
            assert not out.phase1_used and lp.rows.shape[0] == n
            assert abs(out.value - reference.value) <= 1e-9 * max(1.0, abs(reference.value))
            zero_rows += bool(np.any(np.all(lp.rows[:, :n] == 0.0, axis=1)))
            dropped += _expand_rows(lp)[0].shape[0] < n
        assert len(solved) == 240 and zero_rows >= 100 and dropped >= 200

    def test_rank_one_runs_without_phase_one(self, monkeypatch):
        solved = self.solved(monkeypatch)
        A, xs = rank_one_qp(np.random.default_rng(41), 30)
        y = gen_label_advice(xs, 0.5, seed=41).values.astype(np.float64)
        maximize_concave(A, y, 0.5)
        (lp, out), = solved
        assert not out.phase1_used and lp.rows.shape[0] == 30
        reference = solve_lp(two_row_lp(A, y, 0.5))
        assert reference.phase1_used
        assert abs(out.value - reference.value) <= 1e-9 * max(1.0, abs(reference.value))


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
        # n is always 20: a one-value range draws nothing from the rng
        assert rounding_decreases(np.random.default_rng(8), 500, 20, 21) == 0

    def test_rejects_vector_outside_cube(self):
        A = QpMatrix(np.zeros((2, 2)))
        with pytest.raises(InputError):
            greedy_round(A, np.array([1.5, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            greedy_round(QpMatrix([[0, 1], [1, 0]]), [math.nan, 0.0])


class TestSolveQp:
    def test_rank_one_epsilon_one(self):
        rng = np.random.default_rng(9)
        A, xs = rank_one_qp(rng, 4)
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
        assert qp_ceiling_violations(np.random.default_rng(10), 25, 11) == 0

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

    def test_empty_instance_checks_advice_length(self):
        # the advice is checked before the m == 0 shortcut, as it is for m > 0
        for cons in ((), (((0, 1), 1, 1.0),)):
            inst = KLinInstance.from_constraints(k=2, n=5, constraints=cons)
            adv = LabelAdvice(values=np.ones(3, dtype=np.int8), epsilon=0.5)
            with pytest.raises(InputError, match="advice length 3"):
                solve_2lin_with_advice(inst, adv)

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
        A, xs = rank_one_qp(rng, n)
        values = []
        for s in range(draws):
            adv = gen_label_advice(xs, eps, seed=(21, s))
            _, v = solve_qp_with_advice(A, adv)
            values.append(v)
        floor = n * (n - 1) - math.sqrt(n) * A.frobenius / eps
        assert float(np.mean(values)) >= floor
