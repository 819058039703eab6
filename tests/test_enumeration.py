import numpy as np
import pytest

from advice_csp.enumeration import enumerate_solve, projected_runs, qp_subset_inner as qp_inner
from advice_csp.errors import BudgetError, InputError
from advice_csp.instances import KLinInstance
from advice_csp.verify import brute_force_best


def chain(n):
    return KLinInstance.from_constraints(k=2, n=n, constraints=tuple(((i, i + 1), 1, 1.0) for i in range(n - 1)))


class TestProjectedRuns:
    def test_binomial_sum(self):
        assert projected_runs(10, 0.2) == 4521

    def test_size_zero(self):
        # floor(2 * 0.04 * 10) = 0: only the empty-advice run
        assert projected_runs(10, 0.04) == 1

    def test_binomial_theorem_case(self):
        assert projected_runs(12, 0.5) == 3**12

    def test_validation(self):
        with pytest.raises(InputError):
            projected_runs(0, 0.5)
        with pytest.raises(InputError):
            projected_runs(10, 0.0)

    def test_cap_boundary(self):
        inst, eps = chain(5), 0.2
        cap = projected_runs(5, eps)
        assert enumerate_solve(inst, eps, qp_inner, seed=0, cap=cap).runs == cap
        with pytest.raises(BudgetError) as err:
            enumerate_solve(inst, eps, qp_inner, seed=0, cap=cap - 1)
        assert str(err.value) == f"enumeration needs {cap} runs, over the cap of {cap - 1}"


class TestEnumerateSolve:
    def test_run_count_matches_projection(self):
        inst = chain(6)
        res = enumerate_solve(inst, 0.25, qp_inner, seed=0)
        assert res.runs == projected_runs(6, 0.25)

    def test_finds_brute_force_optimum(self):
        inst = chain(7)
        res = enumerate_solve(inst, 0.25, qp_inner, seed=1)
        assert res.value == brute_force_best(inst)

    def test_zero_size_single_run(self):
        inst = chain(5)
        res = enumerate_solve(inst, 0.05, qp_inner, seed=2)
        assert res.runs == 1
        assert res.subset == ()

    def test_budget_refusal_names_count(self):
        inst = chain(30)
        with pytest.raises(BudgetError) as err:
            enumerate_solve(inst, 0.5, qp_inner, seed=0, cap=1000)
        assert str(projected_runs(30, 0.5)) in str(err.value)

    def test_deterministic(self):
        inst = chain(6)
        a = enumerate_solve(inst, 0.2, qp_inner, seed=3)
        b = enumerate_solve(inst, 0.2, qp_inner, seed=3)
        assert a.subset == b.subset and a.pattern == b.pattern and a.value == b.value
        assert np.array_equal(a.assignment, b.assignment)

    def test_monotone_in_epsilon(self):
        inst = chain(6)
        small = enumerate_solve(inst, 0.2, qp_inner, seed=4)
        large = enumerate_solve(inst, 0.4, qp_inner, seed=4)
        assert large.value >= small.value

    def test_dominates_true_restriction_runs(self):
        # The best enumerated value is at least the value from any single
        # enumerated pair, in particular the true restriction.
        inst = chain(6)
        res = enumerate_solve(inst, 0.3, qp_inner, seed=5)
        x_true = np.ones(6, dtype=np.int8)
        from advice_csp.advice import SubsetAdvice
        from advice_csp.instances import evaluate

        sub = SubsetAdvice(n=6, indices=np.array([0, 2]), values=x_true[[0, 2]], epsilon=0.3)
        x = qp_inner(inst, sub, (5, 0))
        assert res.value >= evaluate(inst, x)[0]
