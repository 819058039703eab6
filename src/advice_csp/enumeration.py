"""Deterministic simulation of subset advice by exhaustive enumeration.

Running an advice-consuming solver once per (subset, value pattern) with
subsets up to size floor(2 * epsilon * n) dominates a random advice draw,
because with high probability the true advice restricted to its subset is
among the enumerated pairs.  The run count grows like 2^(eps log(4/eps) n),
so a hard cap refuses oversized enumerations instead of truncating them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .advice import SubsetAdvice, _check_epsilon, subset_to_label
from .errors import BudgetError, InputError
from .instances import KLinInstance, evaluate, _as_pm1, _frozen, _unchecked
from .qp_advice import solve_2lin_with_advice
from .twolin_sdp import TwoLinConfig, solve_2lin

DEFAULT_CAP = 10_000_000

InnerSolver = Callable[[KLinInstance, SubsetAdvice, object], np.ndarray]


def qp_subset_inner(instance: KLinInstance, subset, seed) -> np.ndarray:
    """Enumeration inner solver: qp-advice on ``subset_to_label(subset, seed)``."""
    return solve_2lin_with_advice(instance, subset_to_label(subset, seed))[0]


def twolin_subset_inner(instance: KLinInstance, subset, seed) -> np.ndarray:
    """Enumeration inner solver: twolin-sdp hinted with ``subset_to_label(subset, seed)``,
    its own randomness on ``seed``."""
    return solve_2lin(instance, TwoLinConfig(hint=subset_to_label(subset, seed).values),
                      seed=seed)[0]


# The ``enumerate --inner`` choices.
INNER_SOLVERS: dict[str, InnerSolver] = {
    "qp-advice": qp_subset_inner,
    "twolin-sdp": twolin_subset_inner,
}


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    assignment: np.ndarray
    value: float
    subset: tuple[int, ...]
    pattern: tuple[int, ...]
    runs: int


def projected_runs(n: int, epsilon: float) -> int:
    """Exact run count: sum over t <= floor(2 eps n) of C(n, t) * 2^t."""
    if n < 1:
        raise InputError("variable count must be >= 1")
    _check_epsilon(epsilon)
    return sum(math.comb(n, t) * (1 << t) for t in range(_max_subset_size(n, epsilon) + 1))


def _max_subset_size(n: int, epsilon: float) -> int:
    return min(n, math.floor(2.0 * epsilon * n))


def enumerate_solve(
    instance: KLinInstance,
    epsilon: float,
    inner: InnerSolver,
    seed=0,
    cap: int = DEFAULT_CAP,
) -> EnumerationResult:
    """Try every subset of size <= floor(2 eps n) and every +-1 pattern on it.

    Subsets enumerate smaller sizes first and lexicographically within a
    size; patterns enumerate in (-1, +1) product order.  Each run gets a
    seed derived from (seed, ordinal), so shared prefixes across epsilon
    values see identical runs.  The best assignment by satisfied weight
    wins; ties keep the earliest run.  Each run's advice is built unchecked
    over read-only sorted, distinct int64 indices and +-1 int8 values.
    """
    n = instance.n
    projected = projected_runs(n, epsilon)
    if projected > cap:
        raise BudgetError(f"enumeration needs {projected} runs, over the cap of {cap}")
    best_x, best_value, best_subset, best_pattern = None, -math.inf, (), ()
    ordinal = 0
    for size in range(_max_subset_size(n, epsilon) + 1):
        patterns = list(itertools.product((-1, 1), repeat=size))
        rows = _frozen(np.array(patterns, dtype=np.int8).reshape(len(patterns), size), np.int8)
        for subset in itertools.combinations(range(n), size):
            # sorted and distinct, as combinations gives them; the advice
            # shares these read-only arrays across the subset's patterns
            idx = _frozen(np.array(subset, dtype=np.int64), np.int64)
            for pattern, values in zip(patterns, rows):
                advice = _unchecked(SubsetAdvice, n=n, indices=idx, values=values, epsilon=epsilon)
                x = _as_pm1(inner(instance, advice, (seed, ordinal)), n, "inner result")
                value, _ = evaluate(instance, x)
                if best_x is None or value > best_value:
                    best_x, best_value = x, value
                    best_subset, best_pattern = subset, pattern
                ordinal += 1
    return EnumerationResult(
        assignment=best_x,
        value=best_value,
        subset=best_subset,
        pattern=best_pattern,
        runs=ordinal,
    )
