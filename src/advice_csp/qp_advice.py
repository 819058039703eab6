"""Quadratic form maximization guided by label advice.

Given a symmetric zero-diagonal matrix A and advice labels y with
correlation epsilon, the solver maximizes the concave surrogate

    F(x, y) = <x, Ay> - ||A(eps*x - y)||_1      over x in [-1, 1]^n,

then rounds the fractional optimizer coordinate-by-coordinate without
ever decreasing <x, Ax>.  The surrogate maximization is an exact linear
program, so the optimum is certified rather than approximated.

The l1 penalty is split by sign (the form l1 simplex methods use,
Barrodale & Roberts 1973).  With b = Ay and u = eps*Ax - b, let sigma_r
be the sign of u_r at x = -1 (ties +1) and write the penalty variable
s_r >= |u_r| as s_r = sigma_r u_r + w_r.  Then s_r >= sigma_r u_r is the
bound w_r >= 0, s_r >= -sigma_r u_r is one row, 2 sigma_r u_r + w_r >= 0,
and the program over (x, w) is

    maximize (b - eps A^T sigma).x - sum(w) + sigma.b
    s.t.     2 eps sigma_r A_r.x + w_r >= 2 sigma_r b_r   for each r,
             x in [-1, 1]^n,  w >= 0,

with the same optimum value as F.  It has n rows, and ``solve_lp``
starts every variable at its lower bound: x = -1 and w = 0, where row r
holds with slack 2|u_r|.  The slack basis is therefore feasible and
phase 1 never runs.

Each QpMatrix carries this solver's memo (``QpMatrix.memo``): the variable
box, built once, and the answers of ``solve_2lin_with_advice``, the
rounded x and its satisfied weight per (epsilon, bytes of the labels).
Answers are kept only on the matrix ``to_quadratic_matrix`` returns, which
is one instance's own cached matrix; that is why a weight, which depends
on the instance and not only on A, may live there.  No LP optimum is
kept: the rows depend on the labels through sigma, so they are built per
solve.
Subset-advice enumeration solves the same label vector many times on one
instance; a hit returns a copy of the stored x and its weight without the
LP, the rounding, the identity value or the recount, and every stored
answer has passed the identity-versus-recount check when it was solved.
The memo is bounded: each stored answer is charged the bytes of its x,
its key's bytes and _ENTRY_BYTES for the Python objects around it, and
once MEMO_BYTES would be exceeded, new answers are computed and returned
but not stored.  In the worst case a matrix therefore holds 16 MiB
(MEMO_BYTES) of memo besides its O(n) box, that is at most
MEMO_BYTES / (2 n + _ENTRY_BYTES) answers, for as long as the matrix
lives.  The memo takes no lock: concurrent calls on one matrix may solve
one label vector twice.
"""

from __future__ import annotations

import math

import numpy as np

from .advice import LabelAdvice, _check_epsilon
from .errors import InputError, InternalError
from .instances import (
    KLinInstance,
    QpMatrix,
    _readonly,
    evaluate,
    quadratic_identity_value,
    to_quadratic_matrix,
)
from .lp import LinearProgram, solve_lp

MEMO_BYTES = 16 << 20
_ENTRY_BYTES = 256  # charged per stored array for the Python objects around it


def _check_point(x, n, what="point") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise InputError(f"{what} has shape {v.shape}, expected ({n},)")
    if not np.all(np.abs(v) <= 1.0 + 1e-9):  # also rejects NaN
        raise InputError(f"{what} must lie in [-1, 1]^n")
    return np.clip(v, -1.0, 1.0)


def advice_objective(A: QpMatrix, x, y, epsilon: float) -> float:
    """F(x, y) = <x, Ay> - ||A(eps*x - y)||_1."""
    _check_epsilon(epsilon)
    n = A.n
    xv = _check_point(x, n, "x")
    yv = _check_point(y, n, "y")
    return float(xv @ (A.a @ yv) - np.abs(A.a @ (epsilon * xv - yv)).sum())


class _Memo:
    """One matrix's surrogate LP box, and the 2-Lin answers by (epsilon,
    label bytes) when the matrix is an instance's."""

    def __init__(self, n: int):
        self.lo = _readonly(np.concatenate([-np.ones(n), np.zeros(n)]), np.float64)
        self.hi = _readonly(np.concatenate([np.ones(n), np.full(n, math.inf)]), np.float64)
        self.answers: dict[tuple[float, bytes], tuple[np.ndarray, float]] = {}
        self.charged = 0

    def keep(self, key: tuple[float, bytes], x: np.ndarray, weight: float) -> None:
        """Store a read-only copy of x with its weight under key if the budget allows."""
        cost = len(key[1]) + x.nbytes + _ENTRY_BYTES
        if self.charged + cost <= MEMO_BYTES:
            self.answers[key] = (_readonly(x, np.int8), weight)
            self.charged += cost


def _memo(A: QpMatrix) -> _Memo:
    memo = A.memo.get(__name__)
    if memo is None:
        memo = A.memo[__name__] = _Memo(A.n)
    return memo


def maximize_concave(A: QpMatrix, y, epsilon: float) -> np.ndarray:
    """Exact maximizer of F(., y) over the solid cube, via LP reformulation.

    Variables are (x, w), one row per coordinate of A(eps*x - y); the
    module docstring derives the program and why it starts feasible.
    Every call solves its LP: only the variable box is kept on the matrix,
    and answers are memoized a layer up, by ``solve_2lin_with_advice``.
    """
    _check_epsilon(epsilon)
    n = A.n
    yv = _check_point(y, n, "advice labels")
    memo = _memo(A)
    eps = float(epsilon)
    b = A.a @ yv
    # The sign of u = eps*Ax - b at x = -1, where the simplex starts x.
    sigma = np.where(A.a @ np.full(n, -eps) - b >= 0.0, 1.0, -1.0)
    lp = LinearProgram(
        c=np.concatenate([b - eps * (sigma @ A.a), -np.ones(n)]),
        rows=np.hstack([(2.0 * eps) * sigma[:, None] * A.a, np.eye(n)]),
        row_lo=2.0 * sigma * b,
        lo=memo.lo,
        hi=memo.hi,
        offset=float(sigma @ b),
    )
    out = solve_lp(lp)
    if not out.is_optimal:
        raise InternalError(f"concave surrogate LP ended {out.status}")
    return np.clip(out.x[:n], -1.0, 1.0)


def greedy_round(A: QpMatrix, x) -> np.ndarray:
    """Round a fractional point to +-1 without decreasing <x, Ax>.

    Coordinates are fixed in ascending index order; each moves to the
    endpoint favored by the (linear) slope with the rest held fixed, ties
    to +1.  Zero diagonal makes the form linear in each coordinate, which
    is what guarantees monotonicity.
    """
    n = A.n
    cur = _check_point(x, n, "fractional point")
    for i in range(n):
        slope = float(A.a[i] @ cur)
        cur[i] = 1.0 if slope >= 0.0 else -1.0
    return cur.astype(np.int8)


def solve_qp_with_advice(A: QpMatrix, advice: LabelAdvice) -> tuple[np.ndarray, float]:
    """Maximize <x, Ax> over +-1 labelings using advice; deterministic."""
    if advice.n != A.n:
        raise InputError(f"advice length {advice.n} does not match matrix size {A.n}")
    frac = maximize_concave(A, advice.values.astype(np.float64), advice.epsilon)
    rounded = greedy_round(A, frac)
    return rounded, A.form_value(rounded)


def solve_2lin_with_advice(
    instance: KLinInstance, advice: LabelAdvice
) -> tuple[np.ndarray, float]:
    """Solve a weighted Max 2-Lin instance with label advice.

    The instance maps onto its coefficient matrix, the quadratic solver
    runs, and the satisfied weight is reported through the W/2 + <x,Ax>/4
    identity cross-checked against a direct recount.  Answers are memoized
    on the instance's matrix by (epsilon, label bytes) (see the module
    docstring); every call returns a fresh x.
    """
    if (instance.arity != 2).any():
        raise InputError("advice-guided 2-Lin solver requires arity-2 constraints")
    if advice.n != instance.n:
        raise InputError(f"advice length {advice.n} does not match variable count {instance.n}")
    if instance.m == 0:
        x = np.ones(instance.n, dtype=np.int8)
        return x, 0.0
    A = to_quadratic_matrix(instance)
    memo = _memo(A)
    key = (float(advice.epsilon), advice.values.tobytes())
    hit = memo.answers.get(key)
    if hit is not None:
        return hit[0].copy(), hit[1]
    x, _ = solve_qp_with_advice(A, advice)
    via_identity = quadratic_identity_value(instance, A, x)
    via_recount, _ = evaluate(instance, x)
    if abs(via_identity - via_recount) > 1e-6 * max(1.0, instance.total_weight):
        raise InternalError(
            f"identity value {via_identity} disagrees with recount {via_recount}"
        )
    memo.keep(key, x, via_recount)
    return x, via_recount
