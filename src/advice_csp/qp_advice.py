"""Quadratic form maximization guided by label advice.

Given a symmetric zero-diagonal matrix A and advice labels y with
correlation epsilon, the solver maximizes the concave surrogate

    F(x, y) = <x, Ay> - ||A(eps*x - y)||_1      over x in [-1, 1]^n,

then rounds the fractional optimizer coordinate-by-coordinate without
ever decreasing <x, Ax>.  The surrogate maximization is an exact linear
program: auxiliary variables s_r >= +-(A(eps*x - y))_r linearize the
l1 penalty, so the optimum is certified rather than approximated.
"""

from __future__ import annotations

import math

import numpy as np

from .advice import LabelAdvice
from .errors import InputError, InternalError
from .instances import (
    KLinInstance,
    QpMatrix,
    evaluate,
    quadratic_identity_value,
    to_quadratic_matrix,
)
from .lp import LinearProgram, RangedRow, solve_lp


def _check_point(x, n, what="point") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise InputError(f"{what} has shape {v.shape}, expected ({n},)")
    if np.any(np.abs(v) > 1.0 + 1e-9):
        raise InputError(f"{what} must lie in [-1, 1]^n")
    return np.clip(v, -1.0, 1.0)


def advice_objective(A: QpMatrix, x, y, epsilon: float) -> float:
    """F(x, y) = <x, Ay> - ||A(eps*x - y)||_1."""
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    n = A.n
    xv = _check_point(x, n, "x")
    yv = _check_point(y, n, "y")
    return float(xv @ (A.a @ yv) - np.abs(A.a @ (epsilon * xv - yv)).sum())


def maximize_concave(A: QpMatrix, y, epsilon: float) -> np.ndarray:
    """Exact maximizer of F(., y) over the solid cube, via LP reformulation.

    Variables are (x, s); rows enforce s_r >= (A(eps*x - y))_r and
    s_r >= -(A(eps*x - y))_r, and the objective is <x, Ay> - sum(s).
    """
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    n = A.n
    yv = _check_point(y, n, "advice labels")
    b = A.a @ yv
    c = np.concatenate([b, -np.ones(n)])
    rows = []
    eye = np.eye(n)
    upper = np.hstack([epsilon * A.a, -eye])
    lower = np.hstack([-epsilon * A.a, -eye])
    for r in range(n):
        rows.append(RangedRow(a=upper[r], hi=float(b[r])))
        rows.append(RangedRow(a=lower[r], hi=float(-b[r])))
    lp = LinearProgram(
        c=c,
        rows=tuple(rows),
        lo=np.concatenate([-np.ones(n), np.zeros(n)]),
        hi=np.concatenate([np.ones(n), np.full(n, math.inf)]),
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
    identity cross-checked against a direct recount.
    """
    if (instance.arity != 2).any():
        raise InputError("advice-guided 2-Lin solver requires arity-2 constraints")
    if instance.m == 0:
        x = np.ones(instance.n, dtype=np.int8)
        return x, 0.0
    A = to_quadratic_matrix(instance)
    x, _ = solve_qp_with_advice(A, advice)
    via_identity = quadratic_identity_value(instance, A, x)
    via_recount, _ = evaluate(instance, x)
    if abs(via_identity - via_recount) > 1e-6 * max(1.0, instance.total_weight):
        raise InternalError(
            f"identity value {via_identity} disagrees with recount {via_recount}"
        )
    return x, via_recount
