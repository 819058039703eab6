"""Hyperplane-rounding solver for weighted Max 2-Lin with unary constraints.

Unary constraints homogenize against a fresh reference variable, the
relaxation embeds each variable as a unit vector and runs block-coordinate
ascent on the low-rank objective sum w_ij (1 + rhs_ij <v_i, v_j>) / 2, and
random-hyperplane rounding signs the vectors.  Best-of-trials plus the
optional hint assignment and a best-single-flip local search close the
gap on small instances.

An instance without pair constraints is solved exactly instead: each
variable stands alone and takes the sign of L_i, the rhs * weight sum of
its unary constraints (the reference column of the homogenized pair
matrix), with ties, such as a variable in no constraint, going to +1.
No pair matrix is built and nothing is drawn from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .instances import KLinInstance, evaluate, _as_pm1


@dataclass(frozen=True, eq=False)
class UnitEmbedding:
    """One unit row vector per variable."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise InputError("embedding must be a 2-d array")
        norms = np.linalg.norm(v, axis=1)
        # written so that a NaN or infinite norm fails too
        if not np.all(np.abs(norms - 1.0) <= 1e-8):
            raise InputError("embedding rows must be finite unit vectors")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class TwoLinConfig:
    rank: int | None = None
    sweeps: int = 200
    trials: int = 100
    hint: np.ndarray | None = None

    def __post_init__(self):
        if self.rank is not None and self.rank < 2:
            raise InputError("relaxation rank must be >= 2")
        if self.sweeps < 0:
            raise InputError(f"relaxation sweep count must be >= 0, got {self.sweeps}")
        _check_trials(self.trials)


def _check_arity(instance: KLinInstance, message: str) -> None:
    if (instance.arity > 2).any():
        raise InputError(message)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise InputError("at least one rounding trial is required")


def homogenize(instance: KLinInstance) -> tuple[KLinInstance, int]:
    """Rewrite unary constraints x_k = s as x_k * x_ref = s.

    The reference variable is appended at index n.  Satisfied weight is
    invariant: if a solution sets the reference to -1, negating every
    variable restores it to +1 without changing any parity.
    """
    _check_arity(instance, "homogenization accepts arity 1 or 2 only")
    ref = instance.n
    idx = np.full((instance.m, 2), ref, dtype=np.int64)
    idx[:, : min(instance.k, 2)] = instance.idx[:, :2]
    idx[instance.arity == 1, 1] = ref
    hom = KLinInstance._derived(2, instance.n + 1, idx, instance.rhs, instance.w,
                                arity=np.full(instance.m, 2),
                                total_weight=instance.total_weight)
    return hom, ref


def dehomogenize(x_full, ref: int) -> np.ndarray:
    """Drop the reference variable, negating everything if it solved to -1."""
    xv = _as_pm1(x_full, what="homogenized assignment")
    out = np.delete(xv, ref)
    return (out * xv[ref]).astype(np.int8)


def merged_coefficients(instance: KLinInstance) -> tuple[np.ndarray, np.ndarray]:
    """The instance's cached pair matrix M and unary vector L, arity <= 2 only.

    Satisfied weight of x equals W/2 + (L.x)/2 + (x.Mx)/4, with parallel
    constraints merged additively.
    """
    _check_arity(instance, "merged coefficients require arity <= 2")
    return instance.pair_matrix, instance.unary_vector


def _relaxation_value(total_weight: float, m: np.ndarray, v: np.ndarray) -> float:
    return float(total_weight / 2.0 + 0.25 * np.sum(v * (m @ v)))


def relaxation_objective(instance: KLinInstance, embedding: UnitEmbedding) -> float:
    """sum over constraints of w * (1 + rhs * <v_i, v_j>) / 2."""
    m, lin = merged_coefficients(instance)
    if np.any(lin):
        raise InputError("relaxation objective expects a homogenized instance")
    return _relaxation_value(instance.total_weight, m, embedding.vectors)


def solve_relaxation(
    instance: KLinInstance,
    rank: int,
    sweeps: int,
    seed,
    init: UnitEmbedding | None = None,
) -> UnitEmbedding:
    """Block-coordinate ascent on the unit-vector relaxation.

    Each variable in turn moves to the normalized gradient direction
    g_i = sum_j rhs_ij w_ij v_j; zero gradients leave the vector frozen.
    The objective never decreases; ascent stops after the sweep budget or
    when a full sweep improves by less than 1e-9 * W.
    """
    if rank < 2:
        raise InputError("relaxation rank must be >= 2")
    n = instance.n
    m, lin = merged_coefficients(instance)
    if np.any(lin):
        raise InputError("solve_relaxation expects a homogenized instance")
    rng = np.random.default_rng(seed)
    if init is not None:
        if init.n != n or init.rank != rank:
            raise InputError("warm start has the wrong shape")
        v = init.vectors.copy()
    else:
        v = rng.standard_normal((n, rank))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    w_total = max(instance.total_weight, 1.0)
    prev = _relaxation_value(instance.total_weight, m, v)
    for _ in range(sweeps):
        for i in range(n):
            g = m[i] @ v
            norm = np.linalg.norm(g)
            if norm > 0.0:
                v[i] = g / norm
        cur = _relaxation_value(instance.total_weight, m, v)
        if cur < prev - 1e-9 * w_total:
            raise InternalError("relaxation ascent decreased the objective")
        if cur - prev < 1e-9 * w_total:
            prev = cur
            break
        prev = cur
    return UnitEmbedding(vectors=v)


def hyperplane_round(
    instance: KLinInstance,
    embedding: UnitEmbedding,
    trials: int,
    seed,
) -> tuple[np.ndarray, float]:
    """Sign the vectors against random Gaussian directions; keep the best trial.

    sign(0) counts as +1.  Ties in satisfied weight keep the earliest
    trial, which makes the whole procedure deterministic given the seed.
    Returns the kept signs and their satisfied weight.
    """
    x = _round_signs(instance, embedding, trials, seed)
    weight, _ = evaluate(instance, x)
    return x, weight


def _round_signs(
    instance: KLinInstance, embedding: UnitEmbedding, trials: int, seed
) -> np.ndarray:
    """``hyperplane_round``'s kept signs, without evaluating them."""
    _check_trials(trials)
    if embedding.n != instance.n:
        raise InputError("embedding size does not match the instance")
    m, lin = merged_coefficients(instance)
    v = embedding.vectors
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((trials, embedding.rank))
    signs = np.where(v @ dirs.T >= 0.0, 1, -1).astype(np.int8)  # (n, trials)
    ms = m @ signs
    values = (
        instance.total_weight / 2.0
        + 0.5 * (lin @ signs)
        + 0.25 * np.sum(signs * ms, axis=0)
    )
    return signs[:, int(np.argmax(values))].copy()


def _flip_search(
    instance: KLinInstance, x: np.ndarray, m: np.ndarray, lin: np.ndarray
) -> np.ndarray:
    """Repeated best-single-flip improvement on the satisfied weight, at
    most 10 n flips; m and lin are the instance's merged coefficients."""
    x = x.astype(np.float64)
    mx = m @ x
    tol = 1e-9 * max(1.0, instance.total_weight)
    for _ in range(10 * max(1, instance.n)):
        gains = -x * (lin + mx)
        best = int(np.argmax(gains))
        if gains[best] <= tol:
            break
        x[best] = -x[best]
        mx += 2.0 * x[best] * m[:, best]
    return x.astype(np.int8)


def _solve_unary(instance: KLinInstance, config: TwoLinConfig) -> tuple[np.ndarray, float]:
    """Weighted majority per variable, the exact optimum of an instance
    whose constraints are all unary.

    L_i sums rhs * weight over the constraints on i in constraint order,
    as the homogenized pair matrix's reference column does, and x_i = +1
    where L_i >= 0.  No hint can beat this and no single flip gains, so
    those steps are skipped; the hint is checked as the relaxation path
    checks it.
    """
    x = np.where(instance.unary_vector >= 0, 1, -1).astype(np.int8)
    weight, _ = evaluate(instance, x)
    if config.hint is not None:
        _as_pm1(config.hint, instance.n, what="hint assignment")
    return x, weight


def solve_2lin(
    instance: KLinInstance,
    config: TwoLinConfig = TwoLinConfig(),
    seed=0,
) -> tuple[np.ndarray, float]:
    """Homogenize, relax, round, then polish; returns (assignment, weight).

    The homogenized instance builds its pair matrix once: the relaxation
    and the rounding use it whole, and the flip search reads the original
    pair matrix and unary vector off its top-left block and last column.  When
    every homogenized pair touches the reference, ``_solve_unary`` answers
    exactly instead.
    """
    _check_arity(instance, "solve_2lin accepts arity <= 2 only")
    n = instance.n
    hom, ref = homogenize(instance)
    if (hom.idx[:, 1] == ref).all():  # also an empty instance: all +1, weight 0
        return _solve_unary(instance, config)
    rank = config.rank if config.rank is not None else math.ceil(math.sqrt(2 * n)) + 1
    embedding = solve_relaxation(hom, rank, config.sweeps, seed)
    x_hom = _round_signs(hom, embedding, config.trials, (seed, 1))
    candidates = [dehomogenize(x_hom, ref)]
    if config.hint is not None:
        candidates.append(_as_pm1(config.hint, n, what="hint assignment"))
    best_x, best_w = None, -math.inf
    for cand in candidates:
        w, _ = evaluate(instance, cand)
        if w > best_w:
            best_x, best_w = cand, w
    polished = _flip_search(instance, best_x, hom.pair_matrix[:n, :n], hom.pair_matrix[:n, ref])
    w, _ = evaluate(instance, polished)
    if w >= best_w:
        best_x, best_w = polished, w
    return best_x, best_w
