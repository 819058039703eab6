"""Hyperplane-rounding solver for weighted Max 2-Lin with unary constraints.

Unary constraints homogenize against a fresh reference variable, the
relaxation embeds each variable as a unit vector and runs block-coordinate
ascent on the low-rank objective sum w_ij (1 + rhs_ij <v_i, v_j>) / 2, and
random-hyperplane rounding signs the vectors.  Best-of-trials plus the
optional hint assignment and a best-single-flip local search close the
gap on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .instances import KLinInstance, evaluate, pair_coefficients, _as_pm1


@dataclass(frozen=True, eq=False)
class UnitEmbedding:
    """One unit row vector per variable."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise InputError("embedding must be a 2-d array")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise InputError("embedding rows must be unit vectors")
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


def _check_arity(instance: KLinInstance, message: str) -> None:
    if (instance.arity > 2).any():
        raise InputError(message)


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
    hom = KLinInstance(k=2, n=instance.n + 1, idx=idx, rhs=instance.rhs, w=instance.w)
    return hom, ref


def dehomogenize(x_full, ref: int) -> np.ndarray:
    """Drop the reference variable, negating everything if it solved to -1."""
    xv = _as_pm1(x_full, what="homogenized assignment")
    out = np.delete(xv, ref)
    return (out * xv[ref]).astype(np.int8)


def merged_coefficients(instance: KLinInstance) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric pair matrix M and unary vector L of an arity<=2 instance.

    Satisfied weight of x equals W/2 + (L.x)/2 + (x.Mx)/4, with parallel
    constraints merged additively.
    """
    _check_arity(instance, "merged coefficients require arity <= 2")
    return pair_coefficients(instance)


def relaxation_objective(instance: KLinInstance, embedding: UnitEmbedding) -> float:
    """sum over constraints of w * (1 + rhs * <v_i, v_j>) / 2."""
    m, lin = merged_coefficients(instance)
    if np.any(lin):
        raise InputError("relaxation objective expects a homogenized instance")
    v = embedding.vectors
    return float(instance.total_weight / 2.0 + 0.25 * np.sum(v * (m @ v)))


def solve_relaxation(
    instance: KLinInstance,
    rank: int,
    sweeps: int,
    seed,
    init: UnitEmbedding | None = None,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> UnitEmbedding:
    """Block-coordinate ascent on the unit-vector relaxation.

    Each variable in turn moves to the normalized gradient direction
    g_i = sum_j rhs_ij w_ij v_j; zero gradients leave the vector frozen.
    The objective never decreases; ascent stops after the sweep budget or
    when a full sweep improves by less than 1e-9 * W.  ``coeffs`` passes
    the instance's ``merged_coefficients`` when the caller already has them.
    """
    if rank < 2:
        raise InputError("relaxation rank must be >= 2")
    n = instance.n
    m, lin = coeffs if coeffs is not None else merged_coefficients(instance)
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
    prev = instance.total_weight / 2.0 + 0.25 * float(np.sum(v * (m @ v)))
    for _ in range(sweeps):
        for i in range(n):
            g = m[i] @ v
            norm = np.linalg.norm(g)
            if norm > 0.0:
                v[i] = g / norm
        cur = instance.total_weight / 2.0 + 0.25 * float(np.sum(v * (m @ v)))
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
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Sign the vectors against random Gaussian directions; keep the best trial.

    sign(0) counts as +1.  Ties in satisfied weight keep the earliest
    trial, which makes the whole procedure deterministic given the seed.
    """
    if trials < 1:
        raise InputError("at least one rounding trial is required")
    if embedding.n != instance.n:
        raise InputError("embedding size does not match the instance")
    m, lin = coeffs if coeffs is not None else merged_coefficients(instance)
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
    best = int(np.argmax(values))
    x = signs[:, best].copy()
    weight, _ = evaluate(instance, x)
    return x, weight


def _flip_search(
    instance: KLinInstance,
    x: np.ndarray,
    cap_factor: int = 10,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Repeated best-single-flip improvement on the satisfied weight."""
    m, lin = coeffs if coeffs is not None else merged_coefficients(instance)
    x = x.astype(np.float64)
    mx = m @ x
    tol = 1e-9 * max(1.0, instance.total_weight)
    for _ in range(cap_factor * max(1, instance.n)):
        gains = -x * (lin + mx)
        best = int(np.argmax(gains))
        if gains[best] <= tol:
            break
        x[best] = -x[best]
        mx += 2.0 * x[best] * m[:, best]
    return x.astype(np.int8)


def solve_2lin(
    instance: KLinInstance,
    config: TwoLinConfig = TwoLinConfig(),
    seed=0,
) -> tuple[np.ndarray, float]:
    """Homogenize, relax, round, then polish; returns (assignment, weight).

    The homogenized pair matrix is built once: the relaxation and the
    rounding use it whole, and the flip search reads the original pair
    matrix and unary vector off its top-left block and last column.
    """
    _check_arity(instance, "solve_2lin accepts arity <= 2 only")
    n = instance.n
    if instance.m == 0:
        return np.ones(n, dtype=np.int8), 0.0
    hom, ref = homogenize(instance)
    coeffs = merged_coefficients(hom)
    rank = config.rank if config.rank is not None else math.ceil(math.sqrt(2 * n)) + 1
    rank = max(2, rank)
    embedding = solve_relaxation(hom, rank, config.sweeps, seed, coeffs=coeffs)
    x_hom, _ = hyperplane_round(hom, embedding, config.trials, (seed, 1), coeffs=coeffs)
    candidates = [dehomogenize(x_hom, ref)]
    if config.hint is not None:
        candidates.append(_as_pm1(config.hint, n, what="hint assignment"))
    best_x, best_w = None, -math.inf
    for cand in candidates:
        w, _ = evaluate(instance, cand)
        if w > best_w:
            best_x, best_w = cand, w
    hom_m = coeffs[0]
    polished = _flip_search(instance, best_x, coeffs=(hom_m[:n, :n], hom_m[:n, ref]))
    w, _ = evaluate(instance, polished)
    if w >= best_w:
        best_x, best_w = polished, w
    return best_x, best_w
