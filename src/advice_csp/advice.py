"""Noisy oracle advice: epsilon-correlated labels and revealed subsets.

Label advice agrees with the ground truth coordinatewise with probability
(1 + epsilon) / 2, so the per-coordinate agreement bias E[adv_i * x*_i]
equals epsilon.  Subset advice reveals exact values on a random
epsilon-fraction of coordinates.  All generation is a pure function of
(inputs, seed); only the statistics are portable across RNGs, not the
bitstreams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .instances import _as_pm1, _unchecked

_PM1 = np.array([-1, 1], dtype=np.int8)


def _check_epsilon(epsilon: float) -> float:
    eps = float(epsilon)
    if not 0.0 < eps <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    return eps


@dataclass(frozen=True, eq=False)
class LabelAdvice:
    """A +-1 label per variable, biased toward the ground truth by epsilon."""

    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "values", _as_pm1(self.values, what="advice labels"))
        _check_epsilon(self.epsilon)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SubsetAdvice:
    """Exact ground-truth values revealed on a subset of the variables."""

    n: int
    indices: np.ndarray
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"advice length must be >= 0, got {self.n}")
        idx = np.asarray(self.indices)
        if idx.ndim != 1:
            raise InputError("revealed index set must be one-dimensional")
        if idx.size and idx.dtype.kind not in "iu":
            raise InputError("revealed indices must be integers")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InputError("revealed index out of range")
        if np.unique(idx).size != idx.size:
            raise InputError("revealed indices must be distinct")
        order = np.argsort(idx)
        vals = _as_pm1(self.values, what="revealed values")
        if vals.shape[0] != idx.shape[0]:
            raise InputError("one revealed value required per revealed index")
        object.__setattr__(self, "indices", idx[order])
        object.__setattr__(self, "values", vals[order])
        _check_epsilon(self.epsilon)

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])


def gen_label_advice(x_star, epsilon: float, seed) -> LabelAdvice:
    """Draw label advice around a ground-truth assignment.

    Coordinates are independent; each agrees with x* with probability
    (1 + epsilon) / 2.
    """
    eps = _check_epsilon(epsilon)
    xs = _as_pm1(x_star, what="ground truth")
    rng = np.random.default_rng(seed)
    disagree = rng.random(xs.shape[0]) < (1.0 - eps) / 2.0
    values = np.where(disagree, -xs, xs).astype(np.int8)
    return LabelAdvice(values=values, epsilon=eps)


def gen_subset_advice(x_star, epsilon: float, seed) -> SubsetAdvice:
    """Reveal each coordinate of x* independently with probability epsilon."""
    eps = _check_epsilon(epsilon)
    xs = _as_pm1(x_star, what="ground truth")
    rng = np.random.default_rng(seed)
    included = rng.random(xs.shape[0]) < eps
    idx = np.flatnonzero(included)
    return SubsetAdvice(n=xs.shape[0], indices=idx, values=xs[idx], epsilon=eps)


def subset_to_label(advice: SubsetAdvice, seed) -> LabelAdvice:
    """Convert subset advice to label advice of the same correlation.

    Revealed coordinates are copied exactly; the rest are uniform +-1, so
    the induced agreement probability is (1 + epsilon) / 2.  The draw is
    the stream of ``rng.choice(_PM1, size=n)`` on a generator seeded with
    ``seed``, taken without ``choice``'s overhead.  The labels are a fresh
    +-1 int8 array and the epsilon is checked, so the advice is built
    unchecked.
    """
    values = _PM1[np.random.default_rng(seed).integers(0, 2, size=advice.n)]
    values[advice.indices] = advice.values
    return _unchecked(LabelAdvice, values=values, epsilon=advice.epsilon)


def empirical_correlation(advice: LabelAdvice, x_star) -> float:
    """Estimate the agreement bias: mean of adv_i * x*_i."""
    xs = _as_pm1(x_star, advice.n, what="ground truth")
    return float(np.mean(advice.values.astype(np.int64) * xs))
