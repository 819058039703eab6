"""Constructive lift from Max 3-Lin to Max 4-Lin with t fresh variables.

Every arity-3 constraint x_i x_j x_k = c expands into t arity-4 copies
x_i x_j x_k y_r = c, one per new variable y_r.  Setting every y_r = +1
preserves the satisfied fraction exactly; conversely, multiplying a
4-Lin solution through by its best y_r never loses value, because over a
uniform choice of r the average recovered fraction equals the lifted one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .instances import KLinInstance, evaluate, _as_pm1


@dataclass(frozen=True, eq=False)
class FourLinLift:
    """Lifted instance plus the index bookkeeping of the construction."""

    phi4: KLinInstance
    t: int
    n_orig: int

    def new_variable(self, r: int) -> int:
        """Index of y_r (1-based r) in the lifted instance."""
        if not 1 <= r <= self.t:
            raise InputError(f"r must lie in 1..{self.t}")
        return self.n_orig + r - 1


def three_to_four_lin(phi: KLinInstance, t: int) -> FourLinLift:
    """Emit the m * t lifted constraints over n + t variables."""
    if t < 1:
        raise InputError("at least one new variable is required")
    if (phi.arity != 3).any():
        raise InputError("the lift requires arity-3 constraints")
    n = phi.n
    # Constraint c's copy for y_r is row c * t + r.
    idx = np.empty((phi.m * t, 4), dtype=np.int64)
    idx[:, :3] = np.repeat(phi.idx[:, :3], t, axis=0)
    idx[:, 3] = np.tile(n + np.arange(t), phi.m)
    phi4 = KLinInstance(k=4, n=n + t, idx=idx, rhs=np.repeat(phi.rhs, t), w=np.repeat(phi.w, t))
    return FourLinLift(phi4=phi4, t=t, n_orig=n)


def lift_assignment(sigma, t: int) -> np.ndarray:
    """Extend an assignment by t new variables all set to +1."""
    if t < 1:
        raise InputError("at least one new variable is required")
    xv = _as_pm1(sigma, what="assignment")
    return np.concatenate([xv, np.ones(t, dtype=np.int8)])


def project_assignment(sigma_prime, phi: KLinInstance) -> np.ndarray:
    """Fold a lifted solution back onto the original variables.

    Tries sigma_r(x_i) = sigma'(x_i) * sigma'(y_r) for every r and keeps
    the best by satisfied fraction; the average over r equals the lifted
    fraction, so the max never falls below it.
    """
    xv = _as_pm1(sigma_prime, what="lifted assignment")
    t = xv.shape[0] - phi.n
    if t < 1:
        raise InputError(
            f"lifted assignment of length {xv.shape[0]} too short for n={phi.n}"
        )
    base = xv[: phi.n]
    best_x, best_w = None, -1.0
    for r in range(t):
        cand = (base * xv[phi.n + r]).astype(np.int8)
        w, _ = evaluate(phi, cand)
        if w > best_w:
            best_x, best_w = cand, w
    return best_x
