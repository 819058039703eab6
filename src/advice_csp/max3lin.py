"""Max 3-Lin with label advice via reduction to weighted Max 2-Lin.

Variable pairs covered by at least t = ceil(8 * eps^-2 * ln(1/delta))
constraints are heavy.  For each heavy pair the advice votes a relative
sign sigma_ij and the reduction emits one pair constraint plus one unary
constraint per covering source; for each light constraint the advice
votes an absolute sign sigma_i at each of its three variables and the
reduction emits one unary constraint per (variable, source).  A vote that
sums to zero keeps rhs +1 but is flagged and counted as always violated.
Solving the reduced instance and returning its assignment unchanged is
the whole algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advice import LabelAdvice
from .errors import InputError
from .instances import KLinInstance, evaluate, satisfied_mask
from .twolin_sdp import TwoLinConfig, solve_2lin

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Groups:
    """Constraint positions grouped by an integer key, in CSR layout.

    Group g has key ``keys[g]`` (ascending, distinct) and holds the
    positions ``members[offsets[g]:offsets[g + 1]]``, ascending.
    """

    keys: np.ndarray
    offsets: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, keys: np.ndarray, positions: np.ndarray) -> Groups:
        """Group ``positions`` by nonnegative ``keys``, keeping their order
        within each group (a stable sort)."""
        size = keys.size
        if size and (int(keys.max()) + 1) * size < 2**63:
            # key * size + rank is distinct, so a plain sort of it is stable;
            # several times faster than the stable argsort below.
            order = np.sort(keys * size + np.arange(size)) % size
        else:
            order = np.argsort(keys, kind="stable")
        sk = keys[order]
        starts = np.flatnonzero(np.diff(sk, prepend=-1))
        return cls(sk[starts], np.append(starts, sk.size), positions[order])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def group_of(self) -> np.ndarray:
        """Group index of every entry of ``members``."""
        return np.repeat(np.arange(self.keys.size), self.sizes)

    def members_of(self, key: int) -> np.ndarray:
        g = int(np.searchsorted(self.keys, key))
        if g == self.keys.size or self.keys[g] != key:
            return self.members[:0]
        return self.members[self.offsets[g]:self.offsets[g + 1]]


@dataclass(frozen=True, eq=False)
class PairIncidence:
    """Constraint positions per unordered variable pair, with heavy flags.

    Pair (i, j), i < j, has key i * n + j, so key order is pair order.
    """

    threshold: int
    n: int
    by_pair: Groups
    heavy: np.ndarray  # per group: covered by at least ``threshold`` constraints

    def members(self, pair: Pair) -> np.ndarray:
        return self.by_pair.members_of(min(pair) * self.n + max(pair))

    def is_heavy(self, pair: Pair) -> bool:
        return self.members(pair).size >= self.threshold

    @property
    def heavy_pairs(self) -> np.ndarray:
        """(h, 2) array of the heavy pairs, ascending."""
        keys = self.by_pair.keys[self.heavy]
        return np.stack([keys // self.n, keys % self.n], axis=1)


@dataclass(frozen=True, eq=False)
class LightSets:
    """Light-constraint positions per variable (constraints containing it)."""

    by_var: Groups
    light_mask: np.ndarray


@dataclass(frozen=True, eq=False)
class Representatives:
    """Reduced constraints of one vote family, in emission order.

    Rows carry ``idx`` (-1 padded, two columns), ``rhs``, the original
    constraint ``source`` and ``flagged`` (their vote summed to zero);
    ``sigma`` holds one vote per group, 0 where it summed to zero.
    """

    idx: np.ndarray
    rhs: np.ndarray
    source: np.ndarray
    flagged: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """The reduced 2-Lin instance with its bookkeeping.

    ``source[r]`` is the index of the original constraint represented by
    reduced constraint r; ``flagged[r]`` marks zero-vote constraints that
    count as violated no matter the assignment.  ``sigma_pair`` holds the
    vote of each heavy pair (aligned with ``heavy_pairs``) and
    ``sigma_var`` the light vote of each variable; a vote that summed to
    zero, or a variable without light constraints, reads 0.
    """

    psi: KLinInstance
    source: np.ndarray
    flagged: np.ndarray
    threshold: int
    heavy_pairs: np.ndarray
    heavy_mask: np.ndarray
    sigma_pair: np.ndarray
    sigma_var: np.ndarray

    @property
    def m(self) -> int:
        return self.psi.m


def compute_threshold(delta: float, epsilon: float) -> int:
    """t = ceil(8 * eps^-2 * ln(1/delta)), the heavy-pair cutoff."""
    if not 0.0 < delta <= 0.5:
        raise InputError(f"delta must lie in (0, 1/2], got {delta}")
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    return max(1, math.ceil(8.0 * math.log(1.0 / delta) / (epsilon * epsilon)))


def _require_arity3(phi: KLinInstance):
    if (phi.arity != 3).any():
        raise InputError("this pipeline requires arity-3 constraints")


def classify_constraints(phi: KLinInstance, t: int) -> tuple[PairIncidence, LightSets]:
    """Split constraints into heavy and light by pair coverage.

    A pair is heavy when it appears in at least t constraints; a
    constraint is heavy when any of its three pairs is heavy.
    """
    _require_arity3(phi)
    if t < 1:
        raise InputError("threshold must be >= 1")
    n, idx = phi.n, phi.idx[:, :3]
    lo = np.minimum(idx[:, [0, 0, 1]], idx[:, [1, 2, 2]])
    hi = np.maximum(idx[:, [0, 0, 1]], idx[:, [1, 2, 2]])
    positions = np.repeat(np.arange(phi.m), 3)
    by_pair = Groups.of((lo * n + hi).ravel(), positions)
    heavy = by_pair.sizes >= t
    heavy_mask = np.zeros(phi.m, dtype=bool)
    heavy_mask[by_pair.members[np.repeat(heavy, by_pair.sizes)]] = True
    light = np.flatnonzero(~heavy_mask)
    by_var = Groups.of(idx[light].ravel(), np.repeat(light, 3))
    incidence = PairIncidence(threshold=t, n=n, by_pair=by_pair, heavy=heavy)
    return incidence, LightSets(by_var=by_var, light_mask=~heavy_mask)


def _signs(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, zero): sgn of each vote with 0 counted as +1, and vote == 0."""
    return np.where(votes >= 0, 1, -1).astype(np.int8), votes == 0


def create_h_constraints(
    incidence: PairIncidence, advice: LabelAdvice, phi: KLinInstance
) -> Representatives:
    """Representatives of every heavy pair, pairs ascending.

    Pair (i, j) votes sigma = sgn(sum over members of rhs * label of the
    third variable); each member, ascending, contributes the pair
    constraint x_i x_j = sigma followed by the unary pinning
    x_k = sigma * rhs.
    """
    labels = advice.values.astype(np.int64)
    groups = incidence.by_pair
    pick = np.repeat(incidence.heavy, groups.sizes)
    pos = groups.members[pick]
    group = np.cumsum(incidence.heavy)[groups.group_of()[pick]] - 1
    pairs = incidence.heavy_pairs
    i, j = pairs[group, 0], pairs[group, 1]
    third = phi.idx[pos, :3].sum(axis=1) - i - j
    rhs = phi.rhs[pos].astype(np.int64)
    votes = np.bincount(group, weights=rhs * labels[third], minlength=len(pairs))
    sigma, zero = _signs(votes)
    rows = np.empty((2 * pos.size, 2), dtype=np.int64)
    rows[0::2, 0], rows[0::2, 1] = i, j
    rows[1::2, 0], rows[1::2, 1] = third, -1
    rep_rhs = np.repeat(sigma[group], 2)
    rep_rhs[1::2] *= rhs.astype(np.int8)
    return Representatives(
        idx=rows,
        rhs=rep_rhs,
        source=np.repeat(pos, 2),
        flagged=np.repeat(zero[group], 2),
        sigma=np.where(zero, 0, sigma).astype(np.int8),
    )


def create_l_constraints(
    lights: LightSets, advice: LabelAdvice, phi: KLinInstance
) -> Representatives:
    """Representatives of every variable's light constraints, variables ascending.

    Variable v votes sigma = sgn(sum over members of rhs * product of the
    other two labels); each member, ascending, contributes one copy of
    x_v = sigma.  ``sigma`` is indexed by variable.
    """
    labels = advice.values.astype(np.int64)
    groups = lights.by_var
    pos = groups.members
    group = groups.group_of()
    var = groups.keys[group]
    # The other two labels' product is the constraint's product times label[var].
    prod = labels[phi.idx[pos, 0]] * labels[phi.idx[pos, 1]] * labels[phi.idx[pos, 2]]
    contrib = phi.rhs[pos].astype(np.int64) * prod * labels[var]
    votes = np.bincount(group, weights=contrib, minlength=groups.keys.size)
    sigma, zero = _signs(votes)
    sigma_var = np.zeros(phi.n, dtype=np.int8)
    sigma_var[groups.keys] = np.where(zero, 0, sigma)
    return Representatives(
        idx=np.stack([var, np.full(pos.size, -1, dtype=np.int64)], axis=1),
        rhs=sigma[group],
        source=pos,
        flagged=zero[group],
        sigma=sigma_var,
    )


def build_psi(
    phi: KLinInstance, advice: LabelAdvice, delta: float, epsilon: float
) -> ReducedInstance:
    """Assemble the reduced weighted 2-Lin instance with unit multiplicities.

    Heavy pairs emit in sorted pair order, then variables in ascending
    order emit their light representatives, so the construction is a
    deterministic function of (instance, advice).
    """
    _require_arity3(phi)
    if advice.n != phi.n:
        raise InputError(f"advice length {advice.n} does not match n={phi.n}")
    t = compute_threshold(delta, epsilon)
    incidence, lights = classify_constraints(phi, t)
    heavy = create_h_constraints(incidence, advice, phi)
    light = create_l_constraints(lights, advice, phi)
    m = heavy.source.size + light.source.size
    psi = KLinInstance(
        k=2,
        n=phi.n,
        idx=np.concatenate([heavy.idx, light.idx]),
        rhs=np.concatenate([heavy.rhs, light.rhs]),
        w=np.ones(m),
    )
    return ReducedInstance(
        psi=psi,
        source=np.concatenate([heavy.source, light.source]),
        flagged=np.concatenate([heavy.flagged, light.flagged]),
        threshold=t,
        heavy_pairs=incidence.heavy_pairs,
        heavy_mask=~lights.light_mask,
        sigma_pair=heavy.sigma,
        sigma_var=light.sigma,
    )


def conservative_psi_value(reduced: ReducedInstance, x) -> float:
    """Satisfied weight of the reduced instance, counting flagged as violated."""
    if reduced.m == 0:
        return 0.0
    sat = satisfied_mask(reduced.psi, x) & ~reduced.flagged
    return float(reduced.psi.w[sat].sum())


@dataclass(eq=False)
class Max3LinDiagnostics:
    threshold: int
    heavy_pair_count: int
    heavy_constraint_count: int
    light_constraint_count: int
    psi_size: int
    sigma_zero_count: int
    psi_value: float
    psi_fraction: float
    unsat_total: int
    unsat_heavy: int
    unsat_light: int
    heavy_implication_violations: int
    in_guarantee: bool


@dataclass(eq=False)
class Max3LinResult:
    assignment: np.ndarray
    satisfied_fraction: float
    diagnostics: Max3LinDiagnostics


def _heavy_implication_violations(
    phi: KLinInstance, reduced: ReducedInstance, x_hat: np.ndarray
) -> int:
    """Count heavy sources where a satisfied representative couple fails to
    imply the source; algebraically this must always be zero.

    Heavy representatives are emitted in adjacent (pair, unary) couples
    sharing a heavy source; a couple starts at each such pair row.
    """
    sat_psi = satisfied_mask(reduced.psi, x_hat) & ~reduced.flagged
    sat_phi = satisfied_mask(phi, x_hat)
    src = reduced.source
    start = np.flatnonzero(
        (reduced.psi.arity[:-1] == 2) & (src[1:] == src[:-1]) & reduced.heavy_mask[src[:-1]]
    )
    return int(np.count_nonzero(sat_psi[start] & sat_psi[start + 1] & ~sat_phi[src[start]]))


def solve_max3lin_with_advice(
    phi: KLinInstance,
    advice: LabelAdvice,
    delta: float,
    epsilon: float | None = None,
    seed=0,
    config: TwoLinConfig | None = None,
) -> Max3LinResult:
    """End-to-end advice pipeline for nearly satisfiable Max 3-Lin.

    ``epsilon`` defaults to the advice's own parameter.  The reduced
    instance feeds the 2-Lin solver with the advice labels as its hint;
    the 2-Lin solution is returned unchanged as the 3-Lin answer.
    """
    _require_arity3(phi)
    eps = advice.epsilon if epsilon is None else epsilon
    reduced = build_psi(phi, advice, delta, eps)
    if config is None:
        config = TwoLinConfig(hint=advice.values)
    x_hat, _ = solve_2lin(reduced.psi, config, seed)
    _, fraction = evaluate(phi, x_hat)
    sat_phi = satisfied_mask(phi, x_hat)
    unsat = ~sat_phi
    psi_value = conservative_psi_value(reduced, x_hat)
    psi_total = reduced.psi.total_weight if reduced.m else 1.0
    floor = math.log(1.0 / delta) / delta / eps**6 * phi.n
    diag = Max3LinDiagnostics(
        threshold=reduced.threshold,
        heavy_pair_count=len(reduced.heavy_pairs),
        heavy_constraint_count=int(reduced.heavy_mask.sum()),
        light_constraint_count=int((~reduced.heavy_mask).sum()),
        psi_size=reduced.m,
        sigma_zero_count=int(reduced.flagged.sum()),
        psi_value=psi_value,
        psi_fraction=psi_value / psi_total if reduced.m else 1.0,
        unsat_total=int(unsat.sum()),
        unsat_heavy=int((unsat & reduced.heavy_mask).sum()),
        unsat_light=int((unsat & ~reduced.heavy_mask).sum()),
        heavy_implication_violations=_heavy_implication_violations(phi, reduced, x_hat),
        in_guarantee=phi.m >= floor,
    )
    return Max3LinResult(assignment=x_hat, satisfied_fraction=fraction, diagnostics=diag)


def representative_accounting(
    phi: KLinInstance,
    reduced: ReducedInstance,
    x_hat,
    x_star,
) -> dict[str, int]:
    """The proof-side counting bound relating reduced failures to source failures.

    Returns the terms of:  unsat_phi(x_hat) <= heavy representatives unsat
    by x_hat + light sources unsat by x_star + light representatives unsat
    by x_star or x_hat.  Flagged representatives count as unsatisfied.
    """
    sat_phi_hat = satisfied_mask(phi, x_hat)
    sat_phi_star = satisfied_mask(phi, x_star)
    sat_psi_hat = satisfied_mask(reduced.psi, x_hat) & ~reduced.flagged
    sat_psi_star = satisfied_mask(reduced.psi, x_star) & ~reduced.flagged
    heavy_rep = reduced.heavy_mask[reduced.source]
    lhs = int((~sat_phi_hat).sum())
    heavy_reps_unsat = int((heavy_rep & ~sat_psi_hat).sum())
    light_sources_unsat_star = int((~sat_phi_star & ~reduced.heavy_mask).sum())
    light_reps_unsat = int((~heavy_rep & ~(sat_psi_star & sat_psi_hat)).sum())
    return {
        "unsat_phi": lhs,
        "heavy_reps_unsat_hat": heavy_reps_unsat,
        "light_sources_unsat_star": light_sources_unsat_star,
        "light_reps_unsat_either": light_reps_unsat,
        "bound": heavy_reps_unsat + light_sources_unsat_star + light_reps_unsat,
    }
