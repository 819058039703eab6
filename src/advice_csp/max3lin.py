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

The reduced instance psi is mostly parallel copies of a few rows, so the
2-Lin solver receives ``merged``: psi with each group of parallel rows
collapsed into one row weighted by the group's size, which has psi's
objective at every assignment.  psi itself is kept, row for row, for the
diagnostics and the representative accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advice import LabelAdvice, _check_epsilon
from .errors import InputError
from .instances import KLinInstance, evaluate, satisfied_mask
from .twolin_sdp import TwoLinConfig, solve_2lin


@dataclass(frozen=True, eq=False)
class Groups:
    """Constraint positions grouped by an integer key, in CSR layout.

    Group g has key ``keys[g]`` (ascending, distinct) and holds the
    positions ``members[offsets[g]:offsets[g + 1]]``, in the order they
    were given.  The reduction builds one for the heavy pairs (empty when
    no pair reaches the threshold) and one for the light constraints'
    variables.
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
            # key * size + rank is distinct, so a plain sort of it is stable
            # (several times faster than the stable argsort below), and the
            # sorted composite holds both the sorted keys and the order.
            comp = np.sort(keys * size + np.arange(size))
            order, sk = comp % size, comp // size
        else:
            order = np.argsort(keys, kind="stable")
            sk = keys[order]
        first = np.empty(size, dtype=bool)  # entry starts a group
        first[:1] = True
        np.not_equal(sk[1:], sk[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return cls(sk[starts], np.append(starts, size), positions[order])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def group_of(self) -> np.ndarray:
        """Group index of every entry of ``members``."""
        return np.repeat(np.arange(self.keys.size), self.sizes)


@dataclass(frozen=True, eq=False)
class PairIncidence:
    """The heavy pairs with their constraint positions, and the heavy
    constraints.

    ``by_pair`` groups the constraints of each heavy pair, positions
    ascending; it is empty when no pair reaches the threshold, and pairs
    below it are never grouped.  Pair (i, j), i < j, has key i * n + j, so
    key order is pair order.
    """

    n: int
    by_pair: Groups
    heavy_mask: np.ndarray  # per constraint: some pair of it is heavy

    @property
    def heavy_pairs(self) -> np.ndarray:
        """(h, 2) array of the heavy pairs, ascending."""
        keys = self.by_pair.keys
        return np.stack([keys // self.n, keys % self.n], axis=1)


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

    The first ``heavy_rows`` rows of psi are the heavy representatives, in
    adjacent (pair, unary) couples that share a source; the rest are the
    light representatives.  ``source[r]`` is the index of the original
    constraint represented by reduced constraint r; ``flagged[r]`` marks
    zero-vote constraints that count as violated no matter the assignment.
    ``merged``, psi with its parallel rows merged (``_merged_psi``), is
    what the 2-Lin solver receives.  ``sigma_pair`` holds the vote of each
    heavy pair (aligned with ``heavy_pairs``) and ``sigma_var`` the light
    vote of each variable; a vote that summed to zero, or a variable
    without light constraints, reads 0.
    """

    psi: KLinInstance
    merged: KLinInstance
    source: np.ndarray
    flagged: np.ndarray
    threshold: int
    heavy_rows: int
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
    _check_epsilon(epsilon)
    return max(1, math.ceil(8.0 * math.log(1.0 / delta) / (epsilon * epsilon)))


def _require_arity3(phi: KLinInstance):
    if (phi.arity != 3).any():
        raise InputError("this pipeline requires arity-3 constraints")


def _pair_keys(phi: KLinInstance) -> np.ndarray:
    """Key i * n + j (i < j) of each constraint's pairs (x0, x1), (x0, x2),
    (x1, x2): entry 3 * c + f is pair f of constraint c."""
    n, idx = phi.n, phi.idx
    keys = np.empty((phi.m, 3), dtype=np.int64)
    for f, (u, v) in enumerate(((0, 1), (0, 2), (1, 2))):
        a, b = idx[:, u], idx[:, v]
        keys[:, f] = np.minimum(a, b) * n + np.maximum(a, b)
    return keys.ravel()


def classify_constraints(phi: KLinInstance, t: int) -> tuple[PairIncidence, Groups]:
    """Split constraints into heavy and light by pair coverage.

    A pair is heavy when it appears in at least t constraints; a
    constraint is heavy when any of its three pairs is heavy.  Returns the
    pair incidence and the light constraints grouped by variable.  One sort
    of the pair keys shows whether any run of t equal keys exists; only
    then are the heavy pairs' constraints grouped.
    """
    _require_arity3(phi)
    if t < 1:
        raise InputError("threshold must be >= 1")
    keys = _pair_keys(phi)
    size = keys.size
    heavy_mask = np.zeros(phi.m, dtype=bool)
    none = np.zeros(0, dtype=np.int64)
    by_pair = Groups.of(none, none)
    if t <= size:
        sk = np.sort(keys)
        run = sk[t - 1:] == sk[:size - t + 1]  # t equal keys from sk[s] on
        if run.any():
            reached = sk[:size - t + 1][run]  # ascending, with repeats
            heavy_keys = reached[np.append(True, reached[1:] != reached[:-1])]
            pair_count = phi.n * phi.n  # every key is below n * n
            if pair_count <= size:  # a table of every pair is at most a byte per key
                heavy = np.zeros(pair_count, dtype=bool)
                heavy[heavy_keys] = True
                entries = np.flatnonzero(heavy[keys])
            else:
                entries = np.flatnonzero(np.isin(keys, heavy_keys))
            by_pair = Groups.of(keys[entries], entries // 3)
            heavy_mask[by_pair.members] = True
    idx = phi.idx[:, :3]
    if by_pair.keys.size:
        light = np.flatnonzero(~heavy_mask)
        idx = idx[light]
    else:
        light = np.arange(phi.m)
    by_var = Groups.of(idx.ravel(), np.repeat(light, 3))
    return PairIncidence(n=phi.n, by_pair=by_pair, heavy_mask=heavy_mask), by_var


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
    groups = incidence.by_pair
    labels = advice.values.astype(np.int64)
    pos, group = groups.members, groups.group_of()
    pairs = incidence.heavy_pairs
    i, j = pairs[group, 0], pairs[group, 1]
    idx = phi.idx
    third = idx[pos, 0] + idx[pos, 1] + idx[pos, 2] - i - j
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
    by_var: Groups, advice: LabelAdvice, phi: KLinInstance
) -> Representatives:
    """Representatives of every variable's light constraints, variables ascending.

    Variable v votes sigma = sgn(sum over members of rhs * product of the
    other two labels); each member, ascending, contributes one copy of
    x_v = sigma.  ``sigma`` is indexed by variable.
    """
    labels = advice.values.astype(np.int64)
    idx = phi.idx
    # rhs times the product of the three labels, once per constraint.  The
    # other two labels' product is that times label[v], one factor per group.
    prod = phi.rhs.astype(np.int64) * labels[idx[:, 0]] * labels[idx[:, 1]] * labels[idx[:, 2]]
    pos = by_var.members
    group = by_var.group_of()
    votes = np.bincount(group, weights=prod[pos], minlength=by_var.keys.size)
    votes *= labels[by_var.keys]
    sigma, zero = _signs(votes)
    sigma_var = np.zeros(phi.n, dtype=np.int8)
    sigma_var[by_var.keys] = np.where(zero, 0, sigma)
    return Representatives(
        idx=np.stack([by_var.keys[group], np.full(pos.size, -1, dtype=np.int64)], axis=1),
        rhs=sigma[group],
        source=pos,
        flagged=zero[group],
        sigma=sigma_var,
    )


def _merged_psi(
    n: int, by_pair: Groups, by_var: Groups, heavy: Representatives, light: Representatives
) -> KLinInstance:
    """psi with each group of parallel representatives as one row, weighted
    by the group's size: one pair row per heavy pair, pairs ascending; one
    heavy unary row per (variable, sign), variables ascending and -1 first;
    one unary row per light variable, variables ascending.  Each row keeps
    the rhs its copies carry, +1 on a zero vote.  Every psi weight is 1, so
    each merged weight, pair-matrix cell, unary entry and satisfied weight
    is a sum of small integers, exact in float64 in any order."""
    first = 2 * by_pair.offsets[:-1]  # each heavy pair's first pair row
    unary = np.bincount(heavy.idx[1::2, 0] * 2 + (heavy.rhs[1::2] > 0), minlength=2 * n)
    key = np.flatnonzero(unary)
    h, u = first.size, key.size
    idx = np.full((h + u + by_var.keys.size, 2), -1, dtype=np.int64)
    idx[:h] = heavy.idx[first]
    idx[h:h + u, 0] = key // 2
    idx[h + u:, 0] = by_var.keys
    rhs = np.concatenate([heavy.rhs[first], np.where(key % 2, 1, -1),
                          light.rhs[by_var.offsets[:-1]]])
    arity = np.ones(len(idx), dtype=np.int64)
    arity[:h] = 2
    return KLinInstance._derived(2, n, idx, rhs,
                                 np.concatenate([by_pair.sizes, unary[key], by_var.sizes]),
                                 arity=arity)


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
    incidence, by_var = classify_constraints(phi, t)
    heavy = create_h_constraints(incidence, advice, phi)
    light = create_l_constraints(by_var, advice, phi)
    h = heavy.source.size
    m = h + light.source.size
    arity = np.ones(m, dtype=np.int64)
    arity[0:h:2] = 2  # heavy (pair, unary) couples, then light unaries
    psi = KLinInstance._derived(2, phi.n, np.concatenate([heavy.idx, light.idx]),
                                np.concatenate([heavy.rhs, light.rhs]), np.ones(m),
                                arity=arity)
    return ReducedInstance(
        psi=psi,
        merged=_merged_psi(phi.n, incidence.by_pair, by_var, heavy, light),
        source=np.concatenate([heavy.source, light.source]),
        flagged=np.concatenate([heavy.flagged, light.flagged]),
        threshold=t,
        heavy_rows=h,
        heavy_pairs=incidence.heavy_pairs,
        heavy_mask=incidence.heavy_mask,
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
    psi_fraction: float
    unsat_total: int
    heavy_implication_violations: int
    in_guarantee: bool


@dataclass(eq=False)
class Max3LinResult:
    assignment: np.ndarray
    satisfied_weight: float
    satisfied_fraction: float
    diagnostics: Max3LinDiagnostics


def _heavy_implication_violations(
    reduced: ReducedInstance, sat_phi: np.ndarray, sat_psi: np.ndarray
) -> int:
    """Count heavy sources where a satisfied representative couple fails to
    imply the source; algebraically this must always be zero.

    ``sat_phi`` and ``sat_psi`` are one assignment's satisfied masks over
    phi and over psi, the latter with flagged rows counted as violated.
    """
    start = np.arange(0, reduced.heavy_rows, 2)
    return int(np.count_nonzero(
        sat_psi[start] & sat_psi[start + 1] & ~sat_phi[reduced.source[start]]))


def solve_max3lin_with_advice(
    phi: KLinInstance,
    advice: LabelAdvice,
    delta: float,
    epsilon: float | None = None,
    seed=0,
) -> Max3LinResult:
    """End-to-end advice pipeline for nearly satisfiable Max 3-Lin.

    ``epsilon`` defaults to the advice's own parameter.  The reduced
    instance feeds the 2-Lin solver with the advice labels as its hint;
    the 2-Lin solution is returned unchanged as the 3-Lin answer.  The
    solver receives psi with its parallel rows merged; the diagnostics read
    psi itself.
    """
    _require_arity3(phi)
    eps = advice.epsilon if epsilon is None else epsilon
    reduced = build_psi(phi, advice, delta, eps)
    x_hat, _ = solve_2lin(reduced.merged, TwoLinConfig(hint=advice.values), seed)
    sat_phi = satisfied_mask(phi, x_hat)
    weight, fraction = evaluate(phi, x_hat, mask=sat_phi)
    sat_psi = satisfied_mask(reduced.psi, x_hat) & ~reduced.flagged
    floor = math.log(1.0 / delta) / delta / eps**6 * phi.n
    diag = Max3LinDiagnostics(
        threshold=reduced.threshold,
        heavy_pair_count=len(reduced.heavy_pairs),
        heavy_constraint_count=int(reduced.heavy_mask.sum()),
        light_constraint_count=int((~reduced.heavy_mask).sum()),
        psi_size=reduced.m,
        sigma_zero_count=int(reduced.flagged.sum()),
        psi_fraction=(float(reduced.psi.w[sat_psi].sum()) / reduced.psi.total_weight
                      if reduced.m else 1.0),
        unsat_total=int(np.count_nonzero(~sat_phi)),
        heavy_implication_violations=_heavy_implication_violations(reduced, sat_phi, sat_psi),
        in_guarantee=phi.m >= floor,
    )
    return Max3LinResult(assignment=x_hat, satisfied_weight=weight, satisfied_fraction=fraction,
                         diagnostics=diag)


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
    h = reduced.heavy_rows
    lhs = int((~sat_phi_hat).sum())
    heavy_reps_unsat = int((~sat_psi_hat[:h]).sum())
    light_sources_unsat_star = int((~sat_phi_star & ~reduced.heavy_mask).sum())
    light_reps_unsat = int((~(sat_psi_star[h:] & sat_psi_hat[h:])).sum())
    return {
        "unsat_phi": lhs,
        "heavy_reps_unsat_hat": heavy_reps_unsat,
        "light_sources_unsat_star": light_sources_unsat_star,
        "light_reps_unsat_either": light_reps_unsat,
        "bound": heavy_reps_unsat + light_sources_unsat_star + light_reps_unsat,
    }
