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

The reduced instance psi is mostly parallel copies of a few rows.  The
votes, their sizes and the heavy unary counts come from bincounts, with no
sort of the members, and build ``merged``: psi with each group of parallel
rows collapsed into one row weighted by its copies, which has psi's
objective at every assignment.  The 2-Lin solver and the diagnostics read
only ``merged``; psi itself is built row for row on first read, for the
audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    were given.  psi's expansion groups the heavy pairs' constraints and
    the light constraints' variables this way.
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
    """The heavy pairs, the constraints that cover them, and the heavy
    constraints of ``phi``.

    Entry 3 * c + f is pair f of constraint c (``_pair_keys``); ``entries``
    lists the heavy ones ascending, and ``pair_of`` each one's index in
    ``keys``.  Pair (i, j), i < j, has key i * n + j, so key order is pair
    order.  ``by_pair`` groups the heavy pairs' constraints and ``by_var``
    the light constraints by variable, positions ascending; only psi and
    the audits read them, so they are sorted on first read.
    """

    phi: KLinInstance
    keys: np.ndarray  # the heavy pairs' keys, ascending
    entries: np.ndarray
    pair_of: np.ndarray
    heavy_mask: np.ndarray  # per constraint: some pair of it is heavy

    @property
    def heavy_pairs(self) -> np.ndarray:
        """(h, 2) array of the heavy pairs, ascending."""
        return np.stack([self.keys // self.phi.n, self.keys % self.phi.n], axis=1)

    @cached_property
    def by_pair(self) -> Groups:
        groups = Groups.of(self.pair_of, self.entries // 3)
        return Groups(self.keys, groups.offsets, groups.members)

    @cached_property
    def by_var(self) -> Groups:
        light = np.flatnonzero(~self.heavy_mask)
        return Groups.of(self.phi.idx[light, :3].ravel(), np.repeat(light, 3))


@dataclass(frozen=True, eq=False)
class Votes:
    """One vote family: ``sigma`` per heavy pair or per variable, 0 where the
    vote summed to zero or nothing voted, and ``sizes``, its voters.  Heavy
    votes also carry ``unary``, each heavy entry's pinning x_k = sigma * rhs
    as the key 2k + (sigma * rhs > 0), with sigma +1 on a zero vote."""

    sigma: np.ndarray
    sizes: np.ndarray
    unary: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """The reduced 2-Lin instance with its bookkeeping.

    ``merged`` (``_merged_psi``) is what the 2-Lin solver receives, and
    ``unflagged`` holds the copies of each of its rows whose vote did not
    sum to zero.  ``sigma_pair`` holds the vote of each heavy pair (aligned
    with ``heavy_pairs``) and ``sigma_var`` the light vote of each
    variable; a vote that summed to zero, or a variable without light
    constraints, reads 0.  ``unary`` is ``Votes.unary`` of the heavy pairs.

    psi, ``source`` and ``flagged`` are built on first read.  The first
    ``heavy_rows`` rows of psi are the heavy representatives, pairs
    ascending and each pair's constraints ascending, in adjacent (pair,
    unary) couples that share a source; the rest are the light
    representatives, variables ascending.  ``source[r]`` is the index of
    the original constraint represented by reduced constraint r;
    ``flagged[r]`` marks zero-vote constraints that count as violated no
    matter the assignment.
    """

    merged: KLinInstance
    unflagged: np.ndarray
    threshold: int
    heavy_rows: int
    heavy_pairs: np.ndarray
    heavy_mask: np.ndarray
    sigma_pair: np.ndarray
    sigma_var: np.ndarray
    incidence: PairIncidence
    unary: np.ndarray

    @property
    def m(self) -> int:
        """psi's row count, the copies that ``merged`` merges."""
        return int(self.merged.w.sum())

    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The heavy pair of each heavy couple and the variable of each light row."""
        by_var = self.incidence.by_var
        return self.incidence.by_pair.group_of(), by_var.keys[by_var.group_of()]

    @cached_property
    def psi(self) -> KLinInstance:
        pair, var = self._groups()
        unary = Groups.of(self.incidence.pair_of, self.unary).members  # in by_pair's order
        h = 2 * pair.size
        idx = np.full((h + var.size, 2), -1, dtype=np.int64)
        idx[0:h:2] = self.heavy_pairs[pair]
        idx[1:h:2, 0] = unary >> 1
        idx[h:, 0] = var
        couples = np.stack([_rhs(self.sigma_pair)[pair], 2 * (unary & 1) - 1], axis=1)
        arity = np.ones(len(idx), dtype=np.int64)
        arity[0:h:2] = 2
        return KLinInstance._derived(2, self.incidence.phi.n, idx,
                                     np.append(couples, _rhs(self.sigma_var)[var]),
                                     np.ones(len(idx)), arity=arity)

    @cached_property
    def source(self) -> np.ndarray:
        incidence = self.incidence
        return np.append(np.repeat(incidence.by_pair.members, 2), incidence.by_var.members)

    @cached_property
    def flagged(self) -> np.ndarray:
        pair, var = self._groups()
        return np.append(np.repeat(self.sigma_pair[pair] == 0, 2), self.sigma_var[var] == 0)


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


def _rhs(sigma: np.ndarray) -> np.ndarray:
    """The rhs that a vote's rows carry: its sign, +1 on a zero vote."""
    return np.where(sigma < 0, -1, 1).astype(np.int8)


def classify_constraints(phi: KLinInstance, t: int) -> PairIncidence:
    """Split constraints into heavy and light by pair coverage.

    A pair is heavy when it appears in at least t constraints; a
    constraint is heavy when any of its three pairs is heavy.  When there
    are at most as many pairs as pair keys (n^2 <= 3m), a bincount counts
    every pair and a table maps each key to its heavy pair.  Otherwise one
    sort of the keys shows whether any run of t equal keys exists; only
    then are the heavy pairs' entries looked up.
    """
    _require_arity3(phi)
    if t < 1:
        raise InputError("threshold must be >= 1")
    keys = _pair_keys(phi)
    size, pair_count = keys.size, phi.n * phi.n  # every key is below n * n
    heavy = entries = pair_of = np.zeros(0, dtype=np.int64)
    if pair_count <= size:
        heavy = np.flatnonzero(np.bincount(keys, minlength=pair_count) >= t)
        table = np.full(pair_count, -1, dtype=np.int64)
        table[heavy] = np.arange(heavy.size)
        pair_of = table[keys]
        entries = np.flatnonzero(pair_of >= 0)
        pair_of = pair_of[entries]
    elif t <= size:
        sk = np.sort(keys)
        reached = sk[:size - t + 1][sk[t - 1:] == sk[:size - t + 1]]  # t equal keys from there on
        if reached.size:
            heavy = reached[np.append(True, reached[1:] != reached[:-1])]
            entries = np.flatnonzero(np.isin(keys, heavy))
            pair_of = np.searchsorted(heavy, keys[entries])
    heavy_mask = np.zeros(phi.m, dtype=bool)
    heavy_mask[entries // 3] = True
    return PairIncidence(phi, heavy, entries, pair_of, heavy_mask)


def create_h_constraints(incidence: PairIncidence, advice: LabelAdvice,
                         phi: KLinInstance) -> Votes:
    """The votes of every heavy pair, pairs ascending.

    Pair (i, j) votes sigma = sgn(sum over its constraints of rhs * label
    of the third variable x_k); each of them emits the pair constraint
    x_i x_j = sigma and the unary pinning x_k = sigma * rhs.
    """
    entries, pair = incidence.entries, incidence.pair_of
    members = entries // 3
    # entry 3c + f leaves index 2 - f of constraint c: entry 6c + 2 - (3c + f) of the flat idx
    third = phi.idx[:, :3].ravel()[6 * members + 2 - entries]
    rhs = phi.rhs[members]
    votes = np.bincount(pair, weights=rhs * advice.values[third], minlength=incidence.keys.size)
    sigma = np.sign(votes).astype(np.int8)
    return Votes(sigma, np.bincount(pair, minlength=sigma.size),
                 unary=2 * third + (_rhs(sigma)[pair] * rhs > 0))


def create_l_constraints(incidence: PairIncidence, advice: LabelAdvice,
                         phi: KLinInstance) -> Votes:
    """The light votes, indexed by variable.

    Variable v votes sigma = sgn(sum over its light constraints of rhs *
    product of the other two labels); each of them emits one copy of
    x_v = sigma.
    """
    labels, idx, rhs = advice.values, phi.idx[:, :3], phi.rhs
    if incidence.keys.size:
        light = ~incidence.heavy_mask
        idx, rhs = idx[light], rhs[light]
    # rhs times the product of the three labels, once per constraint.  The
    # other two labels' product is that times label[v], one factor per variable.
    prod = rhs * labels[idx[:, 0]] * labels[idx[:, 1]] * labels[idx[:, 2]]
    flat = idx.ravel()
    votes = np.bincount(flat, weights=np.repeat(prod, 3), minlength=phi.n) * labels
    return Votes(np.sign(votes).astype(np.int8), np.bincount(flat, minlength=phi.n))


def _merged_psi(incidence: PairIncidence, heavy: Votes,
                light: Votes) -> tuple[KLinInstance, np.ndarray]:
    """psi with each group of parallel representatives as one row, weighted
    by the group's size, and each row's unflagged copies: one pair row per
    heavy pair, pairs ascending; one heavy unary row per (variable, sign),
    variables ascending and -1 first; one unary row per light variable,
    variables ascending.  Each row keeps the rhs its copies carry, +1 on a
    zero vote.  Every psi weight is 1, so each merged weight, pair-matrix
    cell, unary entry and satisfied weight is a sum of small integers,
    exact in float64 in any order."""
    n = incidence.phi.n
    unary = np.bincount(heavy.unary, minlength=2 * n)
    key, var = np.flatnonzero(unary), np.flatnonzero(light.sizes)
    h, u = heavy.sigma.size, key.size
    idx = np.full((h + u + var.size, 2), -1, dtype=np.int64)
    idx[:h] = incidence.heavy_pairs
    idx[h:h + u, 0] = key // 2
    idx[h + u:, 0] = var
    sigma = np.concatenate([heavy.sigma, 2 * (key % 2) - 1, light.sigma[var]])
    w = np.concatenate([heavy.sizes, unary[key], light.sizes[var]])
    unflagged = np.where(sigma == 0, 0.0, w)
    # a heavy unary row holds the copies of every pair whose constraints pin it
    live = heavy.sigma[incidence.pair_of] != 0
    unflagged[h:h + u] = np.bincount(heavy.unary, weights=live, minlength=2 * n)[key]
    arity = np.ones(len(idx), dtype=np.int64)
    arity[:h] = 2
    return KLinInstance._derived(2, n, idx, _rhs(sigma), w, arity=arity), unflagged


def build_psi(
    phi: KLinInstance, advice: LabelAdvice, delta: float, epsilon: float
) -> ReducedInstance:
    """Reduce phi to weighted 2-Lin: the votes, and the merged instance.

    Heavy pairs come in sorted pair order, then the variables' light votes
    in ascending order, so the construction is a deterministic function of
    (instance, advice).
    """
    _require_arity3(phi)
    if advice.n != phi.n:
        raise InputError(f"advice length {advice.n} does not match n={phi.n}")
    t = compute_threshold(delta, epsilon)
    incidence = classify_constraints(phi, t)
    heavy = create_h_constraints(incidence, advice, phi)
    light = create_l_constraints(incidence, advice, phi)
    merged, unflagged = _merged_psi(incidence, heavy, light)
    return ReducedInstance(merged, unflagged, t, 2 * incidence.entries.size,
                           incidence.heavy_pairs, incidence.heavy_mask, heavy.sigma, light.sigma,
                           incidence, heavy.unary)


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
    reduced: ReducedInstance, x: np.ndarray, sat_phi: np.ndarray, sat_merged: np.ndarray
) -> int:
    """Count heavy entries whose satisfied, unflagged representative couple
    fails to imply the source; algebraically this must always be zero.

    ``sat_phi`` and ``sat_merged`` are x's satisfied masks over phi and over
    ``reduced.merged``, whose first rows are the heavy pairs'; the unary of
    each couple is read from ``reduced.unary``, as the solver received it.
    """
    pairs = len(reduced.heavy_pairs)
    pair, unary = reduced.incidence.pair_of, reduced.unary
    couple = (sat_merged[:pairs] & (reduced.sigma_pair != 0))[pair]
    couple &= (x[unary >> 1] > 0) == ((unary & 1) == 1)
    return int(np.count_nonzero(couple & ~sat_phi[reduced.incidence.entries // 3]))


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
    solver and the diagnostics read psi with its parallel rows merged, so
    psi itself is never built here.
    """
    _require_arity3(phi)
    eps = advice.epsilon if epsilon is None else epsilon
    reduced = build_psi(phi, advice, delta, eps)
    x_hat, _ = solve_2lin(reduced.merged, TwoLinConfig(hint=advice.values), seed)
    sat_phi = satisfied_mask(phi, x_hat)
    weight, fraction = evaluate(phi, x_hat, mask=sat_phi)
    sat_merged = satisfied_mask(reduced.merged, x_hat)
    m, unflagged = reduced.m, reduced.unflagged
    floor = math.log(1.0 / delta) / delta / eps**6 * phi.n
    diag = Max3LinDiagnostics(
        threshold=reduced.threshold,
        heavy_pair_count=len(reduced.heavy_pairs),
        heavy_constraint_count=int(reduced.heavy_mask.sum()),
        light_constraint_count=int((~reduced.heavy_mask).sum()),
        psi_size=m,
        sigma_zero_count=m - int(unflagged.sum()),
        psi_fraction=float(unflagged[sat_merged].sum()) / m if m else 1.0,
        unsat_total=int(np.count_nonzero(~sat_phi)),
        heavy_implication_violations=_heavy_implication_violations(
            reduced, x_hat, sat_phi, sat_merged),
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
