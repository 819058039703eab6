"""Max-Cut on regular graphs with label advice.

The pipeline scores every vertex by the advice sum over its neighborhood,
commits the confidently-signed vertices to a side, and places the rest by
solving a degree-balance linear program followed by independent Bernoulli
rounding.  Advice generated around a planted optimal cut concentrates the
scores at bias * (|E(i,S*)| - |E(i,T*)|), which is what makes the
committed sides land inside the planted sides with high probability.

The threshold and slack coefficients default to the values the asymptotic
analysis uses (20 and 30); benchmark presets use (1, 1.5) because the
analysis constants leave every vertex uncommitted at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advice import LabelAdvice, _check_epsilon
from .errors import InputError
# evaluate is unused here but stays bound: perfbench's span tests rebind it in this module.
from .instances import GraphInstance, cut_value, evaluate  # noqa: F401
from .lp import LinearProgram, solve_lp


@dataclass(frozen=True)
class MaxCutParams:
    """Threshold and slack coefficients of the confidence split.

    The commit threshold is c1 * sqrt(d ln n) on |Delta_i|; the balance
    slack is c2 * sqrt(d ln n) / epsilon.  Logarithms are natural.
    """

    threshold_coeff: float = 20.0
    slack_coeff: float = 30.0

    def __post_init__(self):
        if not all(math.isfinite(c) and c > 0 for c in (self.threshold_coeff, self.slack_coeff)):
            raise InputError("both coefficients must be finite and positive")

    def threshold(self, d: int, n: int) -> float:
        return self.threshold_coeff * math.sqrt(d * math.log(n))

    def slack(self, d: int, n: int, epsilon: float) -> float:
        return self.slack_coeff * math.sqrt(d * math.log(n)) / epsilon


BENCH_PARAMS = MaxCutParams(1.0, 1.5)


@dataclass(frozen=True, eq=False)
class LandscapeSplit:
    """Vertex partition into committed sides and the undecided pool."""

    side: np.ndarray        # int8: +1 committed to S_L (score <= 0), -1 to T_L, 0 in Q
    undecided: np.ndarray   # Q's vertices, everything below threshold


@dataclass(eq=False)
class CutDiagnostics:
    """Per-run audit quantities for the rounding analysis.

    ``lp_value`` is NaN when the LP was not solved to optimality and the
    sign fallback placed the undecided pool.
    """

    lp_status: str
    lp_value: float
    f_y: float
    f_y_recount: float
    balance_violations: int
    q_cut_direct: int
    q_cut_identity_twice: int
    fallback: bool
    committed: int
    undecided: int


@dataclass(eq=False)
class MaxCutResult:
    assignment: np.ndarray   # +1 for S, -1 for T
    cut_weight: float
    diagnostics: CutDiagnostics


def compute_deltas(graph: GraphInstance, advice: LabelAdvice) -> np.ndarray:
    """Advice sum over each neighborhood: Delta_i = sum of labels of N(i)."""
    if advice.n != graph.n:
        raise InputError(f"advice length {advice.n} does not match graph size {graph.n}")
    return graph.neighbour_sums(advice.values)


def split_at_threshold(deltas: np.ndarray, threshold: float) -> LandscapeSplit:
    """Commit vertices with |Delta_i| >= threshold; negative scores go to S."""
    deltas = np.asarray(deltas, dtype=np.int64)
    confident = np.abs(deltas) >= threshold
    side = (np.where(deltas <= 0, 1, -1) * confident).astype(np.int8)
    return LandscapeSplit(side=side, undecided=np.flatnonzero(side == 0))


def split_vertices(deltas: np.ndarray, d: int, n: int, params: MaxCutParams) -> LandscapeSplit:
    if d < 1:
        raise InputError("degree must be >= 1")
    return split_at_threshold(deltas, params.threshold(d, n))


def _side_degrees(graph: GraphInstance, split: LandscapeSplit):
    """d_S(i), d_T(i): each vertex's neighbours committed to S and to T."""
    return graph.neighbour_sums(split.side == 1), graph.neighbour_sums(split.side == -1)


def q_cut_counts(graph: GraphInstance, side: np.ndarray, x) -> tuple[int, int]:
    """(cut edges between Q and the committed vertices, cut edges with an
    endpoint in Q) under the +-1 assignment x, where Q is ``side == 0``.

    When x agrees with ``side`` on the committed vertices, the first count is
    the analysis's F(y) = |E(Q cap S, T_L)| + |E(Q cap T, S_L)|.
    """
    u, v = graph.edges.T
    cut = x[u] != x[v]
    in_q_u, in_q_v = side[u] == 0, side[v] == 0
    return (int(np.count_nonzero(cut & (in_q_u != in_q_v))),
            int(np.count_nonzero(cut & (in_q_u | in_q_v))))


def build_lp(
    graph: GraphInstance,
    split: LandscapeSplit,
    epsilon: float,
    params: MaxCutParams,
    *,
    side_degrees: tuple[np.ndarray, np.ndarray] | None = None,
) -> LinearProgram:
    """Degree-balance LP over the undecided pool.

    One variable theta_i in [0, 1] per undecided vertex; the objective
    sum theta_i d_T(i) + (1 - theta_i) d_S(i) is encoded with the constant
    part as the LP offset.  Row i keeps vertex i's S-side count
    d_S(i) + sum_{j in N(i) cap Q} theta_j within d/2 +- c2 * sqrt(d ln n) / eps.
    The T-side band is the same halfspace, since d-regularity gives
    d_S(i) + d_T(i) + |N(i) cap Q| = d with neighbours counted by edge
    multiplicity, as the row counts them.

    Only the rows that can bind are emitted, in vertex order.  A row's
    coefficients are 0 or positive edge counts, so over the box it ranges
    exactly from 0 to |N(i) cap Q|; a row whose range holds both ends is
    true for every theta and presolve would drop it.  ``side_degrees`` is
    (d_S, d_T) when the caller already has them.
    """
    d = graph.regular_degree
    if d is None:
        raise InputError("the balance LP requires a regular graph")
    _check_epsilon(epsilon)
    q = split.undecided
    nq = q.shape[0]
    d_s, d_t = _side_degrees(graph, split) if side_degrees is None else side_degrees
    delta = params.slack(d, graph.n, epsilon)
    row_lo = d / 2 - delta - d_s[q]
    row_hi = d / 2 + delta - d_s[q]
    binds = (row_lo > 0) | (d - d_s[q] - d_t[q] > row_hi)
    pos_in_q = -np.ones(graph.n, dtype=np.int64)
    pos_in_q[q] = np.arange(nq)
    row_of = -np.ones(graph.n, dtype=np.int64)
    kept = np.count_nonzero(binds)
    row_of[q[binds]] = np.arange(kept)
    rows = np.zeros((kept, nq), dtype=np.float64)
    u, v = graph.edges.T
    for row, col in ((row_of[u], pos_in_q[v]), (row_of[v], pos_in_q[u])):
        both = (row >= 0) & (col >= 0)
        np.add.at(rows, (row[both], col[both]), 1.0)
    return LinearProgram(
        c=(d_t[q] - d_s[q]).astype(np.float64),
        rows=rows,
        row_lo=row_lo[binds],
        row_hi=row_hi[binds],
        lo=np.zeros(nq),
        hi=np.ones(nq),
        offset=float(d_s[q].sum()),
    )


def round_lp(theta: np.ndarray, seed) -> np.ndarray:
    """Independent Bernoulli(theta_i) draws as a 0/1 vector."""
    t = np.asarray(theta, dtype=np.float64)
    if not np.all((t >= -1e-9) & (t <= 1.0 + 1e-9)):
        raise InputError("rounding probabilities must lie in [0, 1]")
    t = np.clip(t, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    return (rng.random(t.shape[0]) < t).astype(np.int8)


def solve_maxcut_with_advice(
    graph: GraphInstance,
    advice: LabelAdvice,
    params: MaxCutParams = MaxCutParams(),
    seed=0,
) -> MaxCutResult:
    """Run the full advice-guided pipeline; always returns a partition.

    An infeasible balance LP falls back to placing each undecided vertex
    by the sign of its score (ties toward S).  When the LP objective is
    identically zero (no committed neighbors anywhere) every feasible
    point is optimal and the unbiased one, theta = 1/2, is used.
    """
    d = graph.regular_degree
    if d is None or d < 1:
        raise InputError("the advice pipeline requires a regular graph of degree >= 1")
    deltas = compute_deltas(graph, advice)
    split = split_vertices(deltas, d, graph.n, params)
    q = split.undecided
    d_s, d_t = _side_degrees(graph, split)
    slack = params.slack(d, graph.n, advice.epsilon)
    fallback = False
    if q.size and np.all(d_s[q] == 0) and np.all(d_t[q] == 0):
        # Zero objective: any feasible theta is optimal; take the unbiased one.
        theta = np.full(q.shape[0], 0.5)
        lp_status, lp_value = "degenerate-uniform", 0.0
    else:
        lp = build_lp(graph, split, advice.epsilon, params, side_degrees=(d_s, d_t))
        out = solve_lp(lp)
        if out.is_optimal:
            theta = out.x
            if slack >= d / 2:
                # Every balance row is vacuous, so coordinates with zero
                # objective weight are optimal at any value; use 1/2.
                free = (d_s[q] == 0) & (d_t[q] == 0)
                theta = np.where(free, 0.5, theta)
            lp_status, lp_value = "optimal", float(out.value)
        else:
            fallback = True
            theta = (deltas[q] <= 0).astype(np.float64)
            lp_status, lp_value = out.status, math.nan
    y = round_lp(theta, seed)
    # theta = 1 places a vertex in S, mirroring the committed S side rule.
    assignment = split.side.copy()
    assignment[q] = 2 * y - 1
    cut_weight = float(cut_value(graph, assignment))
    diag = _diagnostics(graph, split, assignment, y, d_s, d_t,
                        lp_status, lp_value, fallback, d, slack)
    return MaxCutResult(assignment=assignment, cut_weight=cut_weight, diagnostics=diag)


def _diagnostics(graph, split, assignment, y, d_s, d_t,
                 lp_status, lp_value, fallback, d, slack) -> CutDiagnostics:
    q = split.undecided
    f_y = float((y * d_t[q] + (1 - y) * d_s[q]).sum())
    f_y_recount, q_cut_direct = q_cut_counts(graph, split.side, assignment)
    s_side = assignment == 1
    dsi = graph.neighbour_sums(s_side)
    dti = graph.degrees - dsi
    d_out = np.where(s_side, dti, dsi)
    q_cut_identity_twice = int(f_y) + int(d_out[q].sum())
    half = d / 2 + 2 * slack
    balance_violations = int(np.count_nonzero(
        np.maximum(dsi[q], dti[q]) > half + 1e-9))
    return CutDiagnostics(
        lp_status=lp_status,
        lp_value=lp_value,
        f_y=f_y,
        f_y_recount=float(f_y_recount),
        balance_violations=balance_violations,
        q_cut_direct=q_cut_direct,
        q_cut_identity_twice=q_cut_identity_twice,
        fallback=fallback,
        committed=graph.n - q.size,
        undecided=int(q.size),
    )
