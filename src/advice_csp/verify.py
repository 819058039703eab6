"""Named invariant suites and the independent oracles they check against.

Each suite replays a module's structural and statistical invariants on
seeded fixtures and reports one result per check.  The CLI ``verify``
subcommand wraps this registry; the acceptance tests reuse the oracles.
All randomness is seeded, so a suite run is reproducible.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import fileio
from .advice import (
    LabelAdvice,
    gen_label_advice,
    gen_subset_advice,
    subset_to_label,
)
from .enumeration import EnumerationResult, enumerate_solve, projected_runs, qp_subset_inner
from .errors import InputError
from .instances import (
    KLinInstance,
    QpMatrix,
    cut_value,
    evaluate,
    graph_to_klin,
    plant_bipartite_regular,
    plant_klin,
    quadratic_identity_value,
    satisfied_mask,
    to_quadratic_matrix,
)
from .lp import FEAS_TOL, LinearProgram, LpOutcome, solve_lp
from .max3lin import (
    build_psi,
    classify_constraints,
    representative_accounting,
    solve_max3lin_with_advice,
)
from .maxcut import (
    MaxCutParams,
    build_lp,
    compute_deltas,
    q_cut_counts,
    solve_maxcut_with_advice,
    split_vertices,
)
from .qp_advice import (
    advice_objective,
    greedy_round,
    maximize_concave,
    solve_qp_with_advice,
)
from .reduce4lin import lift_assignment, project_assignment, three_to_four_lin
from .twolin_sdp import (
    dehomogenize,
    homogenize,
    hyperplane_round,
    relaxation_objective,
    solve_relaxation,
)


_ORACLE_BLOCK = 1 << 14  # active sets per stacked solve in lp_vertex_optimum


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def lp_vertex_optimum(lp: LinearProgram) -> LpOutcome:
    """Brute-force LP oracle: enumerate basic points of the feasible polytope.

    Every active-set choice of p constraints (row bounds and box faces)
    yields a candidate vertex; the optimum of a bounded feasible LP is the
    best feasible candidate.  Requires a fully finite box, which keeps the
    polytope bounded.  Exponential; intended for p <= 8.
    """
    p = lp.p
    if not (np.all(np.isfinite(lp.lo)) and np.all(np.isfinite(lp.hi))):
        raise InputError("vertex enumeration needs a finite box")
    # Candidate planes: each row's lower then upper end, then each variable's lower
    # then upper face, skipping infinite ends and an upper end equal to the lower.
    lows, highs = np.concatenate([lp.row_lo, lp.lo]), np.concatenate([lp.row_hi, lp.hi])
    ends = np.column_stack([lows, highs])
    usable = np.isfinite(ends) & np.column_stack([np.ones(lows.size, bool), highs != lows])
    normals = np.repeat(np.vstack([lp.rows, np.eye(p)]), 2, axis=0)[usable.ravel()]
    offsets = ends[usable]

    # The p-subsets of the planes, a block at a time: each block is one stacked
    # solve, after dropping the exactly singular sets, which have no vertex.
    combos = itertools.combinations(range(len(offsets)), p)
    best_x, best_v = None, -math.inf
    while (flat := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, _ORACLE_BLOCK)), dtype=np.intp)).size:
        idx = flat.reshape(-1, p)
        A, b = normals[idx], offsets[idx]
        solvable = np.linalg.det(A) != 0.0
        x = np.linalg.solve(A[solvable], b[solvable, :, None])[:, :, 0]
        v = x @ lp.rows.T
        ok = (np.all(np.isfinite(x), axis=1)
              & np.all((x >= lp.lo - FEAS_TOL) & (x <= lp.hi + FEAS_TOL), axis=1)
              & np.all((v >= lp.row_lo - FEAS_TOL) & (v <= lp.row_hi + FEAS_TOL), axis=1))
        if not ok.any():
            continue
        x = x[ok]
        values = x @ lp.c
        i = int(np.argmax(values))  # the first of equal values, as a loop keeps
        if values[i] > best_v:
            best_x, best_v = x[i], float(values[i])
    if best_x is None:
        return LpOutcome(status="infeasible")
    return LpOutcome(status="optimal", x=best_x, value=float(lp.c @ best_x) + lp.offset)


def random_lp(rng) -> LinearProgram:
    """A random LP with 1..6 variables in a finite box and 0..6 rows, each
    ranged, upper-bounded or lower-bounded.  Draws p, the row count, the
    rows, then c, lo and hi."""
    p = int(rng.integers(1, 7))
    m = int(rng.integers(0, 7))
    rows = np.zeros((m, p))
    row_lo, row_hi = np.full(m, -math.inf), np.full(m, math.inf)
    for r in range(m):
        rows[r] = rng.normal(size=p)
        mid, width = rng.normal(), 2 * rng.random()
        kind = rng.integers(0, 3)
        if kind != 1:  # ranged (0) or lower-bounded (2)
            row_lo[r] = mid - width if kind == 0 else mid
        if kind != 2:  # ranged (0) or upper-bounded (1)
            row_hi[r] = mid + width if kind == 0 else mid
    return LinearProgram(c=rng.normal(size=p), rows=rows, row_lo=row_lo, row_hi=row_hi,
                         lo=-rng.random(p), hi=rng.random(p))


def lp_oracle_disagreements(rng, trials: int) -> tuple[int, int]:
    """Solve ``trials`` random LPs twice each against ``lp_vertex_optimum``.

    Returns (mismatches, nondeterministic): LPs whose status differs from
    the oracle's or whose optimum is off by more than 1e-6, and LPs whose
    repeat solve differs in status, point or value.
    """
    mismatches = nondet = 0
    for _ in range(trials):
        lp = random_lp(rng)
        got, want = solve_lp(lp), lp_vertex_optimum(lp)
        if got.status != want.status or (got.is_optimal and abs(got.value - want.value) > 1e-6):
            mismatches += 1
        again = solve_lp(lp)
        if again.status != got.status or (
            got.is_optimal and (not np.array_equal(again.x, got.x) or again.value != got.value)
        ):
            nondet += 1
    return mismatches, nondet


def brute_force_best(instance: KLinInstance) -> float:
    """Exhaustive optimum of the satisfied weight; n <= 20 or so."""
    if instance.n > 22:
        raise InputError("brute force limited to small n")
    xs = np.array(list(itertools.product([-1, 1], repeat=instance.n)), dtype=np.int8)
    return max(evaluate(instance, row)[0] for row in xs)


def brute_force_qp_max(A: QpMatrix) -> float:
    """Exhaustive max of <x, Ax> over the hypercube."""
    if A.n > 20:
        raise InputError("brute force limited to small n")
    xs = np.array(list(itertools.product([-1.0, 1.0], repeat=A.n)))
    return float(np.max(np.einsum("ij,jk,ik->i", xs, A.a, xs)))


def random_2lin(rng, n, m) -> KLinInstance:
    """m pair constraints, each drawing its pair, rhs, then weight in [0.1, 1.1)."""
    cons = []
    for _ in range(m):
        i, j = rng.choice(n, size=2, replace=False)
        cons.append(((int(i), int(j)), int(rng.choice([-1, 1])), float(rng.random() + 0.1)))
    return KLinInstance.from_constraints(2, n, cons)


def random_qp(rng, n) -> QpMatrix:
    """A symmetric standard-normal n x n matrix with a zero diagonal."""
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return QpMatrix(a)


def rank_one_qp(rng, n) -> tuple[QpMatrix, np.ndarray]:
    """x x^T with a zero diagonal for a random +-1 vector x, and x."""
    xs = rng.choice([-1, 1], size=n).astype(np.int8)
    a = np.outer(xs, xs).astype(np.float64)
    np.fill_diagonal(a, 0.0)
    return QpMatrix(a), xs


def same_columns(a: KLinInstance, b: KLinInstance) -> bool:
    return (a.k, a.n) == (b.k, b.n) and all(
        np.array_equal(x, y) for x, y in ((a.idx, b.idx), (a.rhs, b.rhs), (a.w, b.w))
    )


def rebuild_failures(value) -> int:
    """1 if a dataclass value built by ``instances._unchecked`` differs from
    ``type(value)(...)`` over its init fields: the constructor rejects them,
    or a field or a seeded array or number cache differs, dtype included, or
    is writable where the rebuild's is read-only (not the other way round: a
    constructor may return writable copies).  Other caches are not compared."""
    names = [f.name for f in fields(value) if f.init]
    held = vars(value)
    try:
        rebuilt = type(value)(**{name: held[name] for name in names})
    except InputError:
        return 1

    def same(got, want):
        if not isinstance(got, np.ndarray):
            return not isinstance(want, np.ndarray) and got == want
        return (isinstance(want, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want) and (want.flags.writeable or not got.flags.writeable))

    return int(not all(same(got, getattr(rebuilt, name)) for name, got in held.items()
                       if name in names or isinstance(got, (np.ndarray, numbers.Number))))


def derived_instance_failures(rng, trials: int) -> int:
    """``rebuild_failures`` summed over ``trials`` rounds of every instance
    the package derives: psi of a heavy fixture (n in [6, 9], m in [80, 159],
    most pairs heavy) and of a light one (n in [20, 39], m in [10, 59],
    almost no pair heavy), the homogenized psi and the merged psi of each,
    the 4-Lin lift of the heavy fixture with t in [1, 3], and a planted
    graph's 2-Lin view."""
    failures = 0
    for _ in range(trials):
        phis = []
        for n, m in ((int(rng.integers(6, 10)), int(rng.integers(80, 160))),
                     (int(rng.integers(20, 40)), int(rng.integers(10, 60)))):
            plant = plant_klin(n, 3, m, 0.1, seed=int(rng.integers(1 << 30)))
            advice = gen_label_advice(plant.x_star, 0.8, seed=int(rng.integers(1 << 30)))
            reduced = build_psi(plant.instance, advice, delta=0.5, epsilon=1.0)
            failures += sum(map(rebuild_failures, (reduced.psi, homogenize(reduced.psi)[0],
                                                   reduced.merged)))
            phis.append(plant.instance)
        lift = three_to_four_lin(phis[0], int(rng.integers(1, 4)))
        graph = plant_bipartite_regular(16, 3, 0.5, seed=int(rng.integers(1 << 30))).instance
        failures += rebuild_failures(lift.phi4) + rebuild_failures(graph_to_klin(graph))
    return failures


def binomial_band(p: float, trials: int, sigmas: float = 3.0) -> float:
    return sigmas * math.sqrt(p * (1 - p) / trials)


def qp_ceiling_violations(rng, trials: int, n_high: int) -> int:
    """Random QPs on which qp-advice does not stay within 1e-9 of the exhaustive
    max (a NaN value counts); each draws n in [2, n_high), the matrix, labels,
    then epsilon in [0.2, 1)."""
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, n_high))
        A = random_qp(rng, n)
        advice = LabelAdvice(values=rng.choice([-1, 1], size=n).astype(np.int8),
                             epsilon=float(rng.uniform(0.2, 1.0)))
        _, value = solve_qp_with_advice(A, advice)
        violations += not value <= brute_force_qp_max(A) + 1e-9
    return violations


def rounding_decreases(rng, trials: int, n_low: int, n_high: int) -> int:
    """Random points whose greedy rounding does not keep the form within 1e-9
    (a NaN form counts); each draws n in [n_low, n_high) (nothing if that is
    one value), the matrix, then x."""
    decreases = 0
    for _ in range(trials):
        n = int(rng.integers(n_low, n_high))
        A = random_qp(rng, n)
        x = rng.uniform(-1, 1, size=n)
        before = float(x @ A.a @ x)
        decreases += not A.form_value(greedy_round(A, x)) >= before - 1e-9
    return decreases


def sides_inside_plant(split, x_star) -> bool:
    """Committed-side containment: S_L inside the planted S* and T_L inside T*."""
    return bool(np.all((split.side == 0) | (split.side == x_star)))


def heavy_vote_errors(phi: KLinInstance, x_star, reduced, epsilon) -> tuple[int, int, float]:
    """(errors, total, exp(-eps^2 t / 8)) over the heavy pairs with under a
    quarter of their constraints violated by x*: votes that differ from x*_i x*_j."""
    by_pair = classify_constraints(phi, reduced.threshold).by_pair
    violated = ~satisfied_mask(phi, x_star)[by_pair.members]
    viol = np.bincount(by_pair.group_of(), weights=violated, minlength=by_pair.keys.size)
    counted = viol < by_pair.sizes / 4
    i, j = reduced.heavy_pairs.T
    truth = x_star[i].astype(np.int64) * x_star[j]
    errs = int(np.count_nonzero(counted & (reduced.sigma_pair != truth)))
    bound = math.exp(-epsilon * epsilon * reduced.threshold / 8.0)
    return errs, int(np.count_nonzero(counted)), bound


def light_vote_errors(phi: KLinInstance, x_star, reduced, epsilon) -> tuple[int, int, float]:
    """(errors, total, bound) over the light variables: votes that differ from
    x*_i, and the mean of exp(-eps^4 |L_i| / 16t) (0 with no light variable)."""
    by_var = classify_constraints(phi, reduced.threshold).by_var
    errs = total = 0
    bound_sum = 0.0
    for var, size in zip(by_var.keys.tolist(), by_var.sizes.tolist()):
        total += 1
        if reduced.sigma_var[var] != int(x_star[var]):
            errs += 1
        bound_sum += math.exp(-epsilon**4 * size / (16.0 * reduced.threshold))
    return errs, total, bound_sum / max(total, 1)


def negation_failures(instance: KLinInstance, xs) -> int:
    """Assignments x whose negation does not act as negating each odd-arity
    rhs: the mask at -x differs from the rhs-negated instance's mask at x."""
    rhs = np.where(instance.arity % 2 == 1, -instance.rhs, instance.rhs)
    flipped = KLinInstance(instance.k, instance.n, instance.idx, rhs, instance.w)
    return sum(not np.array_equal(satisfied_mask(instance, -np.asarray(x)),
                                  satisfied_mask(flipped, x)) for x in xs)


def identity_failures(instance: KLinInstance, xs) -> int:
    """Assignments of an arity-2 instance at which W/2 + <x, Ax>/4 is not
    within 1e-9 of the satisfied weight."""
    qp = to_quadratic_matrix(instance)
    gaps = (quadratic_identity_value(instance, qp, x) - evaluate(instance, x)[0] for x in xs)
    return sum(not abs(gap) <= 1e-9 for gap in gaps)


def concavity_failures(rng, trials: int, n_high: int) -> int:
    """Random chords whose midpoint F(., y) puts more than 1e-9 below the
    mean of the ends; each draws n in [2, n_high), the matrix, epsilon in
    [0.1, 1), y in {-1, 1}^n, then both ends in [-1, 1]^n."""
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(2, n_high))
        A, eps = random_qp(rng, n), float(rng.uniform(0.1, 1.0))
        y = rng.choice([-1.0, 1.0], size=n)
        x1, x2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        ends = advice_objective(A, x1, y, eps) + advice_objective(A, x2, y, eps)
        failures += not advice_objective(A, (x1 + x2) / 2, y, eps) >= ends / 2 - 1e-9
    return failures


def form_dominance_failures(rng, trials: int, n_high: int) -> int:
    """Random points with <x, Ax> more than 1e-9 below F(x, y) / eps; each
    draws n in [2, n_high), the matrix, epsilon in [0.1, 1), x, then y in [-1, 1]^n."""
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(2, n_high))
        A, eps = random_qp(rng, n), float(rng.uniform(0.1, 1.0))
        x, y = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        failures += not A.form_value(x) >= advice_objective(A, x, y, eps) / eps - 1e-9
    return failures


def grid_sandwich_failures(rng, trials: int) -> int:
    """Random n = 4, eps = 0.5 surrogates whose ``maximize_concave`` value is
    not between the best of the grid {-1, -1/2, 0, 1/2, 1}^4 and that plus a
    quarter of F's Lipschitz bound (to 1e-9); each draws the matrix, then y."""
    failures = 0
    for _ in range(trials):
        A, eps = random_qp(rng, 4), 0.5
        y = rng.choice([-1.0, 1.0], size=4)
        best = max(advice_objective(A, np.array(point), y, eps)
                   for point in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=4))
        got = advice_objective(A, maximize_concave(A, y, eps), y, eps)
        lip = float(np.abs(A.a @ y).sum() + eps * np.abs(A.a).sum())
        failures += not best - 1e-9 <= got <= best + 0.25 * lip + 1e-9
    return failures


def witness_check(graph, split, lp: LinearProgram, x_star) -> tuple[int, int]:
    """(rows, value) failures of the planted witness theta_i = 1(i in S*) of
    the balance LP: the rows it violates by over 1e-9; a witness value other
    than |E[Q & S*, T_L]| + |E[Q & T*, S_L]| (``q_cut_counts`` with Q placed
    at x*), and no LP optimum within 1e-6 above it, one failure each."""
    x = np.where(split.side == 0, x_star, split.side)
    theta = (x[split.undecided] == 1).astype(np.float64)
    val = lp.rows @ theta
    rows = int(np.count_nonzero(~((val >= lp.row_lo - 1e-9) & (val <= lp.row_hi + 1e-9))))
    witness = float(lp.c @ theta) + lp.offset
    recount, _ = q_cut_counts(graph, split.side, x)
    out = solve_lp(lp)
    return rows, int(not abs(witness - recount) <= 1e-9) + int(
        not (out.is_optimal and out.value >= witness - 1e-6))


def ascent_decreases(instance: KLinInstance, rank: int, seed, steps: int) -> int:
    """Warm-started single sweeps of ``solve_relaxation`` on an instance with
    no unary constraint, one from ``seed`` then ``steps`` more, after which
    the relaxation value falls by more than 1e-9 W."""
    emb = solve_relaxation(instance, rank=rank, sweeps=1, seed=seed)
    prev, decreases = relaxation_objective(instance, emb), 0
    for _ in range(steps):
        emb = solve_relaxation(instance, rank=rank, sweeps=1, seed=seed, init=emb)
        cur = relaxation_objective(instance, emb)
        decreases += not cur >= prev - 1e-9 * instance.total_weight
        prev = cur
    return decreases


def dehomogenization_failures(instance: KLinInstance, xs, tol: float = 0.0) -> int:
    """Assignments x of the homogenized instance whose weight is more than
    ``tol`` from the instance's at ``dehomogenize(x)``, plus one if the total
    weight changes.  The two sum weights in different orders."""
    hom, ref = homogenize(instance)
    return int(hom.total_weight != instance.total_weight) + sum(
        not abs(evaluate(hom, x)[0] - evaluate(instance, dehomogenize(x, ref))[0]) <= tol
        for x in xs)


def rounding_dominance_failures(hom: KLinInstance, emb, trials: int, seed) -> int:
    """Failures of best-of-``trials`` hyperplane rounding: trials, recounted
    with the directions ``seed`` derives, that beat the kept weight; a kept
    weight that is not their max, or more than 1e-6 above the relaxation."""
    _, best = hyperplane_round(hom, emb, trials=trials, seed=seed)
    dirs = np.random.default_rng(seed).standard_normal((trials, emb.rank))
    signs = np.where(emb.vectors @ dirs.T >= 0.0, 1, -1).astype(np.int8)
    weights = [evaluate(hom, signs[:, t])[0] for t in range(trials)]
    return (sum(best < w for w in weights) + int(best != max(weights))
            + int(not relaxation_objective(hom, emb) >= best - 1e-6))


def reduction_counting_failures(phi: KLinInstance, reduced) -> tuple[int, int]:
    """(counts, sources) failing in the reduction ``reduced`` of phi, against
    pair coverage counted here with ``np.unique``: coverage summing to 3m; the
    pairs covered at least t times as ``heavy_pairs``, and the constraints
    with such a pair as ``heavy_mask``; ``heavy_rows`` twice their coverage;
    psi those rows plus 3 per light constraint.  Sources count when they
    have other than 2, 3, 4 or 6 rows."""
    n, idx = phi.n, phi.idx[:, :3]
    lo = np.minimum(idx[:, [0, 0, 1]], idx[:, [1, 2, 2]])
    hi = np.maximum(idx[:, [0, 0, 1]], idx[:, [1, 2, 2]])
    keys = lo * n + hi
    pairs, coverage = np.unique(keys, return_counts=True)
    heavy = coverage >= reduced.threshold
    heavy_pairs = np.stack([pairs[heavy] // n, pairs[heavy] % n], axis=1)
    heavy_mask = np.isin(keys, pairs[heavy]).any(axis=1)
    heavy_rows = 2 * int(coverage[heavy].sum())
    light = int(np.count_nonzero(~heavy_mask))
    counts = sum(map(int, (int(coverage.sum()) != 3 * phi.m,
                           not np.array_equal(reduced.heavy_pairs, heavy_pairs),
                           not np.array_equal(reduced.heavy_mask, heavy_mask),
                           reduced.heavy_rows != heavy_rows,
                           reduced.m != heavy_rows + 3 * light)))
    reps = np.bincount(reduced.source, minlength=phi.m)
    return counts, int(np.count_nonzero(~np.isin(reps, (2, 3, 4, 6))))


def exact_advice_failures(plant, delta: float) -> int:
    """Unflagged rows of the reduction of a noiseless plant under exact
    advice (the labels x*, epsilon 1) that x* violates."""
    reduced = build_psi(plant.instance, LabelAdvice(values=plant.x_star, epsilon=1.0), delta, 1.0)
    return int(np.count_nonzero(~satisfied_mask(reduced.psi, plant.x_star) & ~reduced.flagged))


def merged_failures(reduced, xs) -> int:
    """How ``reduced.merged`` differs from psi as an objective: 1 each for
    its total weight, pair matrix and unary vector, and for its satisfied
    weight and fraction at each x in ``xs``, compared exactly."""
    psi, merged = reduced.psi, reduced.merged
    failures = int(merged.total_weight != psi.total_weight)
    failures += not np.array_equal(merged.pair_matrix, psi.pair_matrix)
    failures += not np.array_equal(merged.unary_vector, psi.unary_vector)
    return failures + sum(evaluate(merged, x) != evaluate(psi, x) for x in xs)


def conservative_psi_value(reduced, x) -> float:
    """Satisfied weight of the reduced instance, counting flagged as violated."""
    if reduced.m == 0:
        return 0.0
    sat = satisfied_mask(reduced.psi, x) & ~reduced.flagged
    return float(reduced.psi.w[sat].sum())


def psi_diagnostics(phi: KLinInstance, reduced, x) -> tuple[float, int, int]:
    """(psi_fraction, sigma_zero_count, heavy_implication_violations) of x,
    counted row by row over the expanded psi: the flagged rows, and the heavy
    couples both satisfied and unflagged whose source x violates."""
    psi, sat_phi = reduced.psi, satisfied_mask(phi, x)
    sat_psi = satisfied_mask(psi, x) & ~reduced.flagged
    start = np.arange(0, reduced.heavy_rows, 2)
    violations = sat_psi[start] & sat_psi[start + 1] & ~sat_phi[reduced.source[start]]
    fraction = float(psi.w[sat_psi].sum()) / psi.total_weight if psi.m else 1.0
    return fraction, int(reduced.flagged.sum()), int(np.count_nonzero(violations))


def diagnostics_failures(phi: KLinInstance, advice, delta: float, epsilon: float, seed) -> int:
    """Fields of one Max 3-Lin solve's diagnostics, counted on the merged
    rows, that differ from ``psi_diagnostics`` of its answer, compared exactly."""
    res = solve_max3lin_with_advice(phi, advice, delta, epsilon, seed=seed)
    diag = res.diagnostics
    want = psi_diagnostics(phi, build_psi(phi, advice, delta, epsilon), res.assignment)
    got = diag.psi_fraction, diag.sigma_zero_count, diag.heavy_implication_violations
    return sum(g != w for g, w in zip(got, want))


def reduction_audit_failures(plant, advice, delta: float, seed) -> tuple[int, int, int]:
    """(violations, excess, heavy_rows) of one Max 3-Lin solve: the heavy
    implication audit's count, how far unsat_phi exceeds the representative
    counting bound (0 when within it), and the heavy rows audited."""
    res = solve_max3lin_with_advice(plant.instance, advice, delta, seed=seed)
    reduced = build_psi(plant.instance, advice, delta, advice.epsilon)
    acc = representative_accounting(plant.instance, reduced, res.assignment, plant.x_star)
    return (res.diagnostics.heavy_implication_violations,
            max(0, acc["unsat_phi"] - acc["bound"]), reduced.heavy_rows)


# ---------------------------------------------------------------------------
# suites


def suite_instance_invariants(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_001)

    for k, name in ((2, "even-arity negation invariance"), (3, "odd-arity negation flips rhs")):
        failures = 0
        for _ in range(max(4, seeds // 8)):
            n = int(rng.integers(4, 11))
            plant = plant_klin(n, k, 3 * n, 0.3, seed=int(rng.integers(1 << 30)))
            failures += negation_failures(plant.instance,
                                          [rng.choice([-1, 1], size=n) for _ in range(8)])
        out.append(CheckResult("instance-invariants", name, failures == 0, f"{failures} failures"))

    inst = random_2lin(rng, 12, 30)
    xs = np.array(list(itertools.product([-1, 1], repeat=12)), dtype=np.int8)
    failures = identity_failures(inst, xs[rng.choice(len(xs), size=min(len(xs), 40 * seeds))])
    out.append(CheckResult("instance-invariants", "quadratic identity matches evaluate",
                           failures == 0, f"{failures} failures"))

    plant = plant_bipartite_regular(128, 8, 0.0, seed=5)
    every_cut = cut_value(plant.instance, plant.x_star) == len(plant.instance.edges)
    degs = plant.instance.regular_degree == 8
    out.append(CheckResult("instance-invariants", "gamma=0 plant cuts every edge", every_cut and degs))

    p1 = plant_klin(50, 3, 200, 0.2, seed=77)
    p2 = plant_klin(50, 3, 200, 0.2, seed=77)
    same = same_columns(p1.instance, p2.instance) and np.array_equal(p1.x_star, p2.x_star)
    g1 = plant_bipartite_regular(64, 6, 0.5, seed=8)
    g2 = plant_bipartite_regular(64, 6, 0.5, seed=8)
    same = same and np.array_equal(g1.instance.edges, g2.instance.edges)
    out.append(CheckResult("instance-invariants", "generators deterministic in seed", same))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.klin")
        inst = random_2lin(rng, 9, 12)
        fileio.write_instance(path, inst)
        back = fileio.read_instance(path)
        ok = same_columns(back, inst)
    out.append(CheckResult("instance-invariants", "instance file round-trip", ok))

    trials = max(2, seeds // 25)
    failures = derived_instance_failures(np.random.default_rng(20_010), trials)
    out.append(CheckResult("instance-invariants", "derived instances pass the public constructor",
                           failures == 0, f"{failures} failures in {8 * trials} instances"))
    return out


def suite_advice_stats(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_002)
    n = 10_000
    x_star = rng.choice([-1, 1], size=n).astype(np.int8)

    adv = gen_label_advice(x_star, 1.0, seed=3)
    out.append(CheckResult("advice-stats", "epsilon=1 copies the truth",
                           np.array_equal(adv.values, x_star)))

    a1 = gen_label_advice(x_star, 0.37, seed=11)
    a2 = gen_label_advice(x_star, 0.37, seed=11)
    out.append(CheckResult("advice-stats", "label advice deterministic",
                           np.array_equal(a1.values, a2.values)))

    eps = 0.2
    agree = float(np.mean(gen_label_advice(x_star, eps, seed=5).values == x_star))
    band = binomial_band((1 + eps) / 2, n)
    out.append(CheckResult("advice-stats", "agreement rate in 3-sigma band",
                           abs(agree - (1 + eps) / 2) <= band,
                           f"agree={agree:.4f} target={(1+eps)/2}"))

    eps = 0.25
    sub = gen_subset_advice(x_star, eps, seed=6)
    band = binomial_band(eps, n) * n
    out.append(CheckResult("advice-stats", "subset size in 3-sigma band",
                           abs(sub.size - eps * n) <= band, f"size={sub.size}"))
    out.append(CheckResult("advice-stats", "revealed values match truth",
                           np.array_equal(sub.values, x_star[sub.indices])))

    # subset_to_label builds its advice unchecked: the public constructor
    # must accept it and keep the values, dtype included
    lab = subset_to_label(sub, seed=7)
    out.append(CheckResult("advice-stats", "conversion preserves revealed coordinates",
                           rebuild_failures(lab) == 0
                           and np.array_equal(lab.values[sub.indices], sub.values)
                           and lab.epsilon == sub.epsilon))

    # Per-coordinate agreement of the conversion across independent seeds.
    trials = max(200, 20 * seeds)
    hits = 0
    probe = gen_subset_advice(x_star[:50], 0.3, seed=8)
    for s in range(trials):
        lab = subset_to_label(probe, seed=(9, s))
        hits += int(lab.values[0] == x_star[0])
    target = 1.0 if 0 in probe.indices.tolist() else 0.5
    band = binomial_band(max(target, 0.5), trials)
    out.append(CheckResult("advice-stats", "conversion mixture statistics",
                           abs(hits / trials - target) <= band + 1e-9,
                           f"rate={hits/trials:.3f} target={target}"))
    return out


def suite_lp_oracle(seeds: int) -> list[CheckResult]:
    trials = max(20, seeds)
    mismatches, nondet = lp_oracle_disagreements(np.random.default_rng(20_003), trials)
    return [
        CheckResult("lp-oracle", "simplex matches vertex enumeration",
                    mismatches == 0, f"{mismatches}/{trials} mismatches"),
        CheckResult("lp-oracle", "repeat solves identical",
                    nondet == 0, f"{nondet}/{trials} diverged"),
    ]


def suite_qp_lemmas(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_004)
    trials = max(10, seeds // 4)
    for name, check in (("surrogate objective concave along chords", concavity_failures),
                        ("form dominates surrogate over epsilon", form_dominance_failures)):
        failures = check(rng, trials, 9)
        out.append(CheckResult("qp-lemmas", name, failures == 0, f"{failures}/{trials} failed"))

    trials = max(50, 10 * seeds)
    decreases = rounding_decreases(rng, trials, 2, 21)
    out.append(CheckResult("qp-lemmas", "greedy rounding never decreases the form",
                           decreases == 0, f"{decreases}/{trials} decreased"))

    trials = max(5, seeds // 10)
    violations = qp_ceiling_violations(rng, trials, 11)
    out.append(CheckResult("qp-lemmas", "output never beats the exhaustive max",
                           violations == 0, f"{violations}/{trials} above"))

    failures = grid_sandwich_failures(rng, 3)
    out.append(CheckResult("qp-lemmas", "surrogate optimum sandwiched by grid search",
                           failures == 0, f"{failures}/3 failed"))
    return out


def suite_maxcut_lemmas(seeds: int) -> list[CheckResult]:
    params = MaxCutParams(1.0, 1.5)
    eps = 0.4
    plant = plant_bipartite_regular(512, 64, 0.0, seed=1000)
    graph = plant.instance
    n, d = graph.n, graph.regular_degree
    # Signed planted neighborhood imbalance |E(i,S*)| - |E(i,T*)|.
    delta_star = graph.neighbour_sums(plant.x_star)
    tail_limit = 4.0 * math.sqrt(d * math.log(n))
    slack = params.slack(d, n, eps)

    containment = 0
    tail_hits = 0
    qbound_ok = True
    balance_ok_runs = 0
    identity_ok = True
    fconc_ok_runs = 0
    witness_rows = witness_value = 0
    fallbacks = 0
    for s in range(seeds):
        advice = gen_label_advice(plant.x_star, eps, seed=(41, s))
        deltas = compute_deltas(graph, advice)
        tail_holds = bool(np.max(np.abs(deltas - eps * delta_star)) <= tail_limit)
        tail_hits += int(tail_holds)
        split = split_vertices(deltas, d, n, params)
        containment += sides_inside_plant(split, plant.x_star)
        if tail_holds and np.any(np.abs(delta_star[split.undecided]) > slack + 1e-9):
            qbound_ok = False
        res = solve_maxcut_with_advice(graph, advice, params, seed=(42, s))
        diag = res.diagnostics
        fallbacks += int(diag.fallback)
        if diag.balance_violations == 0:
            balance_ok_runs += 1
        if 2 * diag.q_cut_direct != diag.q_cut_identity_twice:
            identity_ok = False
        if math.isfinite(diag.lp_value):
            if abs(diag.f_y - diag.lp_value) <= 4 * d * math.sqrt(n * math.log(n)):
                fconc_ok_runs += 1
        else:
            fconc_ok_runs += 1
        rows, value = witness_check(graph, split, build_lp(graph, split, eps, params),
                                    plant.x_star)
        witness_rows += rows
        witness_value += value
    results = [
        CheckResult("maxcut-lemmas", "committed sides inside planted sides",
                    containment >= math.ceil(0.99 * seeds),
                    f"{containment}/{seeds}"),
        CheckResult("maxcut-lemmas", "uniform score tail within bound",
                    seeds - tail_hits <= 0.05 * seeds, f"{seeds - tail_hits} violations"),
        CheckResult("maxcut-lemmas", "undecided pool has small planted imbalance", qbound_ok),
        CheckResult("maxcut-lemmas", "rounded neighborhoods nearly balanced",
                    balance_ok_runs >= math.floor(0.9 * seeds),
                    f"{balance_ok_runs}/{seeds}"),
        CheckResult("maxcut-lemmas", "cut decomposition identity exact", identity_ok),
        CheckResult("maxcut-lemmas", "rounded objective concentrates at LP value",
                    fconc_ok_runs >= math.floor(0.9 * seeds),
                    f"{fconc_ok_runs}/{seeds}"),
        CheckResult("maxcut-lemmas", "planted witness feasible for the balance LP",
                    witness_rows == 0, f"{witness_rows} rows violated"),
        CheckResult("maxcut-lemmas", "LP value dominates the witness value",
                    witness_value == 0, f"{witness_value} failures"),
        CheckResult("maxcut-lemmas", "no fallbacks needed on the planted fixture",
                    fallbacks == 0, f"{fallbacks} fallbacks"),
    ]
    return results


def suite_twolin_invariants(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_006)

    decreases = 0
    for _ in range(max(3, seeds // 30)):
        hom, _ = homogenize(random_2lin(rng, 14, 40))
        decreases += ascent_decreases(hom, 4, 1, 10)
    out.append(CheckResult("twolin-invariants", "relaxation ascent monotone per sweep",
                           decreases == 0, f"{decreases} decreases"))

    failures = 0
    for _ in range(max(5, seeds // 20)):
        inst = KLinInstance.from_constraints(
            2, 6,
            tuple(
                ((int(i),), int(rng.choice([-1, 1])), 1.0) for i in range(3)
            ) + tuple(
                ((int(a), int(b)), int(rng.choice([-1, 1])), float(rng.random() + 0.1))
                for a, b in [(0, 1), (2, 3), (4, 5)]
            ),
        )
        failures += dehomogenization_failures(
            inst, [rng.choice([-1, 1], size=7).astype(np.int8)], tol=1e-9)
    out.append(CheckResult("twolin-invariants", "dehomogenization preserves weight",
                           failures == 0, f"{failures} failures"))

    hom, _ = homogenize(random_2lin(rng, 12, 30))
    failures = rounding_dominance_failures(
        hom, solve_relaxation(hom, rank=5, sweeps=50, seed=3), trials=32, seed=4)
    out.append(CheckResult("twolin-invariants", "best-of rounding dominates each trial",
                           failures == 0, f"{failures} failures"))

    dup = KLinInstance.from_constraints(2, 2, (((0, 1), 1, 1.0),) * 3)
    w, _ = evaluate(dup, np.array([1, 1], dtype=np.int8))
    out.append(CheckResult("twolin-invariants", "duplicates count with multiplicity", w == 3.0))

    sat_ok = True
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(30, 2, 120, 0.0, seed=600 + s)
        hom, ref = homogenize(plant.instance)
        emb = solve_relaxation(hom, rank=9, sweeps=300, seed=s)
        if relaxation_objective(hom, emb) < plant.instance.total_weight * (1 - 1e-6):
            sat_ok = False
    out.append(CheckResult("twolin-invariants", "satisfiable plant reaches full relaxation value", sat_ok))
    return out


def suite_threelin_lemmas(seeds: int) -> list[CheckResult]:
    out = []

    counts = sources = 0
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(30, 3, 400, 0.1, seed=700 + s)
        advice = gen_label_advice(plant.x_star, 0.8, seed=(71, s))
        reduced = build_psi(plant.instance, advice, delta=0.1, epsilon=0.8)
        failed = reduction_counting_failures(plant.instance, reduced)
        counts, sources = counts + failed[0], sources + failed[1]
    out.append(CheckResult("threelin-lemmas", "pair lists cover each constraint thrice",
                           counts == 0, f"{counts} failures"))
    out.append(CheckResult("threelin-lemmas", "each source has 2..6 representatives",
                           sources == 0, f"{sources} sources outside 2, 3, 4, 6"))

    plant = plant_klin(40, 3, 900, 0.0, seed=7007)
    wrong = exact_advice_failures(plant, delta=0.05)
    out.append(CheckResult("threelin-lemmas", "noiseless exact advice satisfies every vote",
                           wrong == 0, f"{wrong} unflagged votes violated"))

    # The fixture has heavy pairs and light constraints, so the audit and
    # the bound's heavy and light terms all see rows.  The merged psi is
    # compared with psi here and on the light fixture below, at the plant,
    # the advice and random points.
    rng = np.random.default_rng(20_007)

    def merge_diffs(plant, advice, reduced) -> int:
        xs = [plant.x_star, advice.values, *rng.choice([-1, 1], size=(8, plant.instance.n))]
        return merged_failures(reduced, xs)

    violations = excess = heavy_rows = merge_fails = diag_fails = 0
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(20, 3, 1500, 0.1, seed=800 + s)
        advice = gen_label_advice(plant.x_star, 0.8, seed=(81, s))
        v, e, h = reduction_audit_failures(plant, advice, delta=0.1, seed=(82, s))
        violations, excess, heavy_rows = violations + v, excess + e, heavy_rows + h
        merge_fails += merge_diffs(plant, advice, build_psi(plant.instance, advice, 0.1, 0.8))
        diag_fails += diagnostics_failures(plant.instance, advice, 0.1, 0.8, (82, s))
    out.append(CheckResult("threelin-lemmas", "heavy implication audit clean",
                           violations == 0 and heavy_rows > 0,
                           f"{violations} violations over {heavy_rows} heavy rows"))
    out.append(CheckResult("threelin-lemmas", "representative counting bound holds",
                           excess == 0, f"unsat_phi {excess} over the bound"))

    # Vote recovery rates against their concentration bounds.
    plant = plant_klin(50, 3, 33000, 0.05, seed=909)
    phi = plant.instance
    x_star = plant.x_star
    eps, delta = 0.6, 0.05
    advice = gen_label_advice(x_star, eps, seed=99)
    reduced = build_psi(phi, advice, delta, eps)
    errs, total, bound = heavy_vote_errors(phi, x_star, reduced, eps)
    margin = binomial_band(bound, max(total, 1))
    out.append(CheckResult("threelin-lemmas", "heavy vote error rate within bound",
                           total > 0 and errs / total <= bound + margin,
                           f"errs={errs}/{total} bound={bound:.4f}"))

    # The heavy fixture has no light variable: at n=300 and m=21 000 every
    # variable is light, and the check needs at least 100 of them.
    plant = plant_klin(300, 3, 21000, 0.05, seed=919)
    eps, delta = 0.8, 0.2
    advice = gen_label_advice(plant.x_star, eps, seed=98)
    reduced = build_psi(plant.instance, advice, delta, eps)
    errs, total, bound = light_vote_errors(plant.instance, plant.x_star, reduced, eps)
    margin = binomial_band(bound, max(total, 1))
    out.append(CheckResult("threelin-lemmas", "light vote error rate within bound",
                           total >= 100 and errs / total <= bound + margin,
                           f"errs={errs}/{total} bound={bound:.4f}"))
    merge_fails += merge_diffs(plant, advice, reduced)
    out.append(CheckResult("threelin-lemmas", "merged ψ has ψ's objective",
                           merge_fails == 0, f"{merge_fails} differences"))
    diag_fails += diagnostics_failures(plant.instance, advice, delta, eps, 97)

    # weak advice and t = 6: heavy and light votes that sum to zero
    plant = plant_klin(24, 3, 300, 0.1, seed=16)
    advice = gen_label_advice(plant.x_star, 0.2, seed=(16, 1))
    diag_fails += diagnostics_failures(plant.instance, advice, 0.5, 1.0, (16, 2))
    out.append(CheckResult("threelin-lemmas", "diagnostics on merged rows equal diagnostics on ψ",
                           diag_fails == 0, f"{diag_fails} fields differ"))
    return out


def recorded_enumeration(instance: KLinInstance, epsilon: float, inner,
                         seed=0) -> tuple[EnumerationResult, list]:
    """``enumerate_solve``'s result, and per run in run order the bytes of
    its revealed indices and values, its seed and the bytes of its answer."""
    runs = []

    def recording(inst, advice, run_seed):
        x = inner(inst, advice, run_seed)
        runs.append((advice.indices.tobytes(), advice.values.tobytes(), run_seed,
                     np.asarray(x).tobytes()))
        return x

    return enumerate_solve(instance, epsilon, recording, seed=seed), runs


def enumeration_advice_failures(instance: KLinInstance, epsilon: float, seed=0) -> int:
    """``rebuild_failures`` summed over the runs of ``enumerate_solve``,
    whose advice is built unchecked.  The inner solver answers all +1, so
    only the hand-over is exercised."""
    failures = 0

    def rebuilding(inst, advice, run_seed):
        nonlocal failures
        failures += rebuild_failures(advice)
        return np.ones(inst.n, dtype=np.int8)

    enumerate_solve(instance, epsilon, rebuilding, seed=seed)
    return failures


def suite_enumeration(seeds: int) -> list[CheckResult]:
    out = []
    cons = tuple(((i, i + 1), 1, 1.0) for i in range(5))
    inst = KLinInstance.from_constraints(2, 6, cons)
    res, runs = recorded_enumeration(inst, 0.2, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "run count equals the projection",
                           res.runs == len(runs) == projected_runs(6, 0.2),
                           f"{res.runs} vs {projected_runs(6, 0.2)}"))
    res2, runs2 = recorded_enumeration(inst, 0.2, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "deterministic runs and best tuple",
                           runs2 == runs and res.subset == res2.subset
                           and res.value == res2.value
                           and np.array_equal(res.assignment, res2.assignment)))
    # the larger enumeration's first runs are the smaller one's, answers
    # included, which is why it cannot lose value
    res_big, runs_big = recorded_enumeration(inst, 0.35, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "larger epsilon repeats the smaller runs, never loses value",
                           runs_big[:len(runs)] == runs and res_big.value >= res.value,
                           f"{res_big.value} vs {res.value}"))
    out.append(CheckResult("enumeration", "satisfiable chain solved exactly",
                           res_big.value == inst.total_weight))
    golden = plant_klin(10, 2, 30, 0.0, seed=17).instance
    failures = enumeration_advice_failures(golden, 0.2, seed=(17, 2))
    out.append(CheckResult("enumeration", "trusted advice matches the public constructor",
                           failures == 0, f"{failures}/{projected_runs(10, 0.2)} runs differ"))
    return out


def lift_map_failures(phi: KLinInstance, t: int, sigma, sigma_prime) -> tuple[int, int, int]:
    """Failures, 0 or 1 each, of the 3-Lin -> 4-Lin lift with t new
    variables: its variable and constraint counts; completeness, sigma
    lifted keeps its satisfied fraction exactly; soundness, the lifted
    sigma' projected back loses no more than 1e-12 of its fraction."""
    lift = three_to_four_lin(phi, t)
    counts = lift.phi4.n != phi.n + t or lift.phi4.m != phi.m * t
    complete = evaluate(phi, sigma)[1] != evaluate(lift.phi4, lift_assignment(sigma, t))[1]
    back = project_assignment(sigma_prime, phi)
    sound = not evaluate(phi, back)[1] >= evaluate(lift.phi4, sigma_prime)[1] - 1e-12
    return int(counts), int(complete), int(sound)


def reduction_map_failures(rng, trials: int) -> tuple[int, int, int]:
    """``lift_map_failures`` summed over ``trials`` random (phi, t, sigma,
    sigma'): n in [4, 10], m in [3, 29], t in [1, 8]."""
    totals = np.zeros(3, dtype=np.int64)
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 30))
        t = int(rng.integers(1, 9))
        plant = plant_klin(n, 3, m, float(rng.random() / 2), seed=int(rng.integers(1 << 30)))
        sigma = rng.choice([-1, 1], size=n)
        totals += lift_map_failures(plant.instance, t, sigma, rng.choice([-1, 1], size=n + t))
    counts, complete, sound = totals.tolist()
    return counts, complete, sound


def suite_reduction(seeds: int) -> list[CheckResult]:
    trials = max(20, seeds)
    failures = reduction_map_failures(np.random.default_rng(20_009), trials)
    names = ("variable and constraint counts exact", "completeness fraction preserved",
             "soundness projection never loses value")
    return [CheckResult("reduction", name, k == 0, f"{k}/{trials} failures")
            for name, k in zip(names, failures)]


SUITES = {
    "instance-invariants": suite_instance_invariants,
    "advice-stats": suite_advice_stats,
    "lp-oracle": suite_lp_oracle,
    "qp-lemmas": suite_qp_lemmas,
    "maxcut-lemmas": suite_maxcut_lemmas,
    "twolin-invariants": suite_twolin_invariants,
    "threelin-lemmas": suite_threelin_lemmas,
    "enumeration": suite_enumeration,
    "reduction": suite_reduction,
}


def run_suite(name: str, seeds: int = 100) -> list[CheckResult]:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if seeds < 1:
        raise InputError("seed count must be >= 1")
    return SUITES[name](seeds)
