"""Named invariant suites and the independent oracles they check against.

Each suite replays a module's structural and statistical invariants on
seeded fixtures and reports one result per check.  The CLI ``verify``
subcommand wraps this registry; the acceptance tests reuse the oracles.
All randomness is seeded, so a suite run is reproducible.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import fileio
from .advice import LabelAdvice, gen_label_advice, gen_subset_advice, subset_to_label
from .enumeration import enumerate_solve, projected_runs, qp_subset_inner
from .errors import InputError
from .instances import (
    KLinInstance,
    QpMatrix,
    cut_value,
    evaluate,
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
    conservative_psi_value,
    representative_accounting,
    solve_max3lin_with_advice,
)
from .maxcut import (
    MaxCutParams,
    build_lp,
    compute_deltas,
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


def lp_vertex_optimum(lp: LinearProgram, tol: float = FEAS_TOL) -> LpOutcome:
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
              & np.all((x >= lp.lo - tol) & (x <= lp.hi + tol), axis=1)
              & np.all((v >= lp.row_lo - tol) & (v <= lp.row_hi + tol), axis=1))
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
    """Committed-side containment: S inside the planted S* and T inside T*."""
    star_s = x_star == 1
    return bool(np.all(star_s[split.side_s]) and not np.any(star_s[split.side_t]))


def heavy_vote_errors(phi: KLinInstance, x_star, reduced, epsilon) -> tuple[int, int, float]:
    """(errors, total, exp(-eps^2 t / 8)) over the heavy pairs with under a
    quarter of their constraints violated by x*: votes that differ from x*_i x*_j."""
    incidence, _ = classify_constraints(phi, reduced.threshold)
    by_pair = incidence.by_pair
    violated = ~satisfied_mask(phi, x_star)[by_pair.members]
    viol = np.bincount(by_pair.group_of(), weights=violated, minlength=by_pair.keys.size)
    counted = (viol < by_pair.sizes / 4)[incidence.heavy]
    i, j = reduced.heavy_pairs.T
    truth = x_star[i].astype(np.int64) * x_star[j]
    errs = int(np.count_nonzero(counted & (reduced.sigma_pair != truth)))
    bound = math.exp(-epsilon * epsilon * reduced.threshold / 8.0)
    return errs, int(np.count_nonzero(counted)), bound


def light_vote_errors(phi: KLinInstance, x_star, reduced, epsilon) -> tuple[int, int, float]:
    """(errors, total, bound) over the light variables: votes that differ from
    x*_i, and the mean of exp(-eps^4 |L_i| / 16t) (0 with no light variable)."""
    _, by_var = classify_constraints(phi, reduced.threshold)
    errs = total = 0
    bound_sum = 0.0
    for var, size in zip(by_var.keys.tolist(), by_var.sizes.tolist()):
        total += 1
        if reduced.sigma_var[var] != int(x_star[var]):
            errs += 1
        bound_sum += math.exp(-epsilon**4 * size / (16.0 * reduced.threshold))
    return errs, total, bound_sum / max(total, 1)


# ---------------------------------------------------------------------------
# suites


def suite_instance_invariants(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_001)

    ok = True
    for _ in range(max(4, seeds // 8)):
        n = int(rng.integers(4, 11))
        plant = plant_klin(n, 2, 3 * n, 0.3, seed=int(rng.integers(1 << 30)))
        inst = plant.instance
        for _ in range(8):
            x = rng.choice([-1, 1], size=n)
            if evaluate(inst, x)[0] != evaluate(inst, -x)[0]:
                ok = False
    out.append(CheckResult("instance-invariants", "even-arity negation invariance", ok))

    ok = True
    for _ in range(max(4, seeds // 8)):
        n = int(rng.integers(4, 11))
        plant = plant_klin(n, 3, 3 * n, 0.3, seed=int(rng.integers(1 << 30)))
        inst = plant.instance
        flipped = KLinInstance(k=3, n=n, idx=inst.idx, rhs=-inst.rhs, w=inst.w)
        for _ in range(8):
            x = rng.choice([-1, 1], size=n)
            if not np.array_equal(satisfied_mask(inst, -x), satisfied_mask(flipped, x)):
                ok = False
    out.append(CheckResult("instance-invariants", "odd-arity negation flips rhs", ok))

    ok = True
    n = 12
    inst = random_2lin(rng, n, 30)
    qp = to_quadratic_matrix(inst)
    xs = np.array(list(itertools.product([-1, 1], repeat=n)), dtype=np.int8)
    for x in xs[rng.choice(len(xs), size=min(len(xs), 40 * seeds), replace=True)]:
        if abs(quadratic_identity_value(inst, qp, x) - evaluate(inst, x)[0]) > 1e-9:
            ok = False
            break
    out.append(CheckResult("instance-invariants", "quadratic identity matches evaluate", ok))

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

    lab = subset_to_label(sub, seed=7)
    out.append(CheckResult("advice-stats", "conversion preserves revealed coordinates",
                           np.array_equal(lab.values[sub.indices], sub.values)
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
    concave_ok = True
    claim_ok = True
    for _ in range(max(10, seeds // 4)):
        n = int(rng.integers(2, 9))
        A = random_qp(rng, n)
        eps = float(rng.uniform(0.1, 1.0))
        y = rng.choice([-1.0, 1.0], size=n)
        x1, x2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        mid = advice_objective(A, (x1 + x2) / 2, y, eps)
        if mid < (advice_objective(A, x1, y, eps) + advice_objective(A, x2, y, eps)) / 2 - 1e-9:
            concave_ok = False
        xx = rng.uniform(-1, 1, size=n)
        if float(xx @ A.a @ xx) < advice_objective(A, xx, y, eps) / eps - 1e-9:
            claim_ok = False
    out.append(CheckResult("qp-lemmas", "surrogate objective concave along chords", concave_ok))
    out.append(CheckResult("qp-lemmas", "form dominates surrogate over epsilon", claim_ok))

    trials = max(50, 10 * seeds)
    decreases = rounding_decreases(rng, trials, 2, 21)
    out.append(CheckResult("qp-lemmas", "greedy rounding never decreases the form",
                           decreases == 0, f"{decreases}/{trials} decreased"))

    trials = max(5, seeds // 10)
    violations = qp_ceiling_violations(rng, trials, 11)
    out.append(CheckResult("qp-lemmas", "output never beats the exhaustive max",
                           violations == 0, f"{violations}/{trials} above"))

    grid_ok = True
    for _ in range(3):
        n = 4
        A = random_qp(rng, n)
        eps = 0.5
        y = rng.choice([-1.0, 1.0], size=n)
        best = -math.inf
        for point in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=n):
            best = max(best, advice_objective(A, np.array(point), y, eps))
        xf = maximize_concave(A, y, eps)
        got = advice_objective(A, xf, y, eps)
        lip = float(np.abs(A.a @ y).sum() + eps * np.abs(A.a).sum())
        if not (best - 1e-9 <= got <= best + 0.25 * lip + 1e-9):
            grid_ok = False
    out.append(CheckResult("qp-lemmas", "surrogate optimum sandwiched by grid search", grid_ok))
    return out


def suite_maxcut_lemmas(seeds: int) -> list[CheckResult]:
    params = MaxCutParams(1.0, 1.5)
    eps = 0.4
    plant = plant_bipartite_regular(512, 64, 0.0, seed=1000)
    graph = plant.instance
    n, d = graph.n, graph.regular_degree
    star_s = plant.x_star == 1
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
    witness_ok = True
    lp_lb_ok = True
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
        # Feasibility of the planted witness theta_i = 1(i in S*), and the
        # lower bound it certifies for the balance LP optimum.
        lp = build_lp(graph, split, d, eps, params)
        theta_star = star_s[split.undecided].astype(np.float64)
        val = lp.rows @ theta_star
        if np.any((val < lp.row_lo - 1e-9) | (val > lp.row_hi + 1e-9)):
            witness_ok = False
        witness_value = float(lp.c @ theta_star) + lp.offset
        out_lp = solve_lp(lp)
        if not out_lp.is_optimal or out_lp.value < witness_value - 1e-6:
            lp_lb_ok = False
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
        CheckResult("maxcut-lemmas", "planted witness feasible for the balance LP", witness_ok),
        CheckResult("maxcut-lemmas", "LP value dominates the witness value", lp_lb_ok),
        CheckResult("maxcut-lemmas", "no fallbacks needed on the planted fixture",
                    fallbacks == 0, f"{fallbacks} fallbacks"),
    ]
    return results


def suite_twolin_invariants(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_006)

    ascent_ok = True
    for _ in range(max(3, seeds // 30)):
        inst = random_2lin(rng, 14, 40)
        hom, _ = homogenize(inst)
        emb = solve_relaxation(hom, rank=4, sweeps=1, seed=1)
        prev = relaxation_objective(hom, emb)
        for _ in range(10):
            emb = solve_relaxation(hom, rank=4, sweeps=1, seed=1, init=emb)
            cur = relaxation_objective(hom, emb)
            if cur < prev - 1e-9 * max(1.0, inst.total_weight):
                ascent_ok = False
            prev = cur
    out.append(CheckResult("twolin-invariants", "relaxation ascent monotone per sweep", ascent_ok))

    dehom_ok = True
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
        hom, ref = homogenize(inst)
        x_full = rng.choice([-1, 1], size=7).astype(np.int8)
        w_hom = evaluate(hom, x_full)[0]
        w_orig = evaluate(inst, dehomogenize(x_full, ref))[0]
        if abs(w_hom - w_orig) > 1e-9:
            dehom_ok = False
    out.append(CheckResult("twolin-invariants", "dehomogenization preserves weight", dehom_ok))

    dominance_ok = True
    inst = random_2lin(rng, 12, 30)
    hom, ref = homogenize(inst)
    emb = solve_relaxation(hom, rank=5, sweeps=50, seed=3)
    best_x, best_w = hyperplane_round(hom, emb, trials=32, seed=4)
    # Recount every trial independently with the same derived directions.
    dirs = np.random.default_rng(4).standard_normal((32, emb.rank))
    signs = np.where(emb.vectors @ dirs.T >= 0.0, 1, -1).astype(np.int8)
    trial_weights = [evaluate(hom, signs[:, t])[0] for t in range(32)]
    if best_w != max(trial_weights) or any(best_w < w for w in trial_weights):
        dominance_ok = False
    if relaxation_objective(hom, emb) < best_w - 1e-6:
        dominance_ok = False
    out.append(CheckResult("twolin-invariants", "best-of rounding dominates each trial", dominance_ok))

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

    counting_ok = True
    reps_ok = True
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(30, 3, 400, 0.1, seed=700 + s)
        phi = plant.instance
        incidence, _ = classify_constraints(phi, t=4)
        if incidence.by_pair.offsets[-1] != 3 * phi.m:
            counting_ok = False
        advice = gen_label_advice(plant.x_star, 0.8, seed=(71, s))
        reduced = build_psi(phi, advice, delta=0.1, epsilon=0.8)
        reps = np.bincount(reduced.source, minlength=phi.m)
        if np.any(reps < 2) or np.any(reps > 6) or np.any(~np.isin(reps, (2, 3, 4, 6))):
            reps_ok = False
        inc_t, by_var = classify_constraints(phi, reduced.threshold)
        heavy_total = 2 * int(inc_t.by_pair.sizes[inc_t.heavy].sum())
        if reduced.heavy_rows != heavy_total or reduced.m != heavy_total + by_var.offsets[-1]:
            counting_ok = False
    out.append(CheckResult("threelin-lemmas", "pair lists cover each constraint thrice", counting_ok))
    out.append(CheckResult("threelin-lemmas", "each source has 2..6 representatives", reps_ok))

    exact_ok = True
    plant = plant_klin(40, 3, 900, 0.0, seed=7007)
    advice = LabelAdvice(values=plant.x_star, epsilon=1.0)
    reduced = build_psi(plant.instance, advice, delta=0.05, epsilon=1.0)
    value = conservative_psi_value(reduced, plant.x_star)
    if value != reduced.psi.total_weight - float(reduced.psi.w[reduced.flagged].sum()):
        exact_ok = False
    out.append(CheckResult("threelin-lemmas", "noiseless exact advice satisfies every vote", exact_ok))

    acc_ok = True
    impl_ok = True
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(36, 3, 700, 0.08, seed=800 + s)
        advice = gen_label_advice(plant.x_star, 0.75, seed=(81, s))
        res = solve_max3lin_with_advice(plant.instance, advice, delta=0.08, seed=(82, s))
        if res.diagnostics.heavy_implication_violations != 0:
            impl_ok = False
        reduced = build_psi(plant.instance, advice, delta=0.08, epsilon=0.75)
        acc = representative_accounting(plant.instance, reduced, res.assignment, plant.x_star)
        if acc["unsat_phi"] > acc["bound"]:
            acc_ok = False
    out.append(CheckResult("threelin-lemmas", "heavy implication audit clean", impl_ok))
    out.append(CheckResult("threelin-lemmas", "representative counting bound holds", acc_ok))

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
    return out


def suite_enumeration(seeds: int) -> list[CheckResult]:
    out = []
    cons = tuple(((i, i + 1), 1, 1.0) for i in range(5))
    inst = KLinInstance.from_constraints(2, 6, cons)
    res = enumerate_solve(inst, 0.2, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "run count equals the projection",
                           res.runs == projected_runs(6, 0.2),
                           f"{res.runs} vs {projected_runs(6, 0.2)}"))
    res2 = enumerate_solve(inst, 0.2, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "deterministic best tuple",
                           res.subset == res2.subset and res.value == res2.value
                           and np.array_equal(res.assignment, res2.assignment)))
    res_big = enumerate_solve(inst, 0.35, qp_subset_inner, seed=1)
    out.append(CheckResult("enumeration", "larger epsilon never loses value",
                           res_big.value >= res.value,
                           f"{res_big.value} vs {res.value}"))
    out.append(CheckResult("enumeration", "satisfiable chain solved exactly",
                           res_big.value == inst.total_weight))
    return out


def reduction_map_failures(rng, trials: int) -> tuple[int, int, int]:
    """Failures of (counts, completeness, soundness) of the 3-Lin -> 4-Lin
    lift over ``trials`` random (phi, sigma, sigma', t): n in [4, 10], m in
    [3, 29], t in [1, 8]; soundness to 1e-12."""
    counts = complete = sound = 0
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 30))
        t = int(rng.integers(1, 9))
        plant = plant_klin(n, 3, m, float(rng.random() / 2), seed=int(rng.integers(1 << 30)))
        phi = plant.instance
        lift = three_to_four_lin(phi, t)
        counts += lift.phi4.n != n + t or lift.phi4.m != m * t
        sigma = rng.choice([-1, 1], size=n)
        complete += evaluate(phi, sigma)[1] != evaluate(lift.phi4, lift_assignment(sigma, t))[1]
        sigma_prime = rng.choice([-1, 1], size=n + t)
        back = project_assignment(sigma_prime, phi)
        sound += evaluate(phi, back)[1] < evaluate(lift.phi4, sigma_prime)[1] - 1e-12
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
