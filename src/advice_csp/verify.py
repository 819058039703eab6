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
from .enumeration import enumerate_solve, projected_runs
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
from .lp import FEAS_TOL, LinearProgram, LpOutcome, RangedRow, solve_lp
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
from .qp_advice import advice_objective, greedy_round, maximize_concave, solve_2lin_with_advice
from .reduce4lin import lift_assignment, project_assignment, three_to_four_lin
from .twolin_sdp import (
    dehomogenize,
    homogenize,
    hyperplane_round,
    relaxation_objective,
    solve_relaxation,
)


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
    planes: list[tuple[np.ndarray, float]] = []
    for row in lp.rows:
        if math.isfinite(row.lo):
            planes.append((row.a, row.lo))
        if math.isfinite(row.hi) and row.hi != row.lo:
            planes.append((row.a, row.hi))
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        planes.append((e, lp.lo[j]))
        if lp.hi[j] != lp.lo[j]:
            planes.append((e, lp.hi[j]))

    def feasible(x: np.ndarray) -> bool:
        if np.any(x < lp.lo - tol) or np.any(x > lp.hi + tol):
            return False
        for row in lp.rows:
            v = float(row.a @ x)
            if v < row.lo - tol or v > row.hi + tol:
                return False
        return True

    best_x, best_v = None, -math.inf
    for combo in itertools.combinations(range(len(planes)), p):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        v = float(lp.c @ x)
        if v > best_v:
            best_x, best_v = x, v
    if best_x is None:
        return LpOutcome(status="infeasible")
    return LpOutcome(status="optimal", x=best_x, value=best_v + lp.offset)


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


def _random_2lin(rng, n, m, weighted=True) -> KLinInstance:
    cons = []
    for _ in range(m):
        i, j = rng.choice(n, size=2, replace=False)
        w = float(rng.random() + 0.1) if weighted else 1.0
        cons.append(((int(i), int(j)), int(rng.choice([-1, 1])), w))
    return KLinInstance.from_constraints(2, n, cons)


def _same_columns(a: KLinInstance, b: KLinInstance) -> bool:
    return (a.k, a.n) == (b.k, b.n) and all(
        np.array_equal(x, y) for x, y in ((a.idx, b.idx), (a.rhs, b.rhs), (a.w, b.w))
    )


def _binomial_band(p: float, trials: int, sigmas: float = 3.0) -> float:
    return sigmas * math.sqrt(max(p * (1 - p), 1e-12) / trials)


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
    inst = _random_2lin(rng, n, 30)
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
    same = _same_columns(p1.instance, p2.instance) and np.array_equal(p1.x_star, p2.x_star)
    g1 = plant_bipartite_regular(64, 6, 0.5, seed=8)
    g2 = plant_bipartite_regular(64, 6, 0.5, seed=8)
    same = same and g1.instance.edges == g2.instance.edges
    out.append(CheckResult("instance-invariants", "generators deterministic in seed", same))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.klin")
        inst = _random_2lin(rng, 9, 12)
        fileio.write_instance(path, inst)
        back = fileio.read_instance(path)
        ok = _same_columns(back, inst)
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
    band = _binomial_band((1 + eps) / 2, n)
    out.append(CheckResult("advice-stats", "agreement rate in 3-sigma band",
                           abs(agree - (1 + eps) / 2) <= band,
                           f"agree={agree:.4f} target={(1+eps)/2}"))

    eps = 0.25
    sub = gen_subset_advice(x_star, eps, seed=6)
    band = _binomial_band(eps, n) * n
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
    target = (1 + 0.3) / 2 if 0 in probe.indices.tolist() else 0.5
    if 0 in probe.indices.tolist():
        target = 1.0
    band = _binomial_band(max(target, 0.5), trials)
    out.append(CheckResult("advice-stats", "conversion mixture statistics",
                           abs(hits / trials - target) <= band + 1e-9,
                           f"rate={hits/trials:.3f} target={target}"))
    return out


def suite_lp_oracle(seeds: int) -> list[CheckResult]:
    rng = np.random.default_rng(20_003)
    mismatches = 0
    nondet = 0
    trials = max(20, seeds)
    for _ in range(trials):
        p = int(rng.integers(1, 7))
        nr = int(rng.integers(0, 7))
        c = rng.normal(size=p)
        lo, hi = -rng.random(p), rng.random(p)
        rows = []
        for _ in range(nr):
            a = rng.normal(size=p)
            mid, width = rng.normal(), 2 * rng.random()
            kind = rng.integers(0, 3)
            if kind == 0:
                rows.append(RangedRow(a=a, lo=mid - width, hi=mid + width))
            elif kind == 1:
                rows.append(RangedRow(a=a, hi=mid))
            else:
                rows.append(RangedRow(a=a, lo=mid))
        lp = LinearProgram(c=c, rows=tuple(rows), lo=lo, hi=hi)
        got, want = solve_lp(lp), lp_vertex_optimum(lp)
        if got.status != want.status:
            mismatches += 1
        elif got.is_optimal and abs(got.value - want.value) > 1e-6:
            mismatches += 1
        rerun = solve_lp(lp)
        if rerun.status != got.status or (
            got.is_optimal and not np.array_equal(rerun.x, got.x)
        ):
            nondet += 1
    return [
        CheckResult("lp-oracle", "simplex matches vertex enumeration",
                    mismatches == 0, f"{mismatches}/{trials} mismatches"),
        CheckResult("lp-oracle", "repeat solves identical",
                    nondet == 0, f"{nondet}/{trials} diverged"),
    ]


def suite_qp_lemmas(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_004)

    def random_qp(n):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        return QpMatrix(a)

    concave_ok = True
    claim_ok = True
    for _ in range(max(10, seeds // 4)):
        n = int(rng.integers(2, 9))
        A = random_qp(n)
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

    mono_ok = True
    for _ in range(max(50, 10 * seeds)):
        n = int(rng.integers(2, 21))
        A = random_qp(n)
        x = rng.uniform(-1, 1, size=n)
        before = float(x @ A.a @ x)
        xr = greedy_round(A, x)
        if A.form_value(xr) < before - 1e-9:
            mono_ok = False
    out.append(CheckResult("qp-lemmas", "greedy rounding never decreases the form", mono_ok))

    ceiling_ok = True
    for _ in range(max(5, seeds // 10)):
        n = int(rng.integers(2, 11))
        A = random_qp(n)
        eps = float(rng.uniform(0.2, 1.0))
        adv = LabelAdvice(values=rng.choice([-1, 1], size=n).astype(np.int8), epsilon=eps)
        from .qp_advice import solve_qp_with_advice

        _, val = solve_qp_with_advice(A, adv)
        if val > brute_force_qp_max(A) + 1e-9:
            ceiling_ok = False
    out.append(CheckResult("qp-lemmas", "output never beats the exhaustive max", ceiling_ok))

    grid_ok = True
    for _ in range(3):
        n = 4
        A = random_qp(n)
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


def _maxcut_fixture(seed):
    plant = plant_bipartite_regular(512, 64, 0.0, seed=1000 + seed % 3)
    return plant


def suite_maxcut_lemmas(seeds: int) -> list[CheckResult]:
    params = MaxCutParams(1.0, 1.5)
    eps = 0.4
    plant = _maxcut_fixture(0)
    graph = plant.instance
    n, d = graph.n, graph.regular_degree
    u, v = graph.edge_arrays
    star_s = plant.x_star == 1
    # Signed planted neighborhood imbalance |E(i,S*)| - |E(i,T*)|.
    delta_star = np.zeros(n, dtype=np.int64)
    np.add.at(delta_star, u, np.where(star_s[v], 1, -1))
    np.add.at(delta_star, v, np.where(star_s[u], 1, -1))
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
        if (np.all(star_s[split.side_s]) and not np.any(star_s[split.side_t])):
            containment += 1
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
        for row in lp.rows:
            val = float(row.a @ theta_star)
            if val < row.lo - 1e-9 or val > row.hi + 1e-9:
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
        inst = _random_2lin(rng, 14, 40)
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
    inst = _random_2lin(rng, 12, 30)
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
    rng = np.random.default_rng(20_007)

    counting_ok = True
    reps_ok = True
    for s in range(max(3, seeds // 30)):
        plant = plant_klin(30, 3, 400, 0.1, seed=700 + s)
        phi = plant.instance
        incidence, lights = classify_constraints(phi, t=4)
        if incidence.by_pair.offsets[-1] != 3 * phi.m:
            counting_ok = False
        advice = gen_label_advice(plant.x_star, 0.8, seed=(71, s))
        reduced = build_psi(phi, advice, delta=0.1, epsilon=0.8)
        reps = np.bincount(reduced.source, minlength=phi.m)
        if np.any(reps < 2) or np.any(reps > 6) or np.any(~np.isin(reps, (2, 3, 4, 6))):
            reps_ok = False
        inc_t, lights_t = classify_constraints(phi, reduced.threshold)
        heavy_total = 2 * int(inc_t.by_pair.sizes[inc_t.heavy].sum())
        light_total = int(lights_t.by_var.offsets[-1])
        if reduced.m != heavy_total + light_total:
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
    t = reduced.threshold
    incidence, lights = classify_constraints(phi, t)
    sat_star = satisfied_mask(phi, x_star)
    errs = total = 0
    for g, (i, j) in enumerate(reduced.heavy_pairs.tolist()):
        members = incidence.members((i, j))
        viol = int(np.count_nonzero(~sat_star[members]))
        if viol >= len(members) / 4:
            continue
        total += 1
        truth = int(x_star[i]) * int(x_star[j])
        if reduced.sigma_pair[g] != truth:
            errs += 1
    bound = math.exp(-eps * eps * t / 8.0)
    margin = _binomial_band(bound, max(total, 1))
    out.append(CheckResult("threelin-lemmas", "heavy vote error rate within bound",
                           total > 0 and errs / total <= bound + margin,
                           f"errs={errs}/{total} bound={bound:.4f}"))

    light_errs = light_total = 0
    bound_sum = 0.0
    for var, size in zip(lights.by_var.keys.tolist(), lights.by_var.sizes.tolist()):
        light_total += 1
        if reduced.sigma_var[var] != int(x_star[var]):
            light_errs += 1
        bound_sum += math.exp(-eps**4 * size / (16.0 * t))
    mean_bound = bound_sum / max(light_total, 1)
    margin = _binomial_band(mean_bound, max(light_total, 1))
    out.append(CheckResult("threelin-lemmas", "light vote error rate within bound",
                           light_total == 0 or light_errs / light_total <= mean_bound + margin,
                           f"errs={light_errs}/{light_total} bound={mean_bound:.4f}"))
    return out


def suite_enumeration(seeds: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20_008)
    cons = tuple(((i, i + 1), 1, 1.0) for i in range(5))
    inst = KLinInstance.from_constraints(2, 6, cons)

    def inner(instance, sub, seed):
        adv = subset_to_label(sub, seed)
        return solve_2lin_with_advice(instance, adv)[0]

    res = enumerate_solve(inst, 0.2, inner, seed=1)
    out.append(CheckResult("enumeration", "run count equals the projection",
                           res.runs == projected_runs(6, 0.2),
                           f"{res.runs} vs {projected_runs(6, 0.2)}"))
    res2 = enumerate_solve(inst, 0.2, inner, seed=1)
    out.append(CheckResult("enumeration", "deterministic best tuple",
                           res.subset == res2.subset and res.value == res2.value
                           and np.array_equal(res.assignment, res2.assignment)))
    res_big = enumerate_solve(inst, 0.35, inner, seed=1)
    out.append(CheckResult("enumeration", "larger epsilon never loses value",
                           res_big.value >= res.value,
                           f"{res_big.value} vs {res.value}"))
    out.append(CheckResult("enumeration", "satisfiable chain solved exactly",
                           res_big.value == inst.total_weight))
    return out


def suite_reduction(seeds: int) -> list[CheckResult]:
    rng = np.random.default_rng(20_009)
    complete_ok = True
    sound_ok = True
    count_ok = True
    trials = max(20, seeds)
    for _ in range(trials):
        n = int(rng.integers(4, 10))
        m = int(rng.integers(3, 25))
        t = int(rng.integers(1, 9))
        plant = plant_klin(n, 3, m, float(rng.random() * 0.5), seed=int(rng.integers(1 << 30)))
        phi = plant.instance
        lift = three_to_four_lin(phi, t)
        if lift.phi4.n != n + t or lift.phi4.m != m * t:
            count_ok = False
        sigma = rng.choice([-1, 1], size=n)
        if evaluate(phi, sigma)[1] != evaluate(lift.phi4, lift_assignment(sigma, t))[1]:
            complete_ok = False
        sigma_prime = rng.choice([-1, 1], size=n + t)
        back = project_assignment(sigma_prime, phi)
        if evaluate(phi, back)[1] < evaluate(lift.phi4, sigma_prime)[1] - 1e-12:
            sound_ok = False
    return [
        CheckResult("reduction", "variable and constraint counts exact", count_ok),
        CheckResult("reduction", "completeness fraction preserved", complete_ok),
        CheckResult("reduction", "soundness projection never loses value", sound_ok),
    ]


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
