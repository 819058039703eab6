"""Each shared lemma check in ``verify`` reports a planted fault: a case's
check passes on its fixture, then fails once one function that it calls
through ``verify`` is monkeypatched to return a slightly wrong answer.  A
name with a module prefix (``max3lin.create_h_constraints``) plants the
fault in that module, where the solver calls it too.  A suite check with
no shared function of its own is run as its suite's named check."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from advice_csp import advice as advice_module
from advice_csp import enumeration, fileio, max3lin, verify
from advice_csp.advice import LabelAdvice, SubsetAdvice, gen_label_advice
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.maxcut import BENCH_PARAMS, compute_deltas, split_vertices
from advice_csp.twolin_sdp import UnitEmbedding

PM1 = np.random.default_rng(0).choice([-1, 1], size=(32, 9)).astype(np.int8)
rng = np.random.default_rng


A1 = plant_bipartite_regular(256, 32, 0.0, seed=5)
# (plant, degree, epsilon, advice seed) of the balance LP's witness checks.
# On A1 the LP optimum equals the planted witness's value (1898), so an LP
# value 1 low shows, but no balance row can bind and none is emitted.  On the
# golden kept-rows shape 61 rows can bind, so a fault in their ranges shows;
# its optimum is 687 above the witness.
WITNESS_A1 = (A1, 32, 0.4, 3)
WITNESS_KEPT = (plant_bipartite_regular(1024, 128, 0.37, seed=1), 128, 0.9, (1, 1))


def witness(plant, d, eps, advice_seed):
    graph, advice = plant.instance, gen_label_advice(plant.x_star, eps, seed=advice_seed)
    split = split_vertices(compute_deltas(graph, advice), d, graph.n, BENCH_PARAMS)
    lp = verify.build_lp(graph, split, eps, BENCH_PARAMS)
    return verify.witness_check(graph, split, lp, plant.x_star)


def containment():
    advice = gen_label_advice(A1.x_star, 0.4, seed=3)
    deltas = verify.compute_deltas(A1.instance, advice)
    return int(not verify.sides_inside_plant(
        verify.split_vertices(deltas, 32, A1.instance.n, BENCH_PARAMS), A1.x_star))


def vote_errors(errors):
    plant = plant_klin(40, 3, 600, 0.0, seed=2)
    advice = gen_label_advice(plant.x_star, 0.9, seed=(2, 1))
    reduced = verify.build_psi(plant.instance, advice, 0.5, 0.9)
    return errors(plant.instance, plant.x_star, reduced, 0.9)[0]


def rounding():
    hom, _ = verify.homogenize(verify.random_2lin(rng(6), 20, 60))
    emb = verify.solve_relaxation(hom, rank=4, sweeps=40, seed=7)
    return verify.rounding_dominance_failures(hom, emb, trials=16, seed=8)


def counting():
    plant = plant_klin(20, 3, 1500, 0.1, seed=12)
    advice = gen_label_advice(plant.x_star, 0.8, seed=13)
    return sum(verify.reduction_counting_failures(
        plant.instance, verify.build_psi(plant.instance, advice, 0.1, 0.8)))


def boundary_counting(other_heavy):
    """The counting check at t = 6 (delta 1/2, epsilon 1) on pairs (0, 1)
    covered exactly t times and (2, 3) t - 1 times, and (4, 5) t + 2 times
    when ``other_heavy``; every other pair is covered once."""
    t, fresh = 6, itertools.count(6)
    cover = {(0, 1): t, (2, 3): t - 1, (4, 5): t + 2 if other_heavy else 0}
    cons = [((i, j, next(fresh)), 1, 1.0) for (i, j), c in cover.items() for _ in range(c)]
    phi = KLinInstance.from_constraints(3, next(fresh), cons)
    advice = LabelAdvice(values=np.ones(phi.n, dtype=np.int8), epsilon=1.0)
    reduced = verify.build_psi(phi, advice, 0.5, 1.0)
    assert reduced.threshold == t
    return sum(verify.reduction_counting_failures(phi, reduced))


# a plant with heavy pairs and light constraints (the suite's first fixture)
AUDIT = plant_klin(20, 3, 1500, 0.1, seed=800)


def audit(part):
    advice = gen_label_advice(AUDIT.x_star, 0.8, seed=(81, 0))
    return verify.reduction_audit_failures(AUDIT, advice, delta=0.1, seed=(82, 0))[part]


def unary_without_rhs(reps):
    # every heavy unary pinned to sigma rather than sigma * rhs
    return replace(reps, rhs=np.repeat(reps.rhs[0::2], 2))


def lift_map():
    phi = plant_klin(9, 3, 25, 0.4, seed=4).instance
    return sum(sum(verify.lift_map_failures(phi, 3, x, np.append(x, [1, -1, 1]))) for x in PM1)


def value_nudged(out):
    return replace(out, value=out.value + 1e-3) if out.is_optimal else out


def with_columns(inst, **columns):
    columns = {"idx": inst.idx, "rhs": inst.rhs, "w": inst.w, **columns}
    return KLinInstance(inst.k, inst.n, **columns)


def drop_last_row(r):
    psi = with_columns(r.psi, idx=r.psi.idx[:-1], rhs=r.psi.rhs[:-1], w=r.psi.w[:-1])
    return replace(r, psi=psi, source=r.source[:-1], flagged=r.flagged[:-1])


def repeat_first_index(hom, ref):
    idx = hom.idx.copy()
    idx[0, 1] = idx[0, 0]
    return KLinInstance._derived(hom.k, hom.n, idx, hom.rhs, hom.w), ref


def distinct_rows(inst):
    """The instance with each repeated (indices, rhs) row kept once, in order."""
    _, first = np.unique(np.column_stack([inst.idx, inst.rhs]), axis=0, return_index=True)
    first.sort()
    return with_columns(inst, idx=inst.idx[first], rhs=inst.rhs[first], w=inst.w[first])


def alternate(f, wrong):
    """``f`` on even calls, ``wrong`` of its answer on odd ones."""
    calls = itertools.count()
    return lambda *args: wrong(f(*args)) if next(calls) % 2 else f(*args)


def suite_check(suite, name):
    """The named check of a verify suite, as 0 when it passes and 1 when it fails."""
    def check():
        (passed,) = [r.passed for r in verify.run_suite(suite, 1) if r.name == name]
        return int(not passed)
    return check


def run_seed_ignored(inner):
    """The inner solver seeded from a call counter instead of its run's seed."""
    calls = itertools.count()
    return lambda instance, advice, seed: inner(instance, advice, next(calls))


def plant_seed_ignored(plant):
    """The generator seeded from a call counter instead of its seed."""
    calls = itertools.count()
    return lambda *args, seed: plant(*args, seed=next(calls))


UNARY = KLinInstance.from_constraints(2, 4, (((0,), 1, 2.0), ((1,), -1, 0.5), ((2, 3), 1, 1.0)))

# id: (check, the name in verify to patch, the wrong version of the real function f)
CASES = {
    "negation, rhs ignored": (
        lambda: verify.negation_failures(plant_klin(9, 3, 20, 0.3, seed=5).instance, PM1),
        "satisfied_mask", lambda f: lambda inst, x: f(with_columns(inst, rhs=np.ones(inst.m)), x)),
    "identity, weights nudged by 1e-6": (
        lambda: verify.identity_failures(verify.random_2lin(rng(1), 9, 20), PM1),
        "to_quadratic_matrix", lambda f: lambda inst: f(with_columns(inst, w=inst.w + 1e-6))),
    "concavity, convex term added": (
        lambda: verify.concavity_failures(rng(2), 20, 8), "advice_objective",
        lambda f: lambda A, x, y, eps: f(A, x, y, eps) + 10.0 * float(np.square(x).sum())),
    "form dominance, l1 penalty dropped": (
        lambda: verify.form_dominance_failures(rng(3), 20, 8), "advice_objective",
        lambda f: lambda A, x, y, eps: float(np.asarray(x) @ A.a @ np.asarray(y))),
    "grid sandwich, origin returned": (
        lambda: verify.grid_sandwich_failures(rng(5), 2), "maximize_concave",
        lambda f: lambda A, y, eps: np.zeros(A.n)),
    "witness rows, each band cut to its lower end": (
        lambda: witness(*WITNESS_KEPT)[0], "build_lp",
        lambda f: lambda *args: replace(f(*args), row_hi=f(*args).row_lo)),
    "witness value, LP value 1 low": (
        lambda: witness(*WITNESS_A1)[1], "solve_lp",
        lambda f: lambda lp: replace(f(lp), value=f(lp).value - 1.0)),
    "ascent, last vector negated": (
        lambda: verify.ascent_decreases(verify.random_2lin(rng(2), 10, 25), 4, 3, 15),
        "solve_relaxation", lambda f: lambda *args, **kw: UnitEmbedding(
            f(*args, **kw).vectors * np.append(np.ones(9), -1.0)[:, None])),
    "dehomogenization, reference sign ignored": (
        lambda: verify.dehomogenization_failures(UNARY, PM1[:, :5]), "dehomogenize",
        lambda f: lambda x, ref: np.delete(x, ref)),
    "rounding, first trial kept": (
        rounding, "hyperplane_round",
        lambda f: lambda hom, emb, trials, seed: f(hom, emb, trials=1, seed=seed)),
    "counting, last representative dropped": (
        counting, "build_psi", lambda f: lambda *args: drop_last_row(f(*args))),
    "counting, runs of exactly t light, another pair heavy": (
        lambda: boundary_counting(True), "max3lin.classify_constraints",
        lambda f: lambda phi, t: f(phi, t + 1)),
    "counting, runs of exactly t light, no other pair heavy": (
        lambda: boundary_counting(False), "max3lin.classify_constraints",
        lambda f: lambda phi, t: f(phi, t + 1)),
    "exact advice, light votes negated": (
        lambda: verify.exact_advice_failures(plant_klin(40, 3, 900, 0.0, seed=7007), 0.05),
        "max3lin.create_l_constraints",
        lambda f: lambda *args: replace(f(*args), rhs=-f(*args).rhs)),
    "implication audit, heavy unary without the rhs": (
        lambda: audit(0), "max3lin.create_h_constraints",
        lambda f: lambda *args: unary_without_rhs(f(*args))),
    "counting bound, every source marked heavy": (
        lambda: audit(1), "build_psi",
        lambda f: lambda *args: replace(f(*args), heavy_mask=np.ones_like(f(*args).heavy_mask))),
    "lift map, last new variable -1": (
        lift_map, "lift_assignment", lambda f: lambda sigma, t: np.append(f(sigma, t)[:-1], -1)),
    "containment, scores negated": (
        containment, "compute_deltas", lambda f: lambda graph, advice: -f(graph, advice)),
    "witness value, F recount one edge high": (
        lambda: witness(*WITNESS_A1)[1], "q_cut_counts",
        lambda f: lambda *args: (f(*args)[0] + 1, f(*args)[1])),
    "qp ceiling, value 1 high": (
        lambda: verify.qp_ceiling_violations(rng(9), 5, 11), "solve_qp_with_advice",
        lambda f: lambda A, advice: (f(A, advice)[0], f(A, advice)[1] + 1.0)),
    "greedy rounding, all +1 returned": (
        lambda: verify.rounding_decreases(rng(10), 20, 2, 21), "greedy_round",
        lambda f: lambda A, x: np.ones(A.n)),
    "lp oracle, optimal value 1e-3 high": (
        lambda: verify.lp_oracle_disagreements(rng(11), 20)[0], "solve_lp",
        lambda f: lambda lp: value_nudged(f(lp))),
    "heavy votes, sigma_pair negated": (
        lambda: vote_errors(verify.heavy_vote_errors), "build_psi",
        lambda f: lambda *args: replace(f(*args), sigma_pair=-f(*args).sigma_pair)),
    "light votes, sigma_var negated": (
        lambda: vote_errors(verify.light_vote_errors), "build_psi",
        lambda f: lambda *args: replace(f(*args), sigma_var=-f(*args).sigma_var)),
    "derived instances, repeated index in a homogenized row": (
        lambda: verify.derived_instance_failures(rng(14), 2), "homogenize",
        lambda f: lambda inst: repeat_first_index(*f(inst))),
    "conversion, revealed overwrite skipped": (
        suite_check("advice-stats", "conversion preserves revealed coordinates"),
        "subset_to_label",
        lambda f: lambda advice, seed: f(SubsetAdvice(advice.n, [], [], advice.epsilon), seed)),
    "conversion, trusted labels handed over as int64": (
        suite_check("advice-stats", "conversion preserves revealed coordinates"),
        "advice._unchecked",
        lambda f: lambda cls, **fields: f(cls, **{**fields,
                                                   "values": fields["values"].astype(np.int64)})),
    "enumeration run count, projection one low": (
        suite_check("enumeration", "run count equals the projection"), "projected_runs",
        lambda f: lambda n, epsilon: f(n, epsilon) - 1),
    "enumeration determinism, inner ignores its run seed": (
        suite_check("enumeration", "deterministic runs and best tuple"), "qp_subset_inner",
        run_seed_ignored),
    "enumeration epsilon prefix, inner ignores its run seed": (
        suite_check("enumeration", "larger epsilon repeats the smaller runs, never loses value"),
        "qp_subset_inner", run_seed_ignored),
    "enumeration satisfiable chain, satisfied fraction kept as the value": (
        suite_check("enumeration", "satisfiable chain solved exactly"), "enumeration.evaluate",
        lambda f: lambda instance, x: f(instance, x)[::-1]),
    "instance file round-trip, last byte of each weight token dropped": (
        suite_check("instance-invariants", "instance file round-trip"), "fileio._floats",
        lambda f: lambda tokens, tok: f(tokens._replace(size=tokens.size - 1), tok)),
    "enumeration trusted advice, indices handed over unsorted": (
        suite_check("enumeration", "trusted advice matches the public constructor"),
        "enumeration._unchecked",
        lambda f: lambda cls, **fields: f(cls, **{**fields, "indices": fields["indices"][::-1],
                                                   "values": fields["values"][::-1]})),
    "gamma=0 plant, a quarter of each degree inside the sides": (
        suite_check("instance-invariants", "gamma=0 plant cuts every edge"),
        "plant_bipartite_regular",
        lambda f: lambda n, d, gamma, seed: f(n, d, max(gamma, 0.25), seed)),
    "generator determinism, plant ignores its seed": (
        suite_check("instance-invariants", "generators deterministic in seed"), "plant_klin",
        plant_seed_ignored),
    "lp repeat, every second solve 1e-3 high": (
        suite_check("lp-oracle", "repeat solves identical"), "solve_lp",
        lambda f: alternate(f, value_nudged)),
    "duplicates, each repeated row counted once": (
        suite_check("twolin-invariants", "duplicates count with multiplicity"), "evaluate",
        lambda f: lambda inst, x: f(distinct_rows(inst), x)),
    "satisfiable plant, relaxation stops after one sweep": (
        suite_check("twolin-invariants", "satisfiable plant reaches full relaxation value"),
        "solve_relaxation", lambda f: lambda *args, **kw: f(*args, **{**kw, "sweeps": 1})),
}


@pytest.mark.parametrize("check, name, fault", CASES.values(), ids=CASES)
def test_check_reports_planted_fault(monkeypatch, check, name, fault):
    module, _, name = name.rpartition(".")
    target = {"": verify, "max3lin": max3lin, "enumeration": enumeration, "fileio": fileio,
              "advice": advice_module}[module]
    assert check() == 0
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert check() >= 1
