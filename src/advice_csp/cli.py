"""Command-line front end: generate, solve, bench, enumerate, reduce, verify.

Machine-readable JSON goes to stdout (one object per invocation); human
progress and error text goes to stderr.  Exit codes: 0 success (including
solver fallbacks), 1 input error, 2 budget refusal, 3 internal
consistency failure.

Seed scheme: a run's master seed s derives component streams as tuples
(s, 1) for advice, (s, 1, 1) for converting subset advice to labels and
(s, 2) for algorithm randomness, so a bench row for seed s and a
``solve --seed s`` run on the files ``gen --seed s`` writes give the
same answer.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

from . import fileio, verify
from .advice import LabelAdvice, SubsetAdvice, gen_label_advice, gen_subset_advice, subset_to_label
from .enumeration import DEFAULT_CAP, INNER_SOLVERS, enumerate_solve
from .errors import AdviceCspError, BudgetError, InputError, InternalError
from .instances import (
    KLinInstance,
    evaluate,
    graph_to_klin,
    plant_bipartite_regular,
    plant_klin,
)
from .max3lin import solve_max3lin_with_advice
from .maxcut import MaxCutParams, solve_maxcut_with_advice
from .qp_advice import solve_2lin_with_advice
from .reduce4lin import three_to_four_lin
from .twolin_sdp import TwoLinConfig, solve_2lin

ALGORITHMS = ("maxcut-lp", "qp-advice", "max3lin", "twolin-sdp")


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _refuse_existing(paths, force: bool):
    """Raise InputError if an output path (None means no output) exists."""
    if force:
        return
    clashes = [p for p in paths if p is not None and os.path.exists(p)]
    if clashes:
        raise InputError(f"refusing to overwrite {clashes[0]} (pass --force to allow)")


# ---------------------------------------------------------------------------
# gen

# Size parameters each generator kind requires.
GENERATORS = {"maxcut-planted": ("n", "d"), "klin-planted": ("n", "k", "m")}


def _plant(gen: dict, seed: int):
    """Plant the instance ``gen`` describes; returns (plant, planted fraction)."""
    if gen["kind"] == "maxcut-planted":
        plant = plant_bipartite_regular(gen["n"], gen["d"], gen.get("gamma", 0.0), seed=seed)
        total = len(plant.instance.edges)
    else:
        plant = plant_klin(gen["n"], gen["k"], gen["m"], gen.get("delta", 0.0), seed=seed)
        total = plant.instance.m
    return plant, plant.planted_value / total if total else 1.0


ADVICE_MODELS = {"label": gen_label_advice, "subset": gen_subset_advice}


def cmd_gen(args) -> int:
    for key in GENERATORS[args.kind]:
        if getattr(args, key) is None:
            raise InputError(f"{args.kind} requires --{key}")
    prefix = args.out
    paths = {
        "instance": f"{prefix}.instance",
        "assignment": f"{prefix}.assignment",
    }
    if args.advice is not None:
        paths["advice"] = f"{prefix}.advice"
    _refuse_existing(paths.values(), args.force)
    plant, planted_fraction = _plant(vars(args), args.seed)
    # Draw the advice before writing anything, so invalid advice leaves no files.
    advice = (None if args.advice is None
              else ADVICE_MODELS[args.advice](plant.x_star, args.epsilon, seed=(args.seed, 1)))
    fileio.write_instance(paths["instance"], plant.instance)
    fileio.write_assignment(paths["assignment"], plant.x_star)
    report = {
        "command": "gen",
        "kind": args.kind,
        "seeds": {"master": args.seed},
        "planted_value": plant.planted_value,
        "planted_fraction": planted_fraction,
        "files": paths,
    }
    if advice is not None:
        fileio.write_advice(paths["advice"], advice)
        report["advice"] = {"model": args.advice, "epsilon": args.epsilon,
                            "seed": [args.seed, 1]}
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# solve


def _label_advice(advice, seed) -> LabelAdvice:
    """Label advice as given; subset advice converted on stream (seed, 1, 1)."""
    if isinstance(advice, SubsetAdvice):
        return subset_to_label(advice, seed=(seed, 1, 1))
    return advice


def _record(diagnostics) -> dict:
    """A run's record: ``fallback``, then every field of the solver's
    diagnostics dataclass (None for a solver without one) with a NaN or
    infinite float as None."""
    fields = {} if diagnostics is None else asdict(diagnostics)
    return {"fallback": False,
            **{key: None if isinstance(value, float) and not math.isfinite(value) else value
               for key, value in fields.items()}}


def _run_algorithm(name, instance, advice, seed, maxcut=MaxCutParams(),
                   twolin=TwoLinConfig(), delta=None, epsilon=None):
    """Run one solver on a graph or k-Lin instance with label advice.

    Returns (value, fraction, assignment, ``_record`` of the run, routed_to
    or None).
    ``maxcut-lp`` on an instance that is not a regular graph runs
    ``qp-advice`` instead.  Algorithm randomness uses stream (seed, 2).
    """
    if name == "maxcut-lp":
        graph = instance
        if isinstance(instance, KLinInstance):
            try:
                graph = fileio.instance_to_graph(instance)
            except AdviceCspError:
                graph = None
        if graph is None or graph.regular_degree is None:
            *run, _ = _run_algorithm("qp-advice", instance, advice, seed)
            return (*run, "qp-advice")
        res = solve_maxcut_with_advice(graph, advice, maxcut, seed=(seed, 2))
        total = len(graph.edges)
        return (res.cut_weight, res.cut_weight / total if total else 1.0,
                res.assignment, _record(res.diagnostics), None)
    if not isinstance(instance, KLinInstance):
        instance = graph_to_klin(instance)
    if name == "max3lin":
        res = solve_max3lin_with_advice(
            instance, advice, delta=delta, epsilon=epsilon, seed=(seed, 2)
        )
        return (res.satisfied_weight, res.satisfied_fraction,
                res.assignment, _record(res.diagnostics), None)
    if name == "qp-advice":
        x, weight = solve_2lin_with_advice(instance, advice)
    else:
        hint = advice.values if advice is not None else None
        x, weight = solve_2lin(instance, replace(twolin, hint=hint), seed=(seed, 2))
    _, fraction = evaluate(instance, x)
    return weight, fraction, x, _record(None), None


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    if args.algorithm == "max3lin" and args.delta is None:
        raise InputError("max3lin requires --delta")
    _refuse_existing([args.out], args.force)
    instance = fileio.read_instance(args.instance)
    seeds = {"master": args.seed, "advice_stream": [args.seed, 1],
             "algorithm_stream": [args.seed, 2]}
    advice = None
    if args.advice is not None:
        given = fileio.read_advice(args.advice)
        if isinstance(given, SubsetAdvice):
            seeds["conversion_stream"] = [args.seed, 1, 1]
        advice = _label_advice(given, args.seed)
        if advice.n != instance.n:
            raise InputError(f"advice length {advice.n} does not match instance n={instance.n}")
    elif args.algorithm != "twolin-sdp":
        raise InputError(f"algorithm {args.algorithm} requires --advice")
    value, fraction, assignment, diag, routed = _run_algorithm(
        args.algorithm, instance, advice, args.seed,
        maxcut=MaxCutParams(args.c1, args.c2),
        twolin=TwoLinConfig(rank=args.rank, sweeps=args.sweeps, trials=args.trials),
        delta=args.delta, epsilon=args.epsilon,
    )
    if args.out is not None:
        fileio.write_assignment(args.out, assignment)
    report = {
        "command": "solve",
        "algorithm": {"name": args.algorithm},
        "routed_to": routed,
        "instance": {"path": args.instance, "n": instance.n, "m": instance.m,
                     "k": instance.k},
        "advice": None if advice is None else {
            "path": args.advice, "epsilon": advice.epsilon,
        },
        "seeds": seeds,
        "output": {"value": value, "fraction": fraction, "diagnostics": diag},
        "wall_time_s": round(time.monotonic() - t0, 4),
    }
    if args.algorithm == "max3lin":
        report["algorithm"]["delta"] = args.delta
        report["algorithm"]["epsilon"] = args.epsilon
    if args.algorithm == "maxcut-lp":
        report["algorithm"]["threshold_coeff"] = args.c1
        report["algorithm"]["slack_coeff"] = args.c2
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# bench


_REQUIRED_BENCH_KEYS = ("name", "generator", "advice", "algorithm", "seeds", "threshold")
_BENCH_SECTIONS = ("generator", "advice", "algorithm", "threshold")
_REQUIRED = object()


def _config_key(config: dict, path: str):
    """The value at a dotted key path such as 'threshold.min'."""
    node = config
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise InputError(f"bench config missing key {path!r}")
        node = node[key]
    return node


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_number(config: dict, path: str, integer: bool = False, default=_REQUIRED):
    """The number, or with ``integer`` the integer, at a dotted key path;
    a missing key gives ``default`` when one is passed."""
    parent, _, last = path.rpartition(".")
    node = _config_key(config, parent) if parent else config
    if last not in node and default is not _REQUIRED:
        return default
    value = _config_key(config, path)
    if not (_is_int(value) if integer else _is_number(value)):
        kind = "an integer" if integer else "a number"
        raise InputError(f"bench config key {path!r} must be {kind}, got {value!r}")
    return value


def cmd_bench(args) -> int:
    t0 = time.monotonic()
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    for key in _REQUIRED_BENCH_KEYS:
        _config_key(config, key)
    for key in _BENCH_SECTIONS:
        if not isinstance(config[key], dict):
            raise InputError(f"bench config key {key!r} must be an object, got {config[key]!r}")
    if not isinstance(config["name"], str):
        raise InputError(f"bench config key 'name' must be a string, got {config['name']!r}")
    csv_path = args.csv or f"{config['name']}.csv"
    _refuse_existing([csv_path], args.force)

    gen, algo = config["generator"], config["algorithm"]
    if not isinstance(gen.get("kind"), str) or gen["kind"] not in GENERATORS:
        raise InputError(f"unknown generator kind {gen.get('kind')!r}")
    for key in GENERATORS[gen["kind"]]:
        _config_number(config, f"generator.{key}", integer=True)
    for key in ("gamma", "delta"):
        _config_number(config, f"generator.{key}", default=0.0)
    name = algo.get("name")
    if not isinstance(name, str) or name not in ALGORITHMS:
        raise InputError(f"unknown algorithm {name!r}")
    model = config["advice"].get("model", "label")
    if not isinstance(model, str) or model not in ADVICE_MODELS:
        raise InputError(f"unknown advice model {model!r}")
    delta = _config_number(config, "algorithm.delta") if name == "max3lin" else None
    algo_epsilon = _config_number(config, "algorithm.epsilon", default=None)
    maxcut = MaxCutParams(**{key: _config_number(config, f"algorithm.{key}")
                             for key in ("threshold_coeff", "slack_coeff") if key in algo})
    adv_epsilon = _config_number(config, "advice.epsilon")
    threshold = _config_number(config, "threshold.min")
    metric = config["threshold"].get("metric", "value")
    if metric not in ("value", "fraction"):
        raise InputError(f"unknown threshold metric {metric!r}; use 'value' or 'fraction'")
    seeds = config["seeds"]
    if isinstance(seeds, dict):
        start = _config_number(config, "seeds.start", integer=True, default=0)
        count = _config_number(config, "seeds.count", integer=True)
        if count < 1:
            raise InputError(f"bench config key 'seeds.count' must be an integer >= 1, "
                             f"got {count!r}")
        seeds = range(start, start + count)
    elif not isinstance(seeds, list) or not all(map(_is_int, seeds)):
        raise InputError(f"bench config key 'seeds' must be a list of integers or "
                         f"{{start, count}}, got {seeds!r}")
    elif not seeds:
        raise InputError("bench config key 'seeds' lists no seed")
    pass_rate = _config_number(config, "pass_rate", default=1.0)
    if not 0.0 < pass_rate <= 1.0:
        raise InputError(f"bench config key 'pass_rate' must be a number in (0, 1], "
                         f"got {pass_rate!r}")

    rows = []
    for seed in seeds:
        plant, planted_fraction = _plant(gen, seed)
        advice = _label_advice(ADVICE_MODELS[model](plant.x_star, adv_epsilon, seed=(seed, 1)),
                               seed)
        value, fraction, _, diag, _ = _run_algorithm(
            name, plant.instance, advice, seed,
            maxcut=maxcut, delta=delta, epsilon=algo_epsilon,
        )
        rows.append({
            "seed": seed,
            "value": value,
            "fraction": fraction,
            "planted_value": plant.planted_value,
            "planted_fraction": planted_fraction,
            "passed": bool((value if metric == "value" else fraction) >= threshold),
            **diag,
        })
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        # maxcut-lp may route a seed to qp-advice, whose row has fewer keys.
        writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(k for r in rows for k in r)))
        writer.writeheader()
        writer.writerows(rows)
    pass_count = sum(r["passed"] for r in rows)
    need = pass_rate * len(rows)
    summary = {
        "command": "bench",
        "name": config["name"],
        "rows": len(rows),
        "csv": csv_path,
        "pass_count": pass_count,
        "pass_rate": pass_count / len(rows),
        "passed": pass_count >= need - 1e-9,
        "wall_time_s": round(time.monotonic() - t0, 4),
    }
    _emit(summary)
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# enumerate / reduce / verify


def cmd_enumerate(args) -> int:
    t0 = time.monotonic()
    _refuse_existing([args.out], args.force)
    instance = fileio.read_instance(args.instance)
    result = enumerate_solve(instance, args.epsilon, INNER_SOLVERS[args.inner],
                             seed=args.seed, cap=args.cap)
    _, fraction = evaluate(instance, result.assignment)
    report = {
        "command": "enumerate",
        "instance": {"path": args.instance, "n": instance.n, "m": instance.m},
        "epsilon": args.epsilon,
        "inner": args.inner,
        "seeds": {"master": args.seed},
        "runs": result.runs,
        "best_subset": list(result.subset),
        "best_pattern": list(result.pattern),
        "output": {"value": result.value, "fraction": fraction},
        "wall_time_s": round(time.monotonic() - t0, 4),
    }
    if args.out is not None:
        fileio.write_assignment(args.out, result.assignment)
    _emit(report)
    return 0


def cmd_reduce(args) -> int:
    _refuse_existing([args.out], args.force)
    instance = fileio.read_instance(args.instance)
    lift = three_to_four_lin(instance, args.t)
    fileio.write_instance(args.out, lift.phi4)
    _emit({
        "command": "reduce",
        "instance": {"path": args.instance, "n": instance.n, "m": instance.m},
        "t": args.t,
        "lifted": {"path": args.out, "n": lift.phi4.n, "m": lift.phi4.m},
    })
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    results = verify.run_suite(args.suite, seeds=args.seeds)
    failures = [r for r in results if not r.passed]
    for r in failures[:1]:
        _log(f"FIRST FAILURE: [{r.suite}] {r.name}: {r.detail or 'no detail'}")
    _emit({
        "command": "verify",
        "suite": args.suite,
        "seeds": args.seeds,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": not failures,
        "wall_time_s": round(time.monotonic() - t0, 4),
    })
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advice-csp",
        description="Max-Cut and Max k-Lin solvers with noisy oracle advice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted instance (plus advice)")
    p.add_argument("kind", choices=list(GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, help="degree (maxcut-planted)")
    p.add_argument("--gamma", type=float, default=0.0, help="intra-side fraction")
    p.add_argument("--k", type=int, default=3, help="arity (klin-planted)")
    p.add_argument("--m", type=int, help="constraint count (klin-planted)")
    p.add_argument("--delta", type=float, default=0.0, help="noise rate (klin-planted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--advice", choices=sorted(ADVICE_MODELS), help="also write advice")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one solver on instance and advice files")
    p.add_argument("algorithm", choices=ALGORITHMS)
    p.add_argument("--instance", required=True)
    p.add_argument("--advice")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c1", type=float, default=MaxCutParams.threshold_coeff,
                   help="maxcut threshold coefficient")
    p.add_argument("--c2", type=float, default=MaxCutParams.slack_coeff,
                   help="maxcut slack coefficient")
    p.add_argument("--delta", type=float, help="max3lin near-satisfiability parameter")
    p.add_argument("--epsilon", type=float, help="max3lin advice parameter override")
    p.add_argument("--rank", type=int, help="twolin-sdp embedding rank")
    p.add_argument("--sweeps", type=int, default=TwoLinConfig.sweeps)
    p.add_argument("--trials", type=int, default=TwoLinConfig.trials)
    p.add_argument("--out", help="write the solution assignment here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a seeded benchmark from a JSON config")
    p.add_argument("config")
    p.add_argument("--csv", help="per-seed CSV path (default: <name>.csv)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("enumerate", help="deterministic subset-advice enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--inner", choices=list(INNER_SOLVERS), default="qp-advice")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", help="write the best assignment here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", help="lift a 3-Lin instance to 4-Lin")
    p.add_argument("--instance", required=True)
    p.add_argument("--t", type=int, required=True, help="number of new variables")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--seeds", type=int, default=100)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        _log(f"budget refused: {exc}")
        return 2
    except InternalError as exc:
        _log(f"internal consistency failure: {exc}")
        return 3
    except AdviceCspError as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
