"""Benchmark runner for advice_csp: one workload per process, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload maxcut-a1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One client solves planted instances one after another for about
``--seconds`` seconds; an instance is not started when the mean instance
time so far says it would end past that.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer spans and counters (see
spans.py).  Times are CPU seconds scaled to a nominal machine speed
(speed.py; NOTES.md says why).  The last line of standard output is one
JSON object.  A result file with the environment, every instance's seed,
planted value and assignment digest, and the metrics goes to
perfbench/results/.

``--workload all`` runs every workload in its own process and prints each
one's metrics; with ``--trace 1`` it runs each untraced and traced and
prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5  # fresh interpreters timed before the instances, and again after
# A traced solve step must be covered by its root span up to this much
# CPU time: the step's and the wrapper's own bookkeeping, plus one 4 ms
# tick where the CPU clock ticks.
COVER_ABS_S = 0.005
COVER_REL = 0.01

# name -> unit, in report order.  completed_frac stands in for the failed
# fraction: it is 1 - failed/attempted, so it never reads 0 on a good run.
END_TO_END = {
    "setup_s": "s",
    "plant_s": "s",
    "solve_s": "s",
    "instances_per_s": "1/s",
    "quality": "ratio",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}
USER_STEPS = ("plant", "io", "solve", "lift")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class InstanceTimeout(Exception):
    """An instance ran past its wall budget."""


def _on_alarm(signum, frame):
    raise InstanceTimeout("instance exceeded its wall budget")


def import_package():
    """Import advice_csp from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "advice_csp" / "__init__.py").is_file():
        print(f"no advice_csp sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import advice_csp

    if Path(advice_csp.__file__).resolve().parent != (src / "advice_csp").resolve():
        print("advice_csp imported from outside this checkout", file=sys.stderr)
        sys.exit(2)


def _git_sha() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "load": "one benchmark process with one BLAS thread",
    }


def measure_setup(workload: str) -> list[float]:
    """CPU seconds of a fresh interpreter that readies a workload and exits.

    Covers the interpreter, the advice_csp import and the workload set-up,
    repeated SETUP_PROBES times.  The runner calls this before and after
    the instances, so that the probes sample two moments of the machine's
    drifting speed; the median of all of them is setup_s.  It is not scaled
    by the speed kernel, which does not track it (NOTES.md).
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        with proc.stdout:
            line = proc.stdout.readline()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(usage.ru_utime + usage.ru_stime)
    return times


def repeat_plant(ctx, workload, seed, times: int) -> None:
    """Plant the instance ``times`` more, untraced, into the plant step."""
    if times:
        with ctx.untraced(), ctx.step("plant"):
            for _ in range(times):
                workload.plant(seed)


def run_instance(workload, index: int, seed: int, workdir: str, tracer,
                 probe=None) -> dict:
    from workloads import Context, sha256_int8

    ctx = Context(workdir, tracer, probe)
    inst_seed = (seed, index)
    rec = {"seed": list(inst_seed), "failed": True, "error": None}
    t0 = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
    try:
        try:
            extra = workload.plant_repeats - 1
            repeat_plant(ctx, workload, inst_seed, extra // 2)
            out = workload.run(ctx, inst_seed)
            repeat_plant(ctx, workload, inst_seed, extra - extra // 2)
            if extra:
                ctx.steps["plant"] /= workload.plant_repeats
                ctx.wall_steps["plant"] /= workload.plant_repeats
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec.update(
            planted_value=out.planted_value,
            planted_sha256=sha256_int8(out.x_star),
            value=out.value,
            quality=out.value / out.planted_value,
            answer_sha256=sha256_int8(out.assignment),
            checks={k: bool(v) for k, v in out.checks.items()},
            failed=not all(out.checks.values()),
        )
    except Exception as exc:  # an instance failure is counted, not fatal
        rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
        if not isinstance(exc, InstanceTimeout):
            rec["traceback"] = traceback.format_exc()
    rec["wall_s"] = time.perf_counter() - t0
    rec["steps"] = ctx.steps
    rec["wall_steps"] = ctx.wall_steps
    if tracer:
        rec["root_steps"] = ctx.root_steps
    return rec


def end_to_end(records: list[dict], setup_s: float | None, scale: float = 1.0) -> dict:
    """The end-to-end metrics, with step times multiplied by ``scale``."""
    done = [r for r in records if not r["failed"]]

    def mean_step(name):
        vals = [scale * r["steps"][name] for r in done if name in r["steps"]]
        return statistics.fmean(vals) if vals else 0.0

    user_time = sum(scale * r["steps"][s]
                    for r in records for s in USER_STEPS if s in r["steps"])
    out = {
        "plant_s": mean_step("plant"),
        "solve_s": mean_step("solve"),
        "instances_per_s": len(done) / user_time if user_time > 0 else 0.0,
        "quality": statistics.fmean(r["quality"] for r in done) if done else 0.0,
        "completed_frac": len(done) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup_s is not None:
        out = {"setup_s": setup_s, **out}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads
    from speed import SpeedProbe

    workload = workloads.WORKLOADS[name]
    probe = SpeedProbe()
    setup_s = setup_times = None
    if not trace:
        setup_times = measure_setup(name)
    workloads.warm_up()
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer() if trace else None
    records: list[dict] = []
    probe.sample()
    try:
        with spans.installed(tracer) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                if records:
                    expected = statistics.fmean(r["wall_s"] for r in records)
                    if elapsed + expected > seconds:
                        break
                records.append(run_instance(
                    workload, len(records), seed, str(workdir), tracer, probe))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe.sample()  # brackets the last step
    if not trace:
        setup_times += measure_setup(name)
        setup_s = statistics.median(setup_times)
    failed = sum(r["failed"] for r in records)
    run_scale = probe.scale()
    e2e = end_to_end(records, setup_s, run_scale)
    solve_times = [run_scale * r["steps"]["solve"]
                   for r in records if "solve" in r["steps"]]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "budget_s": workload.budget_s,
        "environment": environment(),
        "attempted": len(records),
        "failed": failed,
        "end_to_end": e2e,
        "end_to_end_unscaled": end_to_end(records, setup_s),
        "speed": {"run_scale": run_scale, "kernel_samples_s": probe.samples},
        "setup_probes_s": setup_times,
        "solve_s_per_instance": {
            "median": statistics.median(solve_times) if solve_times else None,
            "max": max(solve_times) if solve_times else None,
            "count": len(solve_times),
        },
        "instances": records,
    }
    correct = failed == 0
    if trace:
        completed = len(records) - failed
        layer = tracer.per_instance(completed)
        layer["trace.solve_s"] = e2e["solve_s"]
        arithmetic = span_arithmetic(tracer)
        coverage = solve_coverage(records)
        correct = (correct and all(row["ok"] for row in arithmetic.values())
                   and all(row["ok"] for row in coverage))
        result.update(per_layer=layer, span_arithmetic=arithmetic, solve_coverage=coverage,
                      span_paths={p: {"s": v[0], "self_s": v[1], "calls": v[2]}
                                  for p, v in sorted(tracer.by_path.items())})
        untraced = _latest_result(name, seed, trace=False)
        if untraced is not None:
            result["tracing_overhead"] = {
                k: e2e[k] - untraced["end_to_end"][k]
                for k in ("plant_s", "solve_s", "instances_per_s")}
        metrics = {k: {"value": v, "unit": spans.metric_units()[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in END_TO_END}
    result["correct"] = correct
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def span_arithmetic(tracer) -> dict:
    """Self times below each root span must add up to its inclusive time."""
    rows = {}
    for path, (inclusive, _, _) in tracer.by_path.items():
        if "/" in path:
            continue
        total = tracer.subtree_self_sum(path)
        rows[path] = {"inclusive_s": inclusive, "self_sum_s": total,
                      "ok": abs(total - inclusive) <= 1e-9 * max(1.0, inclusive)}
    return rows


def solve_coverage(records: list[dict]) -> list[dict]:
    """Per instance, the root span must cover the traced solve step.

    The solve step times exactly one entry call, which is a root span, so
    the two differ only by bookkeeping.  A lost or unbalanced wrapper
    leaves the step uncovered and makes the run incorrect.
    """
    rows = []
    for rec in records:
        if "solve" not in rec["steps"]:
            continue
        step, root = rec["steps"]["solve"], rec["root_steps"].get("solve", 0.0)
        rows.append({"seed": rec["seed"], "step_s": step, "root_span_s": root,
                     "ok": 0.0 <= step - root <= COVER_ABS_S + COVER_REL * step})
    return rows


def _latest_result(name: str, seed: int, trace: bool) -> dict | None:
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_all(args) -> int:
    import workloads

    passes = [False, True] if args.trace else [False]
    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        for trace in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(int(trace))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary[f"{name}{' (traced)' if trace else ''}"] = result
            if not trace:
                print(f"== {name}: {result['attempted']} instances, "
                      f"{result['failed']} failed")
                for metric, m in result["metrics"].items():
                    print(f"  {metric:16s} {m['value']:.6g} {m['unit']}")
        if args.trace:
            traced = _latest_result(name, args.seed, trace=True) or {}
            for metric, delta in traced.get("tracing_overhead", {}).items():
                print(f"  tracing overhead {metric:16s} {delta:+.6g}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread: the solvers hold the GIL, and CPU-time metrics must
    # not count a second BLAS thread spinning.  Set before numpy loads; the
    # set-up probes and per-workload processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)} or all")
    if args.probe:
        workloads.warm_up()
        print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
