"""Tests of the benchmark's span arithmetic, rebinding, budget and speed probe."""

import json
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import run as bench_run
import spans
import speed
import workloads
from advice_csp import instances, lp, max3lin, maxcut, qp_advice, twolin_sdp
from advice_csp.advice import LabelAdvice, gen_label_advice
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_self_time():
    # a [0, 10) encloses b [1, 4), which encloses c [2, 3), then d [5, 6).
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    assert tracer.totals() == {
        "a": [10, 6, 1], "b": [3, 2, 1], "c": [1, 1, 1], "d": [1, 1, 1]}
    assert tracer.by_path["a/b/c"] == [1, 1, 1]
    assert tracer.subtree_self_sum("a") == 10
    assert tracer.subtree_self_sum("a/b") == 3
    assert tracer.root_s == 10


def test_exception_closes_span():
    tracer = spans.Tracer(clock=FakeClock([0, 2]))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(boom, "x")()
    assert tracer.by_path == {"x": [2, 2, 1]}
    assert not tracer._stack


def test_rebinding_reaches_every_namespace_and_restores():
    originals = (twolin_sdp.solve_2lin, lp.solve_lp, instances.evaluate,
                 instances.KLinInstance.__dict__["__post_init__"])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert max3lin.solve_2lin is twolin_sdp.solve_2lin is not originals[0]
        assert maxcut.solve_lp is qp_advice.solve_lp is lp.solve_lp is not originals[1]
        for module in (instances, max3lin, twolin_sdp, maxcut, qp_advice):
            assert module.evaluate is not originals[2]
        plant = instances.plant_klin(12, 3, 60, 0.0, seed=3)
        labels = gen_label_advice(plant.x_star, 1.0, seed=4)
        max3lin.solve_max3lin_with_advice(plant.instance, labels, delta=0.01)
        qp_advice.solve_2lin_with_advice(
            instances.plant_klin(6, 2, 12, 0.0, seed=5).instance,
            LabelAdvice(values=np.ones(6, dtype=np.int8), epsilon=0.5))
    root = "max3lin.solve_max3lin_with_advice"
    assert tracer.totals()["twolin_sdp.solve_2lin"][2] == 1
    assert f"{root}/twolin_sdp.solve_2lin/twolin_sdp.homogenize" in tracer.by_path
    assert f"{root}/instances.evaluate" in tracer.by_path
    assert tracer.subtree_self_sum(root) == pytest.approx(tracer.by_path[root][0], rel=1e-12)
    assert tracer.counters["lp.pivots"] > 0
    assert tracer.counters["max3lin.psi_size"] > 0
    assert (twolin_sdp.solve_2lin, lp.solve_lp, instances.evaluate,
            instances.KLinInstance.__dict__["__post_init__"]) == originals
    assert max3lin.solve_2lin is originals[0] and maxcut.solve_lp is originals[1]


def test_budget_turns_a_stall_into_a_failed_instance(tmp_path):
    def stall(ctx, seed):
        with ctx.step("solve"):
            time.sleep(5)

    previous = signal.getsignal(signal.SIGALRM)
    try:
        rec = bench_run.run_instance(
            workloads.Workload("stall", stall, 0.05), 0, 1, str(tmp_path), None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rec["failed"] and "InstanceTimeout" in rec["error"]
    assert rec["wall_s"] < 2


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()


def test_solve_coverage_flags_an_uncovered_step():
    def rec(step, root):
        return {"seed": [1, 0], "steps": {"solve": step}, "root_steps": {"solve": root}}

    rows = bench_run.solve_coverage([rec(2.0, 1.999), rec(2.0, 0.0), rec(1.0, 1.5),
                                     {"steps": {}, "root_steps": {}}])
    assert [row["ok"] for row in rows] == [True, False, False]


def test_traced_step_records_its_root_spans(tmp_path):
    tracer = spans.Tracer()
    ctx = workloads.Context(str(tmp_path), tracer)
    work = tracer.wrap(lambda: sum(range(200_000)), "w")
    with ctx.step("solve"):
        work()
    assert 0 < ctx.root_steps["solve"] == tracer.root_s <= ctx.steps["solve"]


def test_speed_probe_samples_in_bursts_between_steps():
    probe = SpeedProbe(period=3600.0, burst=4)
    probe.maybe_sample()
    probe.maybe_sample()  # within the period: no second burst
    assert len(probe.samples) == 4
    assert len(probe.sample()) == 4 and len(probe.samples) == 8
    assert probe.scale() == speed.NOMINAL_S / statistics.median(probe.samples)
