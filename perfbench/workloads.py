"""The benchmark's workloads: planted instances, user-facing steps, checks.

Each workload plants one instance per call from a seed tuple, runs the
steps a user of ``advice_csp`` would run (plant and advice, file round
trip, solve, lift), and then checks the answer against floors fixed here
before the first run.  Only the user-facing steps are timed; checks run
with tracing paused.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Calls go through module attributes so that a traced run, which rebinds
# those attributes (spans.py), sees them.
from advice_csp import (
    advice,
    enumeration,
    fileio,
    instances,
    max3lin,
    maxcut,
    qp_advice as qp,
    reduce4lin,
    verify,
)

# Output-check floors, fixed before the first run and never tuned.
MAX3LIN_FRACTION_FLOOR = 0.85  # the A3 floor
MAXCUT_EDGE_FLOOR = 0.95  # cut >= 0.95 |E|, the A1 floor
SOUNDNESS_TOL = 1e-12  # lifted-fraction comparison, as in the A10 suite


def sha256_int8(x) -> str:
    """Digest of an assignment as int8 bytes, to diff runs bit for bit."""
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.int8).tobytes()).hexdigest()


@dataclass
class Outcome:
    value: float
    planted_value: float
    assignment: np.ndarray
    x_star: np.ndarray
    checks: dict[str, bool] = field(default_factory=dict)


class Context:
    """Step timing, file scratch space and tracing pause for one instance.

    Steps are timed in CPU seconds of this process (``steps``) and in wall
    seconds (``wall_steps``); see NOTES.md for why the metrics use CPU
    time.  Before each step the speed probe may take a burst, outside the
    timing.  In a traced run, ``root_steps`` holds the inclusive time of
    the root spans that ran inside each step, on the same clock.
    """

    def __init__(self, workdir: str, tracer=None, probe=None):
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe
        self.steps: dict[str, float] = {}
        self.wall_steps: dict[str, float] = {}
        self.root_steps: dict[str, float] = {}

    @contextmanager
    def step(self, name: str):
        if self.probe:
            self.probe.maybe_sample()
        r0 = self.tracer.root_s if self.tracer else 0.0
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            cpu = time.process_time() - c0
            self.steps[name] = self.steps.get(name, 0.0) + cpu
            self.wall_steps[name] = (
                self.wall_steps.get(name, 0.0) + time.perf_counter() - w0)
            if self.tracer:
                self.root_steps[name] = (
                    self.root_steps.get(name, 0.0) + self.tracer.root_s - r0)

    @contextmanager
    def untraced(self):
        """Pause tracing, for checks and for measurement-only repeats."""
        was = self.tracer.active if self.tracer else False
        if self.tracer:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.active = was

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def span(self, name: str, fn):
        return self.tracer.wrap(fn, name) if self.tracer else fn


def _max3lin_checks(res) -> dict[str, bool]:
    return {
        "fraction_floor": res.satisfied_fraction >= MAX3LIN_FRACTION_FLOOR,
        "heavy_implication_violations_zero":
            res.diagnostics.heavy_implication_violations == 0,
    }


def plant_light(seed):
    plant = instances.plant_klin(2000, 3, 225400, 0.05, seed=seed)
    return plant, advice.gen_label_advice(plant.x_star, 0.9, seed=(*seed, 1))


def max3lin_light(ctx: Context, seed) -> Outcome:
    with ctx.step("plant"):
        plant, labels = plant_light(seed)
    inst_path, adv_path = ctx.path("phi.instance"), ctx.path("phi.advice")
    with ctx.step("io"):
        fileio.write_instance(inst_path, plant.instance)
        fileio.write_advice(adv_path, labels)
        phi = fileio.read_instance(inst_path)
        adv = fileio.read_advice(adv_path)
    with ctx.step("solve"):
        res = max3lin.solve_max3lin_with_advice(phi, adv, delta=0.05, seed=(*seed, 2))
    with ctx.untraced():
        checks = _max3lin_checks(res)
        src = plant.instance
        checks["round_trip_instance"] = (
            (phi.k, phi.n) == (src.k, src.n) and phi.constraints == src.constraints)
        checks["round_trip_advice"] = (
            np.array_equal(adv.values, labels.values)
            and adv.epsilon == labels.epsilon)
        value = res.satisfied_fraction * phi.total_weight
    return Outcome(value, plant.planted_value, res.assignment, plant.x_star, checks)


def plant_heavy(seed):
    plant = instances.plant_klin(200, 3, 200000, 0.05, seed=seed)
    return plant, advice.gen_label_advice(plant.x_star, 0.9, seed=(*seed, 1))


def max3lin_heavy(ctx: Context, seed) -> Outcome:
    with ctx.step("plant"):
        plant, labels = plant_heavy(seed)
    phi = plant.instance
    with ctx.step("solve"):
        res = max3lin.solve_max3lin_with_advice(phi, labels, delta=0.05, seed=(*seed, 2))
    with ctx.step("lift"):
        lift = reduce4lin.three_to_four_lin(phi, 2)
        lifted = reduce4lin.lift_assignment(res.assignment, 2)
        back = reduce4lin.project_assignment(lifted, phi)
    with ctx.untraced():
        checks = _max3lin_checks(res)
        checks["heavy_branch_ran"] = res.diagnostics.heavy_pair_count > 0
        frac3 = instances.evaluate(phi, res.assignment)[1]
        frac4 = instances.evaluate(lift.phi4, lifted)[1]
        checks["lift_completeness_equal"] = frac3 == frac4
        checks["lift_soundness"] = instances.evaluate(phi, back)[1] >= frac4 - SOUNDNESS_TOL
        value = res.satisfied_fraction * phi.total_weight
    return Outcome(value, plant.planted_value, res.assignment, plant.x_star, checks)


A1_PARAMS = maxcut.MaxCutParams(1.0, 1.5)


def maxcut_a1(ctx: Context, seed) -> Outcome:
    with ctx.step("plant"):
        plant = instances.plant_bipartite_regular(1024, 64, 0.0, seed=seed)
        labels = advice.gen_label_advice(plant.x_star, 0.3, seed=(*seed, 1))
    with ctx.step("solve"):
        res = maxcut.solve_maxcut_with_advice(plant.instance, labels, A1_PARAMS, seed=(*seed, 2))
    with ctx.untraced():
        d = res.diagnostics
        edges = len(plant.instance.edges)
        checks = {
            "cut_floor": res.cut_weight >= MAXCUT_EDGE_FLOOR * edges,
            "cut_recount": res.cut_weight == instances.cut_value(plant.instance, res.assignment),
            "q_cut_identity": 2 * d.q_cut_direct == d.q_cut_identity_twice,
            "f_y_recount": d.f_y == d.f_y_recount,
        }
    return Outcome(res.cut_weight, plant.planted_value, res.assignment, plant.x_star, checks)


QP_EPSILON = 0.5


def qp_advice_(ctx: Context, seed) -> Outcome:
    with ctx.step("plant"):
        plant = instances.plant_klin(100, 2, 1000, 0.1, seed=seed)
        labels = advice.gen_label_advice(plant.x_star, QP_EPSILON, seed=(*seed, 1))
    with ctx.step("solve"):
        x, weight = qp.solve_2lin_with_advice(plant.instance, labels)
    with ctx.untraced():
        a = instances.to_quadratic_matrix(plant.instance)
        n = plant.instance.n
        floor = a.form_value(plant.x_star) - math.sqrt(n) * a.frobenius / QP_EPSILON
        checks = {
            "paper_bound": a.form_value(x) >= floor,
            "weight_recount": weight == instances.evaluate(plant.instance, x)[0],
        }
    return Outcome(weight, plant.planted_value, x, plant.x_star, checks)


ENUM_EPSILON = 0.2


def plant_enum(seed):
    return instances.plant_klin(10, 2, 30, 0.0, seed=seed)


def _enum_inner(instance, subset, seed):
    """The CLI's default inner solver for ``enumerate`` (qp-advice)."""
    return qp.solve_2lin_with_advice(instance, advice.subset_to_label(subset, seed))[0]


def enumerate_(ctx: Context, seed) -> Outcome:
    with ctx.step("plant"):
        plant = plant_enum(seed)
    inner = ctx.span("enumeration.inner", _enum_inner)
    with ctx.step("solve"):
        res = enumeration.enumerate_solve(plant.instance, ENUM_EPSILON, inner, seed=(*seed, 2))
    with ctx.untraced():
        checks = {
            "runs_projected": res.runs == enumeration.projected_runs(10, ENUM_EPSILON),
            "brute_force_optimum": res.value == verify.brute_force_best(plant.instance),
        }
    return Outcome(res.value, plant.planted_value, res.assignment, plant.x_star, checks)


@dataclass(frozen=True)
class Workload:
    """One workload: its instance pipeline and how it is measured.

    ``plant_repeats`` > 1 re-runs ``plant`` on the instance's seed, half
    before and half after the instance (untraced; the plant is
    deterministic), and reports the mean.  The single-instance workloads
    repeat their plant so that plant_s spans more than one moment of the
    machine's drifting speed; enumerate repeats its 0.4 ms plant for the
    same reason and to rise above the CPU clock's 4 ms tick.
    """

    name: str
    run: Callable[[Context, tuple], Outcome]
    budget_s: float  # per-instance wall budget; past it the instance fails
    plant: Callable[[tuple], object] | None = None
    plant_repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("max3lin-light", max3lin_light, 60.0, plant_light, 3),
        Workload("max3lin-heavy", max3lin_heavy, 60.0, plant_heavy, 3),
        Workload("maxcut-a1", maxcut_a1, 10.0),
        Workload("qp-advice", qp_advice_, 10.0),
        Workload("enumerate", enumerate_, 60.0, plant_enum, 6000),
    )
}


def warm_up() -> None:
    """Pay numpy's and the generators' first-call costs outside the timing."""
    plant = instances.plant_klin(10, 3, 40, 0.1, seed=0)
    advice.gen_label_advice(plant.x_star, 0.5, seed=0)
    instances.plant_bipartite_regular(8, 2, 0.0, seed=0)
