"""Per-layer spans and counters, recorded from outside the package.

The benchmark never edits ``advice_csp``.  Instead it rebinds module and
class attributes to timing wrappers for the duration of a traced run and
restores the originals afterwards.  A function is rebound in every
namespace that holds it (``max3lin.solve_2lin``, ``maxcut.solve_lp``, each
module's imported ``evaluate``, the package's re-exports), so every call
path reaches the wrapper.

Spans nest through a stack.  A span's self time is its inclusive time
minus the inclusive time of the spans it directly encloses; summed over a
subtree, self times therefore add up to the root's inclusive time.  Spans
are timed on the process CPU clock, the same clock as the end-to-end
steps, and ``root_s`` sums the root spans, so that the runner can check
that the spans cover the step they run in.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "advice_csp"

# Spans by layer, as "<module>.<qualname>" under the package.  Each yields
# <span>.s and <span>.calls; spans in SPANS_WITH_CHILDREN also yield
# <span>.self_s.  "enumeration.inner" is the benchmark's own inner solver.
SPANS = (
    "instances.plant_klin",
    "instances.plant_bipartite_regular",
    "instances.KLinInstance.__post_init__",
    "instances.evaluate",
    "instances.satisfied_mask",
    "instances.graph_to_klin",
    "instances.to_quadratic_matrix",
    "instances._pair_swap_repair",
    "advice.gen_label_advice",
    "advice.subset_to_label",
    "fileio.write_instance",
    "fileio.read_instance",
    "max3lin.solve_max3lin_with_advice",
    "max3lin.build_psi",
    "max3lin.classify_constraints",
    "max3lin.create_h_constraints",
    "max3lin.create_l_constraints",
    "max3lin._heavy_implication_violations",
    "twolin_sdp.solve_2lin",
    "twolin_sdp.homogenize",
    "twolin_sdp.merged_coefficients",
    "twolin_sdp.solve_relaxation",
    "twolin_sdp.hyperplane_round",
    "twolin_sdp._flip_search",
    "maxcut.solve_maxcut_with_advice",
    "maxcut.compute_deltas",
    "maxcut.split_vertices",
    "maxcut.build_lp",
    "maxcut.round_lp",
    "maxcut._diagnostics",
    "lp.solve_lp",
    "lp._expand_rows",
    "lp._Simplex.optimize",
    "qp_advice.solve_2lin_with_advice",
    "qp_advice.maximize_concave",
    "qp_advice.greedy_round",
    "enumeration.enumerate_solve",
    "enumeration.inner",
    "reduce4lin.three_to_four_lin",
    "reduce4lin.lift_assignment",
    "reduce4lin.project_assignment",
)

SPANS_WITH_CHILDREN = (
    "instances.plant_klin",
    "instances.plant_bipartite_regular",
    "instances.graph_to_klin",
    "fileio.read_instance",
    "max3lin.solve_max3lin_with_advice",
    "max3lin.build_psi",
    "max3lin._heavy_implication_violations",
    "twolin_sdp.solve_2lin",
    "twolin_sdp.homogenize",
    "twolin_sdp.solve_relaxation",
    "twolin_sdp.hyperplane_round",
    "twolin_sdp._flip_search",
    "maxcut.solve_maxcut_with_advice",
    "lp.solve_lp",
    "qp_advice.solve_2lin_with_advice",
    "qp_advice.maximize_concave",
    "enumeration.enumerate_solve",
    "enumeration.inner",
    "reduce4lin.three_to_four_lin",
    "reduce4lin.project_assignment",
)


def _rows_kept(expanded):
    return 0 if expanded is None else expanded[0].shape[0]


# Counters read from arguments and return values: name -> (target, unit,
# function of (args, result) giving the increment).  Byte counts marked
# "B-computed" come from array shapes, not from measuring memory.
COUNTERS = {
    "instances.pair_swap_repair.failed": (
        "instances._pair_swap_repair", "count/instance", lambda a, r: int(not r)),
    "fileio.instance_bytes": (
        "fileio.write_instance", "B/instance", lambda a, r: os.path.getsize(a[0])),
    "max3lin.heavy_pairs": (
        "max3lin.build_psi", "count/instance", lambda a, r: len(r.heavy_pairs)),
    "max3lin.heavy_constraints": (
        "max3lin.build_psi", "count/instance", lambda a, r: int(r.heavy_mask.sum())),
    "max3lin.psi_size": ("max3lin.build_psi", "count/instance", lambda a, r: r.m),
    "max3lin.sigma_zero": (
        "max3lin.build_psi", "count/instance", lambda a, r: int(r.flagged.sum())),
    "twolin_sdp.n": ("twolin_sdp.solve_2lin", "count/instance", lambda a, r: a[0].n),
    "twolin_sdp.dense_bytes": (
        "twolin_sdp.merged_coefficients", "B-computed/inst", lambda a, r: 8 * a[0].n ** 2),
    "maxcut.undecided": (
        "maxcut.split_vertices", "count/instance", lambda a, r: int(r.undecided.size)),
    "maxcut.lp_rows": ("maxcut.build_lp", "count/instance", lambda a, r: len(r.rows)),
    "maxcut.fallback": (
        "maxcut.solve_maxcut_with_advice", "count/instance",
        lambda a, r: int(r.diagnostics.fallback)),
    "lp.vars": ("lp.solve_lp", "count/instance", lambda a, r: a[0].p),
    "lp.rows_in": ("lp.solve_lp", "count/instance", lambda a, r: len(a[0].rows)),
    "lp.rows_kept": ("lp._expand_rows", "count/instance", lambda a, r: _rows_kept(r)),
    "lp.phase1_used": (
        "lp._Simplex.add_artificials", "count/instance", lambda a, r: int(r is not None)),
    "lp.pivots": ("lp._Simplex._pivot", "count/instance", lambda a, r: 1),
    "lp.tableau_bytes": (
        "lp._Simplex.__init__", "B-computed/inst", lambda a, r: 8 * a[0].D.size),
    "enumeration.runs": ("enumeration.enumerate_solve", "count/instance", lambda a, r: r.runs),
    "reduce4lin.lifted_m": ("reduce4lin.three_to_four_lin", "count/instance", lambda a, r: r.phi4.m),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    Per-layer values are per completed instance, so runs with different
    instance counts compare directly.
    """
    units = {}
    for span in SPANS:
        units[f"{span}.s"] = "s/instance"
        if span in SPANS_WITH_CHILDREN:
            units[f"{span}.self_s"] = "s/instance"
        units[f"{span}.calls"] = "calls/instance"
    for name, (_, unit, _) in COUNTERS.items():
        units[name] = unit
    units["trace.solve_s"] = "s"
    units["trace.wrapper_calls"] = "calls/instance"
    return units


class Tracer:
    """Aggregates nested spans by call path, plus counters."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.active = True
        self._stack: list[list] = []  # [path, start, child_time]
        self.by_path: dict[str, list] = {}  # path -> [inclusive, self, calls]
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapper_calls = 0
        self.root_s = 0.0  # inclusive time of all root spans

    def enter(self, name: str) -> None:
        path = f"{self._stack[-1][0]}/{name}" if self._stack else name
        self._stack.append([path, self.clock(), 0.0])

    def exit(self) -> None:
        path, start, child = self._stack.pop()
        dur = self.clock() - start
        rec = self.by_path.setdefault(path, [0.0, 0.0, 0])
        rec[0] += dur
        rec[1] += dur - child
        rec[2] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur

    def totals(self) -> dict[str, list]:
        """[inclusive, self, calls] per span name, summed over call paths."""
        out: dict[str, list] = {}
        for path, rec in self.by_path.items():
            agg = out.setdefault(path.rsplit("/", 1)[-1], [0.0, 0.0, 0])
            for i, v in enumerate(rec):
                agg[i] += v
        return out

    def count(self, name: str, value) -> None:
        self.counters[name] += value

    def wrap(self, fn, span: str | None, hooks=()):
        """A wrapper that records ``span`` (if any) and feeds ``hooks``.

        Each hook is (counter name, function of (args, result)).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.wrapper_calls += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                self.enter(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
            for counter, get in hooks:
                self.count(counter, get(args, result))
            return result

        return wrapper

    def subtree_self_sum(self, root_path: str) -> float:
        """Sum of self times of every path at or below ``root_path``."""
        prefix = root_path + "/"
        return sum(rec[1] for path, rec in self.by_path.items()
                   if path == root_path or path.startswith(prefix))

    def per_instance(self, instances: int) -> dict[str, float]:
        """Per-layer metrics divided by the completed instance count."""
        k = max(1, instances)
        totals = self.totals()
        out = {}
        for span in SPANS:
            inclusive, self_s, calls = totals.get(span, (0.0, 0.0, 0))
            out[f"{span}.s"] = inclusive / k
            if span in SPANS_WITH_CHILDREN:
                out[f"{span}.self_s"] = self_s / k
            out[f"{span}.calls"] = calls / k
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0) / k
        out["trace.wrapper_calls"] = self.wrapper_calls / k
        return out


def _resolve(target: str):
    """(owner object, attribute name) for a "<module>.<qualname>" target."""
    module_name, _, qualname = target.partition(".")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(owner, attr):
    """Every (namespace, name) in the loaded package bound to owner.attr."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return original, found


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced target to a wrapper; restore them on exit."""
    hooks: dict[str, list] = defaultdict(list)
    for name, (target, _, get) in COUNTERS.items():
        hooks[target].append((name, get))
    targets = [s for s in SPANS if s != "enumeration.inner"]
    targets += [t for t in hooks if t not in targets]
    saved = []
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original, where = _bindings(owner, attr)
            span = target if target in SPANS else None
            wrapper = tracer.wrap(original, span, tuple(hooks.get(target, ())))
            for namespace, name in where:
                saved.append((namespace, name, original))
                setattr(namespace, name, wrapper)
        yield tracer
    finally:
        for namespace, name, original in reversed(saved):
            setattr(namespace, name, original)
