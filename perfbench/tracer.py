"""Span tracer for the traced benchmark run.

The tracer wraps the public callables of the library's layers from outside
the library: it replaces a function in every ``aoi_sched`` module namespace
that holds it (``sim.py`` and ``policies.py`` import several functions by
name, so patching only the defining module would miss those callers), and
it wraps ``decide_batch`` on the policy classes themselves, because
``Policy.clone()`` is a shallow copy and an instance-level wrapper would keep
calling the prototype.

Spans live in memory as ``[name, start_ns, end_ns, parent, counts]`` lists
and are written out once the run ends. ``counts`` holds per-call quantities
read from the call's arguments or result (DP sweeps, simulated run-steps and
diverged runs, decided rows).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import aoi_sched
from aoi_sched import aoi, bounds, cli, plants, policies, sim

MODULES = (aoi_sched, aoi, bounds, cli, plants, policies, sim)


def _sim_counts(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"run_steps": config.runs * config.horizon,
            "diverged_runs": result.diverged_runs}


def _decide_counts(args, kwargs, result):
    return {"rows": args[1].shape[0]}


# (module, function name, span name, per-call count)
FUNCTIONS = (
    (plants, "generate_ensemble", "plants.generate", None),
    (plants, "steady_state_filter", "plants.filter", None),
    (plants, "error_trace_table", "plants.trace_table", None),
    (plants, "prediction_trace_table", "plants.trace_table", None),
    (aoi, "whittle_index_table", "aoi.index_table", None),
    (aoi, "numeric_whittle_index", "aoi.oracle", None),
    (policies, "dp_optimal_policy", "policies.dp_solve", None),
    (policies, "evaluate_policy_average_cost", "policies.dp_evaluate", None),
    (policies, "policy_action_table", "policies.action_table", None),
    (policies, "joint_value_iteration", "policies.jvi",
     lambda args, kwargs, result: {"sweeps": result.sweeps}),
    (sim, "run_covariance_sim", "sim.run", _sim_counts),
    (sim, "run_trajectory_sim", "sim.run", _sim_counts),
    (bounds, "compute_bounds_report", "bounds.report", None),
    (bounds, "lower_bound_J", "bounds.lower", None),
    (bounds, "lower_bound_J_origin", "bounds.origin", None),
    (bounds, "optimize_randomized_q", "bounds.q_opt", None),
)


def _policy_classes():
    todo, seen = [policies.Policy], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "decide_batch" in vars(cls)]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counts=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = counts
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (setup, pass, phase) around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, count_of):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    counts = count_of(args, kwargs, result)
                return result
            finally:
                tracer._close(idx, counts)

        return traced

    def install(self) -> None:
        for module, attr, name, count in FUNCTIONS:
            original = getattr(module, attr)
            traced = self._wrap(original, name, count)
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, traced)
        for cls in _policy_classes():
            original = vars(cls)["decide_batch"]
            self._patches.append((cls, "decide_batch", original))
            setattr(cls, "decide_batch",
                    self._wrap(original, "policies.decide", _decide_counts))

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "counts"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed counts.

    Spans under the benchmark's ``setup`` span count once; spans under its
    ``pass`` spans are averaged over the passes, so every figure describes
    one set-up plus one pass of the workload's job (``in_pass_s`` keeps the
    pass part alone). Self time is a span's duration minus the durations of
    its direct children.
    """
    n = len(spans)
    root = [0] * n
    child = [0] * n
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += t1 - t0
    passes = sum(1 for s in spans if s[3] < 0 and s[0] == "pass")
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for i, (name, t0, t1, _, counts) in enumerate(spans):
        in_pass = spans[root[i]][0] == "pass"
        w = 1.0 / max(passes, 1) if in_pass else 1.0
        agg = out[name]
        agg["calls"] += w
        agg["s"] += w * (t1 - t0) * 1e-9
        agg["self_s"] += w * (t1 - t0 - child[i]) * 1e-9
        if in_pass:
            agg["in_pass_s"] += w * (t1 - t0) * 1e-9
        for key, value in (counts or {}).items():
            agg[key] += w * value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], overhead_s: float, untraced_pass_s: float) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from recorded spans."""
    t = layer_totals(spans)
    dec, orc, jvi, run = t["policies.decide"], t["aoi.oracle"], t["policies.jvi"], t["sim.run"]
    values = {
        "plants.generate_s": (t["plants.generate"]["s"], "s"),
        "plants.filter_calls": (t["plants.filter"]["calls"], "count"),
        "plants.filter_s": (t["plants.filter"]["s"], "s"),
        "plants.trace_table_calls": (t["plants.trace_table"]["calls"], "count"),
        "plants.trace_table_s": (t["plants.trace_table"]["s"], "s"),
        "aoi.index_table_calls": (t["aoi.index_table"]["calls"], "count"),
        "aoi.index_table_s": (t["aoi.index_table"]["s"], "s"),
        "aoi.oracle_calls": (orc["calls"], "count"),
        "aoi.oracle_s": (orc["s"], "s"),
        "aoi.oracle_ms_per_call": (1e3 * _ratio(orc["s"], orc["calls"]), "ms"),
        "policies.decide_calls": (dec["calls"], "count"),
        "policies.decide_self_s": (dec["self_s"], "s"),
        "policies.decide_ns_per_run_step": (1e9 * _ratio(dec["self_s"], dec["rows"]), "ns"),
        "policies.decide_share": (_ratio(dec["in_pass_s"], t["pass"]["s"]), "ratio"),
        "policies.jvi_calls": (jvi["calls"], "count"),
        "policies.jvi_sweeps": (jvi["sweeps"], "count"),
        "policies.jvi_ms_per_sweep": (1e3 * _ratio(jvi["s"], jvi["sweeps"]), "ms"),
        "policies.jvi_s": (jvi["s"], "s"),
        "policies.action_table_s": (t["policies.action_table"]["s"], "s"),
        "sim.run_s": (run["s"], "s"),
        "sim.run_steps": (run["run_steps"], "count"),
        "sim.self_s": (run["self_s"], "s"),
        "sim.self_ns_per_run_step": (1e9 * _ratio(run["self_s"], run["run_steps"]), "ns"),
        "sim.diverged_runs": (run["diverged_runs"], "count"),
        "bounds.report_s": (t["bounds.report"]["s"], "s"),
        "bounds.lower_s": (t["bounds.lower"]["s"], "s"),
        "bounds.origin_s": (t["bounds.origin"]["s"], "s"),
        "bounds.q_opt_s": (t["bounds.q_opt"]["s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (_ratio(overhead_s, untraced_pass_s), "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
