"""The names the benchmark binds exist in the package.

``perfbench/workloads.py`` calls the library as ``lib.<name>`` (and picks
simulation runners by name), and ``perfbench/tracer.py`` wraps the functions
listed in its ``FUNCTIONS`` table. Both files are read as source, never
imported or changed, so renaming one of those names fails here instead of
when the benchmark runs. The workloads' ``lib.<name>(...)`` calls must also
still bind to the signatures they call.
"""

import ast
import inspect
from pathlib import Path

import aoi_sched

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.AST:
    return ast.parse((PERFBENCH / name).read_text())


def _missing(names) -> list[str]:
    out = []
    for dotted in sorted(set(names)):
        obj = aoi_sched
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            out.append(dotted)
    return out


def test_tracer_names_exist():
    modules = {"aoi", "bounds", "cli", "plants", "policies", "sim"}
    names = []
    for node in ast.walk(_tree("tracer.py")):
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "FUNCTIONS":
            # (module, function name, span name, per-call count)
            names += [f"{e.elts[0].id}.{e.elts[1].value}" for e in node.value.elts]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.append(f"{node.value.id}.{node.attr}")
    assert "sim.run_covariance_sim" in names  # the table was read
    missing = _missing(names)
    assert not missing, f"perfbench/tracer.py binds names aoi_sched lacks: {missing}"


def test_workload_names_exist():
    names = []
    for node in ast.walk(_tree("workloads.py")):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "lib"):
            names.append(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_sim_phase"):
            names.append(node.args[1].value)  # runner looked up by name
    assert "generate_ensemble" in names and "run_trajectory_sim" in names
    missing = _missing(names)
    assert not missing, f"perfbench/workloads.py binds names aoi_sched lacks: {missing}"


def test_workload_calls_bind():
    calls, unbound = 0, []
    for node in ast.walk(_tree("workloads.py")):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "lib"):
            continue
        calls += 1
        positional = [None] * len(node.args)
        keywords = {kw.arg: None for kw in node.keywords}
        try:
            inspect.signature(getattr(aoi_sched, func.attr)).bind(*positional, **keywords)
        except (AttributeError, TypeError) as exc:
            unbound.append(f"line {node.lineno}: lib.{func.attr}: {exc}")
    assert calls >= 10  # the calls were read
    assert not unbound, f"perfbench/workloads.py calls that no longer bind: {unbound}"
