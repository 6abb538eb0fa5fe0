"""Smoke tests of the benchmark itself, kept out of the library's test suite.

    python3 -m pytest -q perfbench/smoke.py

Each test runs ``run.py`` as a subprocess at the tiny size, the way the
benchmark is driven, and reads its last output line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the workload metrics the report prints by name (see README.md)
NAMED = {
    "mc-n20": ["run_steps_per_s.lightweight", "run_steps_per_s.aoi-greedy",
               "run_steps_per_s.trajectory"],
    "mc-n1000": ["run_steps_per_s.lightweight"],
    "oracles": ["dp_instances_per_s", "run_steps_per_s.voi-whittle", "bounds_reports_per_s"],
    "decide": ["decide_us.p50", "decide_us.p99"],
}


def run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload: str, trace: int, tmp_path: Path, *extra) -> tuple[dict, str]:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload, tmp_path):
    result, text = tiny(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in NAMED[workload] + ["setup_s", "peak_rss_mb", "failed_frac"]:
        assert f"metric {name} = " in text
    assert "provenance {" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_with_units(workload, tmp_path):
    result, _ = tiny(workload, 1, tmp_path)
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    spans = json.loads((tmp_path / f"spans-{workload}-seed3.json").read_text())["spans"]
    assert any(s[0] == "policies.decide" for s in spans)


def test_perturbed_reference_counts_as_failed(tmp_path):
    ref = tmp_path / "reference.json"
    proc = run("--workload", "oracles", "--seed", "3", "--size", "tiny",
               "--reference", str(ref), "--record")
    assert proc.returncode == 0, proc.stderr
    result, text = tiny("oracles", 0, tmp_path, "--reference", str(ref))
    assert result["correct"] and "checked" in text

    doc = json.loads(ref.read_text())
    entry = doc["tiny"]["oracles"]["3"]
    entry["dp_instances_per_s"][0]["optimal"] *= 1 + 1e-6
    entry["run_steps_per_s.voi-whittle"][0]["mean_J"] *= 1 + 1e-6
    ref.write_text(json.dumps(doc))
    result, text = tiny("oracles", 0, tmp_path, "--reference", str(ref))
    assert not result["correct"]
    # two perturbed records, each failing once per pass
    assert result["failed"] >= 2 and result["failed"] % 2 == 0
    assert "metric failed_frac = 0 ratio" not in text


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH_DIR.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
