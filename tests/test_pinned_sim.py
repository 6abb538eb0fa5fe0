"""Seeded Monte Carlo outputs pinned against a recorded file.

``pinned_sim.json`` holds the sha256 of the ``stat_dict`` JSON of covariance
simulations under all eight policy kinds and both covariance metrics (the
same digest at 1 and at 3 threads, in blocks of 32 runs), of a trajectory
simulation on a mixed-dimension ensemble, of slow-channel simulations whose
AoI passes the last histogram bin and VoI-Whittle's cap, of a run that
diverges in some replications and not in others, and of the ``decide``
results of the five key-ranked policies over a pool of warm AoI states. All
of them must match bit for bit. A change that moves these outputs on purpose
records the file again (``python tests/test_pinned_sim.py --record``) and
says why.
"""

import hashlib
import json
import pathlib
import sys
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

from aoi_sched import PolicySpec, SimConfig, generate_ensemble
from aoi_sched import sim
from aoi_sched.plants import filters_and_params
from aoi_sched.policies import POLICY_KINDS
from aoi_sched.sim import run_sim

PINNED = pathlib.Path(__file__).with_name("pinned_sim.json")
METRICS = ("aoi-function", "trace")
KEY_RANKED = ("lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle", "voi-whittle")
MIXED_DIMS = (2, 2, 1, 3, 3, 1)  # state dimension of each plant, in order
SLOW = ("lightweight", "aoi-greedy", "voi-whittle")  # policies of the slow-channel case
_BLOCK = 32  # runs per block: 100 runs make three full blocks and a short one


def _spec(kind):
    return PolicySpec(kind, delta_cap=8) if kind == "dp" else PolicySpec(kind)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _stat_sha(report):
    return _sha(json.dumps(report.stat_dict(), sort_keys=True))


def _ensemble():
    return generate_ensemble(4, 2, 2, (1.05, 1.2), seed=24, p_range=(0.6, 0.95))


def _mixed_ensemble():
    plants = []
    for k, n in enumerate(MIXED_DIMS):
        plants += generate_ensemble(1, n, 1, (1.05, 1.3), seed=2400 + k, p_range=(0.7, 0.95))
    return plants


def _slow_ensemble():
    """Channels slow enough that AoI passes 128, the last histogram bin."""
    return generate_ensemble(3, 1, 1, (1.01, 1.02), seed=2401, p_range=(0.03, 0.05))


def _diverging_ensemble():
    """A starved order-3 sensor that diverges in some runs, not in all."""
    return (generate_ensemble(2, 3, 3, (1.25, 1.3), seed=1, p_range=(0.8, 1.0))
            + generate_ensemble(2, 1, 1, (1.05, 1.2), seed=4, p_range=(0.85, 1.0)))


def _run(plants, spec, m, cfg, threads=1):
    with patch.object(sim, "_RUN_BLOCK", _BLOCK):
        return run_sim(plants, spec, m, replace(cfg, threads=threads))


def _kind_report(kind, metric, threads=1):
    cfg = SimConfig(horizon=60, runs=100, seed=24, metric=metric)
    return _run(_ensemble(), _spec(kind), 2, cfg, threads)


def _trajectory_report(threads=1):
    cfg = SimConfig(horizon=80, runs=100, seed=25, metric="squared-error")
    return _run(_mixed_ensemble(), PolicySpec("lightweight"), 3, cfg, threads)


def _slow_report(kind):
    cfg = SimConfig(horizon=400, runs=100, seed=26, metric="aoi-function")
    return _run(_slow_ensemble(), PolicySpec(kind, voi_delta_cap=8), 1, cfg)


def _diverging_reports():
    spec = PolicySpec("randomized", q=(0.04, 0.5, 0.4, 0.4))
    return [_run(_diverging_ensemble(), spec, 2,
                 SimConfig(horizon=200, runs=40, seed=3, metric=metric))
            for metric in ("trace", "squared-error")]


def _pool(n=20, states=64):
    """Warm AoI states of ``n`` sensors, from a short greedy-scheduled chain."""
    plants = sim._cycle(_ensemble(), n)
    probs = np.array([pl.p for pl in plants])
    rng = np.random.default_rng(27)
    pool = np.ones((states, n), dtype=np.int64)
    greedy = PolicySpec("aoi-greedy").make(plants, *filters_and_params(plants), n // 2)
    for _ in range(60):
        sim._age(pool, greedy.decide_batch(pool) & (rng.random(pool.shape) < probs))
    return plants, pool


def _decisions(kind):
    plants, pool = _pool()
    policy = PolicySpec(kind).make(plants, *filters_and_params(plants), len(plants) // 2)
    chosen = [list(policy.decide(row).scheduled) for row in pool]
    mask = policy.clone().decide_batch(pool)
    return _sha(json.dumps([chosen, np.flatnonzero(mask).tolist()]))


def _outputs():
    return {
        "kinds": {f"{kind},{metric}": _stat_sha(_kind_report(kind, metric))
                  for kind in POLICY_KINDS for metric in METRICS},
        "trajectory": _stat_sha(_trajectory_report()),
        "slow": {kind: _stat_sha(_slow_report(kind)) for kind in SLOW},
        "diverging": [_stat_sha(r) for r in _diverging_reports()],
        "decide": {kind: _decisions(kind) for kind in KEY_RANKED},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def _check(pinned, case, got, want):
    assert got == want, (f"{case} (recorded with numpy {pinned['numpy']}, running "
                         f"{np.__version__}): sha256 {got} != recorded {want}")


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_stats_match_the_recorded_file(pinned, kind, metric):
    want = pinned["kinds"][f"{kind},{metric}"]
    for threads in (1, 3):
        got = _stat_sha(_kind_report(kind, metric, threads))
        _check(pinned, f"{kind}, {metric}, threads={threads}", got, want)


def test_trajectory_stats_match_the_recorded_file(pinned):
    for threads in (1, 3):
        got = _stat_sha(_trajectory_report(threads))
        _check(pinned, f"trajectory dims={MIXED_DIMS}, threads={threads}", got,
               pinned["trajectory"])


@pytest.mark.parametrize("kind", SLOW)
def test_slow_channel_stats_match_the_recorded_file(pinned, kind):
    rep = _slow_report(kind)
    # the case reaches the histogram's last bin and VoI-Whittle's cap of 8
    assert rep.aoi_histogram[-1] > 0 and sum(rep.aoi_histogram[9:]) > 0
    _check(pinned, f"slow channel, {kind}", _stat_sha(rep), pinned["slow"][kind])


def test_diverging_stats_match_the_recorded_file(pinned):
    reps = _diverging_reports()
    assert all(0 < r.diverged_runs < r.runs for r in reps)
    for rep, want in zip(reps, pinned["diverging"]):
        _check(pinned, f"diverging, {rep.metric}", _stat_sha(rep), want)


@pytest.mark.parametrize("kind", KEY_RANKED)
def test_decisions_match_the_recorded_file(pinned, kind):
    _check(pinned, f"decide pool, {kind}", _decisions(kind), pinned["decide"][kind])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINNED.write_text(json.dumps({"numpy": np.__version__, **_outputs()}, indent=2) + "\n")
