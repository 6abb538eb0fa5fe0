"""Monte Carlo engine: covariance and trajectory simulation, sweeps, timing."""

import copy
import itertools
import json
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_sched import (
    AoiGreedyPolicy,
    PlantInvariantError,
    PlantModel,
    PolicySpec,
    SimConfig,
    ThresholdPolicy,
    generate_ensemble,
    measure_decision_time,
    prediction_trace_table,
    run_covariance_sim,
    run_sweep,
    run_trajectory_sim,
    stationary_aoi_distribution,
    steady_state_filter,
    threshold_transmission_rate,
    write_sweep_csv,
    write_sweep_json,
)
from aoi_sched import sim
from aoi_sched.plants import filters_and_params
from aoi_sched.policies import Policy
from aoi_sched.sim import _cycle, run_sim


class _SingleSensorThreshold(Policy):
    """Transmit exactly when the AoI reaches the threshold (test helper)."""

    name = "threshold"

    def __init__(self, delta_th: int):
        super().__init__(1, 1)
        self.delta_th = delta_th

    def decide_batch(self, deltas):
        return deltas >= self.delta_th


class _FixedPolicySpec(PolicySpec):
    """PolicySpec wrapper handing out a pre-built policy (test helper)."""

    def __init__(self, policy):
        object.__setattr__(self, "kind", "lightweight")
        object.__setattr__(self, "q", None)
        object.__setattr__(self, "delta_cap", 25)
        object.__setattr__(self, "voi_delta_cap", 40)
        object.__setattr__(self, "dp_cost", "aoi-function")
        object.__setattr__(self, "use_cache", True)
        object.__setattr__(self, "_policy", policy)

    def make(self, plants, filters, char_params, m):
        return self._policy


@pytest.fixture(scope="module")
def scalar09():
    return PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)


@pytest.fixture(scope="module")
def scalar10():
    return PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=1.0)


class TestCovarianceSim:
    def test_geometric_closed_form(self, scalar09):
        cfg = SimConfig(horizon=1000, runs=4000, seed=1, metric="aoi-function")
        rep = run_covariance_sim([scalar09], PolicySpec("lightweight"), 1, cfg)
        expect = 1.44 * 0.9 / (1 - 1.44 * 0.1)
        assert rep.mean_J == pytest.approx(expect, rel=0.01)
        assert rep.diverged_runs == 0

    def test_deterministic_chain_trace(self, scalar10):
        # p = 1 keeps AoI at 1; the trace metric reports the one-step
        # prediction error a^2 Pbar + q of the realizable remote estimator
        cfg = SimConfig(horizon=200, runs=20, seed=2, metric="trace")
        rep = run_covariance_sim([scalar10], PolicySpec("lightweight"), 1, cfg)
        ss = steady_state_filter(scalar10)
        expect = 1.44 * ss.posterior_cov[0, 0] + 1.0
        assert rep.mean_J == pytest.approx(expect, rel=1e-9)
        assert rep.ci95 < 1e-12

    def test_seed_reproducibility(self, scalar09):
        cfg = SimConfig(horizon=400, runs=500, seed=7, metric="aoi-function")
        a = run_covariance_sim([scalar09], PolicySpec("aoi-greedy"), 1, cfg)
        b = run_covariance_sim([scalar09], PolicySpec("aoi-greedy"), 1, cfg)
        assert a.stat_dict() == b.stat_dict()

    @patch.object(sim, "_RUN_BLOCK", 128)
    def test_threads_do_not_change_results(self, scalar09):
        ens = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=8, p_range=(0.85, 1.0))
        cases = [
            # (runner, plants, m, runs, metric); 600 = 4 x 128 + 88 and
            # 300 = 2 x 128 + 44 leave a short last block
            (run_covariance_sim, [scalar09], 1, 600, "aoi-function"),
            (run_covariance_sim, ens, 2, 300, "trace"),
            (run_trajectory_sim, [scalar09], 1, 300, "squared-error"),
            (run_trajectory_sim, ens, 1, 300, "squared-error"),
        ]
        for runner, plants, m, runs, metric in cases:
            cfg = SimConfig(horizon=300, runs=runs, seed=8, metric=metric)
            a = runner(plants, PolicySpec("lightweight"), m, cfg)
            b = runner(plants, PolicySpec("lightweight"), m, replace(cfg, threads=4))
            assert a.stat_dict() == b.stat_dict()

    @patch.object(sim, "_RUN_BLOCK", 128)
    def test_index_tables_built_once_per_simulation(self, monkeypatch):
        import aoi_sched.policies as policies

        built = []
        real = policies.whittle_index_table

        def counting(fn, max_delta):
            built.append(max_delta)
            return real(fn, max_delta)

        monkeypatch.setattr(policies, "whittle_index_table", counting)
        ens = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=8, p_range=(0.85, 1.0))
        # 5 blocks of at most 128 runs; AoI stays below the first table's 64
        cfg = SimConfig(horizon=50, runs=600, seed=8)
        run_covariance_sim(ens, PolicySpec("lightweight"), 1, cfg)
        assert built == [64, 64, 64]

    @patch.object(sim, "_RUN_BLOCK", 32)
    def test_riccati_solved_once_per_distinct_plant(self, monkeypatch, riccati_solves):
        import aoi_sched.plants as plants_mod

        calls = []  # public calls, through the module global the benchmark wraps
        real = plants_mod.steady_state_filter
        monkeypatch.setattr(plants_mod, "steady_state_filter",
                            lambda pl: calls.append(pl) or real(pl))
        base = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=8, p_range=(0.85, 1.0))
        cfg = SimConfig(horizon=40, runs=50, seed=8)
        cycled = run_covariance_sim(_cycle(base, 60), PolicySpec("lightweight"), 30, cfg)
        assert len(riccati_solves) == 3 and len(calls) == 3
        # a second simulation of the same plant objects solves nothing, and
        # its seeded statistics are byte-identical to the cold run's
        riccati_solves.clear()
        again = run_covariance_sim(_cycle(base, 60), PolicySpec("lightweight"), 30, cfg)
        assert riccati_solves == []
        assert _stat_bytes(again) == _stat_bytes(cycled)
        # equal but distinct plant objects are each solved, to the same result
        copies = [PlantModel.from_dict(pl.to_dict()) for pl in _cycle(base, 60)]
        distinct = run_covariance_sim(copies, PolicySpec("lightweight"), 30, cfg)
        assert len(riccati_solves) == 60
        assert _stat_bytes(distinct) == _stat_bytes(cycled)
        # a deep copy of a solved plant is rebuilt by the constructor and
        # solves its own filter, to the same bits
        riccati_solves.clear()
        dup = copy.deepcopy(base[0])
        assert dup._filter is None
        gain = steady_state_filter(base[0]).gain
        assert steady_state_filter(dup).gain.tobytes() == gain.tobytes()
        assert len(riccati_solves) == 1 and riccati_solves[0] is dup

    @patch.object(sim, "_RUN_BLOCK", 32)
    def test_shared_index_tables_under_thread_stress(self):
        # slow channels push AoI past the first 64-entry table, so the
        # shared tables grow in several blocks at once on 4 threads
        ens = generate_ensemble(3, 2, 2, (1.01, 1.02), seed=8, p_range=(0.08, 0.12))
        cfg = SimConfig(horizon=300, runs=512, seed=8)
        a = run_covariance_sim(ens, PolicySpec("lightweight"), 1, cfg)
        assert sum(a.aoi_histogram[65:]) > 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run_covariance_sim(ens, PolicySpec("lightweight"), 1,
                                   replace(cfg, threads=4))
        finally:
            sys.setswitchinterval(interval)
        assert a.stat_dict() == b.stat_dict()

    def test_voi_whittle_tables_under_thread_stress(self):
        # AoI passes voi-cap 4 in every block, so clones on 4 threads fill,
        # extrapolate into and re-rank the shared tables at once; a clone
        # that read keys ranked before its entries were filled would change
        # a decision
        ens = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=8, p_range=(0.3, 0.5))
        spec = PolicySpec("voi-whittle", voi_delta_cap=4)
        cfg = SimConfig(horizon=60, runs=128, seed=8)
        with patch.object(sim, "_RUN_BLOCK", 16):
            a = run_covariance_sim(ens, spec, 1, cfg)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                b = run_covariance_sim(ens, spec, 1, replace(cfg, threads=4))
            finally:
                sys.setswitchinterval(interval)
        assert sum(a.aoi_histogram[5:]) > 0
        assert a.stat_dict() == b.stat_dict()

    def test_counters_do_not_wrap(self, scalar10):
        # every sensor is scheduled and delivers on each of 3 x 255 + 35
        # measured steps, so the per-run uint8 counters fill three times
        # over: each flush must land before a count wraps
        cfg = SimConfig(horizon=800, runs=40, seed=2, warmup=0)
        rep = run_covariance_sim([scalar10] * 3, PolicySpec("lightweight"), 3, cfg)
        assert rep.per_sensor_attempt_rate == [1.0] * 3
        assert rep.per_sensor_success_rate == [1.0] * 3

    @pytest.mark.parametrize("threads", [1, 4])
    @patch.object(sim, "_RUN_BLOCK", 32)
    def test_attempt_counts_match_the_masks_taken(self, threads):
        # 100 runs = 3 x 32 + 4 over 600 steps, two flushes and the horizon
        # each; every mask the policy returns is counted in int64 here
        plants = generate_ensemble(4, 2, 2, (1.05, 1.2), seed=12, p_range=(0.5, 0.9))
        inner = PolicySpec("lightweight").make(plants, *filters_and_params(plants), 2)
        counted = np.zeros(4, dtype=np.int64)
        lock = threading.Lock()

        class Counting(Policy):
            def decide_batch(self, deltas):
                mask = inner.decide_batch(deltas)
                with lock:
                    np.add(counted, mask.sum(axis=0), out=counted)
                return mask

        cfg = SimConfig(horizon=600, runs=100, seed=12, warmup=0, threads=threads)
        rep = run_covariance_sim(plants, _FixedPolicySpec(Counting(4, 2)), 2, cfg)
        assert rep.per_sensor_attempt_rate == (counted / (600 * 100)).tolist()
        assert 0 < min(rep.per_sensor_success_rate) and max(rep.per_sensor_success_rate) < 1

    def test_budget_and_rates(self):
        plants = generate_ensemble(4, 3, 3, (1.05, 1.2), seed=9, p_range=(0.85, 1.0))
        cfg = SimConfig(horizon=500, runs=400, seed=3)
        rep = run_covariance_sim(plants, PolicySpec("lightweight"), 2, cfg)
        assert sum(rep.per_sensor_attempt_rate) == pytest.approx(2.0, abs=1e-9)
        assert all(r <= 1.0 + 1e-12 for r in rep.per_sensor_attempt_rate)

    def test_channel_faithfulness(self):
        plants = generate_ensemble(3, 3, 3, (1.05, 1.2), seed=10, p_range=(0.8, 0.95))
        cfg = SimConfig(horizon=800, runs=400, seed=4)
        rep = run_covariance_sim(plants, PolicySpec("round-robin"), 1, cfg)
        for i, pl in enumerate(plants):
            attempts = rep.per_sensor_attempt_rate[i] * 720 * 400
            sig = np.sqrt(pl.p * (1 - pl.p) / attempts)
            assert rep.per_sensor_success_rate[i] == pytest.approx(pl.p, abs=4 * sig + 1e-4)

    def test_divergence_flagged_not_crashed(self):
        # necessary stability violated: trace explodes, runs are flagged
        pl = PlantModel(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.05)
        cfg = SimConfig(horizon=2000, runs=50, seed=5, metric="trace", warmup=0)
        rep = run_covariance_sim([pl], PolicySpec("aoi-greedy"), 1, cfg)
        assert rep.diverged_runs == 50

    @pytest.mark.parametrize("metric", ["trace", "aoi-function", "squared-error"])
    def test_diverged_runs_stop_accumulating_cost(self, metric):
        # a starved sensor's cost grows without bound; once a run is marked
        # diverged its cost must not be summed on, nor (at the trajectory
        # level) its remote error propagated, into an overflow
        plants = generate_ensemble(2, 3, 3, (1.25, 1.3), seed=1, p_range=(0.8, 1.0))
        cfg = SimConfig(horizon=3000, runs=4, seed=0, metric=metric)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_sim(plants, PolicySpec("randomized", q=(0.0005, 0.5)), 1, cfg)
        assert rep.diverged_runs == 4 and rep.mean_J == float("inf")

    def test_runs_diverging_in_warmup_stop_there(self):
        # the starved sensor's remote error crosses 1e12 long before the
        # warm-up ends; its run is marked diverged then, so the error is
        # frozen instead of propagated into an overflow
        plants = generate_ensemble(2, 3, 3, (1.25, 1.3), seed=1, p_range=(0.8, 1.0))
        cfg = SimConfig(horizon=3300, runs=4, seed=0, metric="squared-error", warmup=3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_sim(plants, PolicySpec("randomized", q=(0.0005, 0.5)), 1, cfg)
        assert rep.diverged_runs == 4 and rep.mean_J == float("inf")
        # at the covariance level too: each run's AoI cost beta * 4^delta
        # crosses 1e12 somewhere in the 1999 warm-up steps, though on the one
        # measured step most runs are below it again
        pl = PlantModel(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.05)
        cfg = SimConfig(horizon=2000, runs=50, seed=5, metric="aoi-function", warmup=1999)
        assert run_covariance_sim([pl], PolicySpec("aoi-greedy"), 1, cfg).diverged_runs == 50

    def test_histogram_past_the_last_bin_matches_clip_and_count(self, monkeypatch):
        # slow channels over a long horizon take AoI far past the last bin;
        # the histogram must equal the reference count of every measured
        # step's AoI, clipped at the last bin, recorded after each update
        plants = [PlantModel(A=[[1.001]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=p)
                  for p in (0.004, 0.01)]
        cfg = SimConfig(horizon=3000, runs=20, seed=9, warmup=100)
        bins = sim._HIST_BINS
        ref = np.zeros(bins + 1, dtype=np.int64)
        steps = []
        real = sim._age

        def counting(deltas, gamma, lost=None):
            real(deltas, gamma, lost)
            steps.append(int(deltas.max()))
            if len(steps) > cfg.warmup_steps:
                ref[:] += np.bincount(np.minimum(deltas, bins).ravel(), minlength=bins + 1)

        monkeypatch.setattr(sim, "_age", counting)
        rep = run_covariance_sim(plants, PolicySpec("aoi-greedy"), 1, cfg)
        assert len(steps) == cfg.horizon and max(steps) > 2 * bins
        assert ref[bins] > 0 and rep.aoi_histogram == ref.tolist()

    def test_stationary_histogram_matches_threshold_law(self, scalar09):
        dth = 3
        spec = _FixedPolicySpec(_SingleSensorThreshold(dth))
        cfg = SimConfig(horizon=2000, runs=600, seed=6, warmup=500)
        rep = run_covariance_sim([scalar09], spec, 1, cfg)
        hist = np.array(rep.aoi_histogram, dtype=float)
        emp = hist / hist.sum()
        psi, tail = stationary_aoi_distribution(scalar09.p, ThresholdPolicy(dth), 127)
        tv = 0.5 * (np.sum(np.abs(emp[1:128] - psi[1:])) + abs(emp[128] - tail))
        assert tv < 0.01
        # empirical attempt frequency matches the renewal rate
        expect = threshold_transmission_rate(scalar09.p, ThresholdPolicy(dth))
        assert rep.per_sensor_attempt_rate[0] == pytest.approx(expect, abs=0.003)


def _per_plant_trajectory_sim(plants, policy_spec, m, config):
    """The trajectory level stepping one plant at a time (slow reference).

    Same streams and draw order as ``run_trajectory_sim``: per step, w_i then
    v_i for each plant in turn; only the live rows of the remote error move.
    """
    cfg = replace(config, metric="squared-error")
    filters, cps = filters_and_params(plants)
    proto = policy_spec.make(plants, filters, cps, m)
    chol_q = [np.linalg.cholesky(pl.Q) for pl in plants]
    chol_r = [np.linalg.cholesky(pl.R) for pl in plants]
    chol_p = [np.linalg.cholesky(ss.posterior_cov) for ss in filters]

    def make_step(bi, b, diverged):
        noise = sim._philox(cfg.seed, 3 * bi + 2)
        e_loc = [noise.standard_normal((b, pl.n)) @ chol_p[i].T
                 for i, pl in enumerate(plants)]
        d_rem = [noise.standard_normal((b, pl.n)) @ chol_p[i].T
                 for i, pl in enumerate(plants)]

        def step(gamma, deltas, index, values):
            live = np.flatnonzero(~diverged) if diverged.any() else slice(None)
            step_cost = np.zeros(b)
            for i, pl in enumerate(plants):
                w = noise.standard_normal((b, pl.n)) @ chol_q[i].T
                v = noise.standard_normal((b, pl.m)) @ chol_r[i].T
                pred = e_loc[i] @ pl.A.T + w
                d_rem[i][live] = np.where(gamma[live, i : i + 1], pred[live],
                                          d_rem[i][live] @ pl.A.T + w[live])
                e_loc[i] = pred - (pred @ pl.C.T + v) @ filters[i].gain.T
                step_cost += np.einsum("ij,ij->i", d_rem[i], d_rem[i])
            return step_cost

        return step

    return sim._run_blocks(plants, proto, cfg, 3, make_step)


def _mixed_ensemble():
    # orders 1, 2 and 3, outputs 1 and 2; equal shapes both next to each
    # other and apart, so plants step in stacks of one and of several
    gen = generate_ensemble
    return (gen(2, 1, 1, (1.05, 1.2), seed=1, p_range=(0.85, 1.0))
            + gen(1, 3, 2, (1.05, 1.2), seed=2, p_range=(0.85, 1.0))
            + gen(2, 2, 1, (1.05, 1.2), seed=3, p_range=(0.85, 1.0))
            + gen(1, 1, 1, (1.05, 1.2), seed=4, p_range=(0.85, 1.0))
            + gen(1, 3, 1, (1.05, 1.2), seed=5, p_range=(0.85, 1.0)))


def _assert_same_stats(got, ref):
    got, ref = got.stat_dict(), ref.stat_dict()
    for key in ("mean_J", "ci95"):
        assert got.pop(key) == pytest.approx(ref.pop(key), rel=1e-12, nan_ok=True), key
    assert got == ref


class TestTrajectorySim:
    @pytest.mark.parametrize("kind,threads", [("lightweight", 1), ("aoi-greedy", 2)])
    def test_stacked_step_matches_per_plant_reference(self, kind, threads):
        plants = _mixed_ensemble()
        cfg = SimConfig(horizon=120, runs=300, seed=7, metric="squared-error",
                        threads=threads)
        with patch.object(sim, "_RUN_BLOCK", 128):
            got = run_trajectory_sim(plants, PolicySpec(kind), 3, cfg)
            ref = _per_plant_trajectory_sim(plants, PolicySpec(kind), 3, cfg)
        _assert_same_stats(got, ref)

    def test_stacked_step_matches_reference_when_runs_diverge(self):
        # a starved order-3 sensor diverges in some runs and not in others;
        # the stacked step updates every row, then puts the frozen remote
        # error of the diverged ones back
        plants = (generate_ensemble(2, 3, 3, (1.25, 1.3), seed=1, p_range=(0.8, 1.0))
                  + generate_ensemble(2, 1, 1, (1.05, 1.2), seed=4, p_range=(0.85, 1.0)))
        spec = PolicySpec("randomized", q=(0.04, 0.5, 0.4, 0.4))
        cfg = SimConfig(horizon=200, runs=40, seed=3, metric="squared-error")
        got = run_trajectory_sim(plants, spec, 2, cfg)
        ref = _per_plant_trajectory_sim(plants, spec, 2, cfg)
        assert 0 < ref.diverged_runs < cfg.runs
        _assert_same_stats(got, ref)

    def test_near_noiseless_limit(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1e-8]], R=[[1e-8]], p=1.0)
        cfg = SimConfig(horizon=200, runs=200, seed=11, metric="squared-error")
        rep = run_trajectory_sim([pl], PolicySpec("lightweight"), 1, cfg)
        assert rep.mean_J < 1e-6

    def test_scalar_matches_covariance_model(self, scalar10):
        cfg = SimConfig(horizon=400, runs=3000, seed=12, metric="squared-error")
        rep = run_trajectory_sim([scalar10], PolicySpec("lightweight"), 1, cfg)
        ss = steady_state_filter(scalar10)
        expect = 1.44 * ss.posterior_cov[0, 0] + 1.0
        assert rep.mean_J == pytest.approx(expect, rel=0.05)

    def test_ensemble_consistency_with_covariance_sim(self):
        plants = generate_ensemble(3, 3, 3, (1.05, 1.2), seed=13, p_range=(0.85, 1.0))
        cfg = SimConfig(horizon=400, runs=1500, seed=14, metric="squared-error")
        emp = run_trajectory_sim(plants, PolicySpec("lightweight"), 1, cfg)
        cfg2 = SimConfig(horizon=400, runs=1500, seed=14, metric="trace")
        ana = run_covariance_sim(plants, PolicySpec("lightweight"), 1, cfg2)
        assert emp.mean_J / ana.mean_J == pytest.approx(1.0, abs=0.05)

    def test_reproducible(self, scalar09):
        cfg = SimConfig(horizon=150, runs=300, seed=15, metric="squared-error")
        a = run_trajectory_sim([scalar09], PolicySpec("lightweight"), 1, cfg)
        b = run_trajectory_sim([scalar09], PolicySpec("lightweight"), 1, cfg)
        assert a.stat_dict() == b.stat_dict()


class TestSweeps:
    def test_channel_monotone_and_csv(self, tmp_path):
        plants = generate_ensemble(4, 3, 3, (1.05, 1.15), seed=16, p_range=(0.9, 1.0))
        cfg = SimConfig(horizon=400, runs=500, seed=17)
        rows = run_sweep("channel", [0.85, 1.0], plants,
                         [PolicySpec("lightweight"), PolicySpec("aoi-greedy")],
                         cfg, m=2)
        assert len(rows) == 4
        by_policy = {}
        for r in rows:
            by_policy.setdefault(r.report.policy, []).append((r.sweep_value, r.report.mean_J))
        for pts in by_policy.values():
            pts.sort()
            assert pts[0][1] > pts[-1][1]  # better channel, lower cost
        csv = tmp_path / "sweep.csv"
        write_sweep_csv(str(csv), rows)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "sweep_value,policy,mean_J,ci95,time_per_decision_ns,diverged_runs"
        assert len(lines) == 5
        write_sweep_json(str(tmp_path / "sweep.json"), rows)

    def test_channel_sweep_solves_each_plant_once(self, riccati_solves):
        # the filter does not depend on p: every point shares the plants' own
        plants = generate_ensemble(3, 2, 2, (1.05, 1.15), seed=16, p_range=(0.9, 1.0))
        cfg = SimConfig(horizon=60, runs=40, seed=17)
        specs = [PolicySpec("lightweight"), PolicySpec("voi-greedy")]
        rows = run_sweep("channel", [0.7, 0.85, 1.0], plants, specs, cfg, m=1)
        assert [id(pl) for pl in riccati_solves] == [id(pl) for pl in plants]
        # each point simulates as an ensemble re-built at that p would
        for row, (value, spec) in zip(rows, itertools.product([0.7, 0.85, 1.0], specs)):
            ens = [replace(pl, p=value) for pl in plants]
            assert _stat_bytes(row.report) == _stat_bytes(run_sim(ens, spec, 1, cfg))

    def test_channel_sweep_validates_each_point(self):
        plants = generate_ensemble(2, 2, 2, (1.05, 1.15), seed=16, p_range=(0.9, 1.0))
        with pytest.raises(PlantInvariantError, match=r"p=1.5 outside \(0, 1\]"):
            run_sweep("channel", [1.5], plants, [PolicySpec("round-robin")], SimConfig(), m=1)

    def test_homogeneous_ensemble_policies_identical(self):
        plants = generate_ensemble(4, 3, 3, (1.05, 1.15), seed=18, p_range=(0.9, 1.0))
        cfg = SimConfig(horizon=300, runs=300, seed=19)
        rows = run_sweep(
            "heterogeneity", [0.0], plants,
            [PolicySpec("lightweight"), PolicySpec("aoi-greedy"),
             PolicySpec("aoi-whittle")],
            cfg, m=2,
        )
        js = [r.report.mean_J for r in rows]
        # identical plants, identical tie-breaks, shared channel stream:
        # the decision sequences and hence the costs coincide exactly
        assert js[0] == pytest.approx(js[1], rel=1e-12)
        assert js[0] == pytest.approx(js[2], rel=1e-12)

    def test_scale_sweep_shapes(self):
        plants = generate_ensemble(2, 2, 2, (1.05, 1.15), seed=20, p_range=(0.9, 1.0))
        cfg = SimConfig(horizon=100, runs=50, seed=21)
        rows = run_sweep("scale", [2, 4], plants, [PolicySpec("round-robin")], cfg)
        assert [r.sweep_value for r in rows] == [2.0, 4.0]

    @pytest.mark.parametrize("kind,values,m,message", [
        ("scale", [2, 4], 1, "a scale sweep takes M = N/2 at each point, not m=1"),
        ("scale", [2, 0.5], None, r"a scale sweep point is a sensor count N >= 1, got N=0.5"),
        # N = int(value) would run N = 2 at both points
        ("scale", [2, 2.5], None, r"a scale sweep point is a sensor count N >= 1, got N=2.5"),
        ("scale", [2.9], None, r"a scale sweep point is a sensor count N >= 1, got N=2.9"),
        ("heterogeneity", [0.5, 1.01], None,
         r"heterogeneity fractions must lie in \[0, 1\], got \[0.5, 1.01\]"),
        ("heterogeneity", [-0.1], 1, r"fractions must lie in \[0, 1\], got \[-0.1\]"),
    ], ids=["scale-with-m", "scale-below-1", "scale-not-integer", "scale-not-integer-alone",
            "heterogeneity-above-1", "heterogeneity-below-0"])
    def test_rejects_before_simulating(self, monkeypatch, kind, values, m, message):
        def must_not_run(*args, **kwargs):
            pytest.fail("simulated a sweep it should have refused")

        monkeypatch.setattr(sim, "run_sim", must_not_run)
        plants = generate_ensemble(2, 2, 2, (1.05, 1.15), seed=20, p_range=(0.9, 1.0))
        with pytest.raises(ValueError, match=message):
            run_sweep(kind, values, plants, [PolicySpec("round-robin")], SimConfig(), m=m)


def _stat_bytes(report) -> str:
    return json.dumps(report.stat_dict(), sort_keys=True)


def _assert_each_solved_at_most_once(solved, base):
    assert len(solved) == len({id(pl) for pl in solved}) <= len(base)
    assert {id(pl) for pl in solved} <= {id(pl) for pl in base}


def test_trajectory_sim_solves_each_plant_once(riccati_solves):
    base = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=9, p_range=(0.85, 1.0))
    cfg = SimConfig(horizon=40, runs=16, seed=9)
    cold = run_trajectory_sim(_cycle(base, 12), PolicySpec("lightweight"), 6, cfg)
    _assert_each_solved_at_most_once(riccati_solves, base)
    riccati_solves.clear()
    warm = run_trajectory_sim(_cycle(base, 12), PolicySpec("lightweight"), 6, cfg)
    assert riccati_solves == [] and _stat_bytes(warm) == _stat_bytes(cold)


def test_dp_solve_and_evaluation_solve_each_plant_once(riccati_solves):
    from aoi_sched import LightweightPolicy, dp_optimal_policy, evaluate_policy_average_cost

    base = generate_ensemble(2, 2, 2, (1.05, 1.2), seed=10, p_range=(0.85, 1.0))
    ens = _cycle(base, 3)
    filters, cps = filters_and_params(ens)
    sol = dp_optimal_policy(ens, 1, delta_cap=8, filters=[steady_state_filter(pl) for pl in ens])
    cost = evaluate_policy_average_cost(LightweightPolicy(cps, [pl.p for pl in ens], 1),
                                        ens, 1, delta_cap=8, filters=filters)
    _assert_each_solved_at_most_once(riccati_solves, base)
    assert sol.average_cost <= cost + 1e-8


def test_decision_timing_solves_each_plant_once(riccati_solves):
    base = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=11, p_range=(0.9, 1.0))
    measure_decision_time(base, [PolicySpec("lightweight"), PolicySpec("voi-greedy")],
                          [3, 8, 20], decisions=50, time_budget_s=0.5, seed=0)
    _assert_each_solved_at_most_once(riccati_solves, base)


def test_measure_decision_time_smoke():
    plants = generate_ensemble(4, 2, 2, (1.05, 1.2), seed=22, p_range=(0.9, 1.0))
    rows = measure_decision_time(
        plants, [PolicySpec("lightweight"), PolicySpec("aoi-greedy")],
        [4], decisions=400, time_budget_s=1.0, seed=0,
    )
    assert {r["policy"] for r in rows} == {"lightweight", "aoi-greedy"}
    assert all(r["median_s"] > 0 for r in rows)


@pytest.mark.parametrize("kwargs,name", [({"decisions": 0}, "decisions"),
                                         ({"time_budget_s": 0.0}, "time_budget_s"),
                                         ({"time_budget_s": -1.0}, "time_budget_s")])
def test_decision_timing_refuses_an_empty_measurement(kwargs, name):
    # nothing would be timed, and the median of no samples is nan
    plants = generate_ensemble(2, 2, 2, (1.05, 1.2), seed=22, p_range=(0.9, 1.0))
    with pytest.raises(ValueError, match=f"^{name}="):
        measure_decision_time(plants, [PolicySpec("lightweight")], [2], **kwargs)


def test_decision_timing_times_one_batch_on_any_budget():
    plants = generate_ensemble(2, 2, 2, (1.05, 1.2), seed=22, p_range=(0.9, 1.0))
    [row] = measure_decision_time(plants, [PolicySpec("lightweight")], [2], time_budget_s=1e-12)
    assert row["decisions"] == 16 and row["median_s"] > 0.0


def test_decision_timing_pool_is_the_greedy_chain():
    # the warm pool is 256 AoI-greedy steps of 128 runs on the Philox stream
    # (seed, 7); the reference steps the same chain by where(gamma, 1, d + 1)
    plants = generate_ensemble(5, 2, 2, (1.05, 1.2), seed=22, p_range=(0.5, 0.9))
    seen = []

    class Recording(Policy):
        def decide_batch(self, deltas):
            seen.append(deltas.copy())
            return np.zeros(deltas.shape, dtype=bool)

    measure_decision_time(plants, [_FixedPolicySpec(Recording(5, 2))], [5],
                          decisions=16, time_budget_s=5.0, seed=3)
    rng = sim._philox(3, 7)
    probs = np.array([pl.p for pl in plants])
    deltas = np.ones((128, 5), dtype=np.int64)
    for _ in range(256):
        mask = AoiGreedyPolicy(5, 2).decide_batch(deltas)
        gamma = mask & (rng.random((128, 5)) < probs[None, :])
        deltas = np.where(gamma, 1, deltas + 1)
    assert len(seen) == 17 and deltas.max() > 2
    assert np.array_equal(seen[0], deltas[:1])
    for k, row in enumerate(seen[1:]):
        assert np.array_equal(row, deltas[k:k + 1]), k


@pytest.mark.parametrize("n,m", [(3, 2), (5, 2), (7, 4)])
def test_decision_timing_uses_the_simulation_default_m(n, m):
    # at odd N the default M = N/2 rounds half to even, in both places
    plants = generate_ensemble(n, 2, 2, (1.05, 1.2), seed=22, p_range=(0.9, 1.0))
    [row] = measure_decision_time(plants, [PolicySpec("lightweight")], [n],
                                  decisions=16, time_budget_s=0.5)
    rep = run_sim(plants, PolicySpec("lightweight"), None, SimConfig(horizon=20, runs=4))
    assert row["m"] == m
    assert sum(rep.per_sensor_attempt_rate) == pytest.approx(m)


def test_step_timings_stay_out_of_stat_dict(scalar09):
    cfg = SimConfig(horizon=50, runs=20, seed=3)
    rep = run_covariance_sim([scalar09], PolicySpec("lightweight"), 1, cfg)
    timings = rep.to_dict()["timings"]
    assert list(timings) == [f"{p}_s" for p in sim._PHASES]
    assert all(t >= 0 for t in timings.values())
    assert rep.wall_time_per_decision == timings["decide_s"] / (20 * 50)
    assert "timings" not in rep.stat_dict()


# the traced peak of one warm run at N = 1000 under the step loop that
# allocated its temporaries per step (6,659,576 and 6,033,549 bytes with
# numpy 2.4); the buffer-reusing loop must stay below it
_PARENT_PEAK_BYTES = {"lightweight": 6_660_000, "aoi-greedy": 6_034_000}


@pytest.mark.parametrize("kind", list(_PARENT_PEAK_BYTES))
def test_covariance_sim_peak_memory_at_n1000(kind):
    base = generate_ensemble(20, 3, 3, (1.05, 1.25), seed=5, p_range=(0.85, 1.0))
    plants = _cycle(base, 1000)
    cfg = SimConfig(horizon=150, runs=128, seed=5)
    run_covariance_sim(plants, PolicySpec(kind), 500, cfg)  # warm
    tracemalloc.start()
    try:
        run_covariance_sim(plants, PolicySpec(kind), 500, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PARENT_PEAK_BYTES[kind]


@pytest.mark.parametrize("metric", ["aoi-function", "trace"])
def test_dp_dominates_simulated_policies(metric):
    # DP optimal average cost is below every policy's simulated cost, when
    # the DP optimizes the cost the simulation reports
    plants = generate_ensemble(3, 3, 3, (1.05, 1.2), seed=23, p_range=(0.9, 1.0))
    from aoi_sched import dp_optimal_policy

    filters = [steady_state_filter(pl) for pl in plants]
    sol = dp_optimal_policy(plants, 1, delta_cap=15, filters=filters, cost=metric)
    cfg = SimConfig(horizon=600, runs=800, seed=24, metric=metric)
    for kind in ("lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle",
                 "round-robin", "dp"):
        spec = PolicySpec(kind, delta_cap=15, dp_cost=metric)
        rep = run_covariance_sim(plants, spec, 1, cfg)
        assert sol.average_cost <= rep.mean_J + 2 * rep.ci95 + 1e-9
    # and the dp policy itself simulates at its own average cost
    rep_dp = run_covariance_sim(plants, PolicySpec("dp", delta_cap=15, dp_cost=metric), 1, cfg)
    assert rep_dp.mean_J == pytest.approx(sol.average_cost, rel=0.02)


def test_origin_lower_bound_below_trace_sim():
    # the Jordan-basis bound undershoots the simulated trace MSE of any policy
    from aoi_sched import lower_bound_J_origin

    plants = generate_ensemble(2, 2, 2, (1.05, 1.25), seed=25, p_range=(0.9, 1.0))
    filters = [steady_state_filter(pl) for pl in plants]
    value, _, zetas = lower_bound_J_origin(plants, filters, 1)
    assert all(z <= 1.0 + 1e-9 for z in zetas)
    cfg = SimConfig(horizon=500, runs=500, seed=26, metric="trace")
    for kind in ("lightweight", "round-robin"):
        rep = run_covariance_sim(plants, PolicySpec(kind), 1, cfg)
        assert value <= rep.mean_J + 2 * rep.ci95


@settings(max_examples=12)
@given(n=st.integers(1, 4), runs=st.integers(2, 12), seed=st.integers(0, 10_000),
       data=st.data())
def test_stat_dict_invariant_to_threads_at_every_block_size(n, runs, seed, data):
    # each block draws from streams keyed on (seed, block index), so the
    # block size is part of what a seed means; at each block size tried,
    # one run per block, uneven last blocks and a single block, the thread
    # count must not change a single statistic
    m = data.draw(st.integers(1, n))
    plants = generate_ensemble(n, 2, 2, (1.05, 1.2), seed=seed, p_range=(0.85, 1.0))
    for runner, metric in ((run_covariance_sim, "aoi-function"),
                           (run_covariance_sim, "trace"),
                           (run_trajectory_sim, "squared-error")):
        for kind in ("lightweight", "aoi-greedy", "voi-greedy"):
            for block in (1, 7, runs):
                cfg = SimConfig(horizon=12, runs=runs, seed=seed, metric=metric)
                with patch.object(sim, "_RUN_BLOCK", block):
                    one = runner(plants, PolicySpec(kind), m, cfg)
                    two = runner(plants, PolicySpec(kind), m, replace(cfg, threads=2))
                assert one.stat_dict() == two.stat_dict(), (metric, kind, block)


@pytest.mark.parametrize("bad", [
    dict(threads=0), dict(threads=-1),
    dict(runs=0), dict(horizon=0), dict(metric="mse"), dict(horizon=10, warmup=10),
])
def test_sim_config_rejects_invalid_layout(bad):
    with pytest.raises(ValueError):
        SimConfig(**bad)


def test_sweep_level_follows_metric(scalar09):
    # squared-error selects the trajectory level, every other metric the
    # covariance level, exactly as the direct runner calls; run_sweep and
    # the CLI both take the level from run_sim
    for metric, runner in (("squared-error", run_trajectory_sim),
                           ("trace", run_covariance_sim)):
        cfg = SimConfig(horizon=60, runs=40, seed=28, metric=metric)
        [row] = run_sweep("channel", [0.9], [scalar09],
                          [PolicySpec("lightweight")], cfg, m=1)
        direct = runner([scalar09], PolicySpec("lightweight"), 1, cfg)
        assert row.report.stat_dict() == direct.stat_dict()
        chosen = run_sim([scalar09], PolicySpec("lightweight"), 1, cfg)
        assert chosen.stat_dict() == direct.stat_dict()


def test_covariance_sim_names_the_runner_of_squared_error(monkeypatch, scalar09):
    # squared-error has no cost table: the covariance level refuses it
    # before any set-up, and points to the runners that simulate it
    monkeypatch.setattr(sim, "filters_and_params",
                        lambda plants: pytest.fail("set-up ran before the metric check"))
    cfg = SimConfig(horizon=20, runs=20, seed=1, metric="squared-error")
    with pytest.raises(ValueError, match=r"run_trajectory_sim \(or run_sim"):
        run_covariance_sim([scalar09], PolicySpec("lightweight"), 1, cfg)


@pytest.mark.parametrize("runner", [run_covariance_sim, run_trajectory_sim])
def test_policy_sized_for_another_ensemble_rejected(runner):
    class MustNotDecide(Policy):
        name = "two-sensor"

        def decide_batch(self, deltas):
            pytest.fail("a block ran before the sizes were checked")

    plants = generate_ensemble(3, 3, 3, (1.05, 1.2), seed=9, p_range=(0.85, 1.0))
    cfg = SimConfig(horizon=20, runs=20, seed=1)
    with pytest.raises(ValueError, match="two-sensor policy is sized for 2 sensors, not 3"):
        runner(plants, _FixedPolicySpec(MustNotDecide(2, 1)), 1, cfg)
    # randomized marginals sized for one sensor, as `randomized:q=0.4` gives
    with pytest.raises(ValueError, match="sized for 1 sensors, not 3"):
        runner(plants, PolicySpec("randomized", q=(0.4,)), 1, cfg)
