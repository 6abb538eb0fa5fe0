"""Scheduling policies, the randomized stationary sampler, and the joint DP."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoi_sched
from aoi_sched import (
    AoiFunction,
    AoiGreedyPolicy,
    AoiWhittlePolicy,
    CharParams,
    ConvergenceError,
    DpTablePolicy,
    FeasibilityError,
    LightweightPolicy,
    PlantModel,
    PolicySpec,
    RandomizedStationaryPolicy,
    ResourceBudgetError,
    RoundRobinPolicy,
    VoiGreedyPolicy,
    VoiWhittlePolicy,
    characteristic_params,
    dp_optimal_policy,
    error_trace_table,
    evaluate_policy_average_cost,
    generate_ensemble,
    lower_bound_J_origin,
    numeric_whittle_index,
    parse_policy,
    steady_state_filter,
    whittle_index,
    whittle_index_table,
)
from aoi_sched import policies
from aoi_sched.aoi import aoi_cost_table
from aoi_sched.policies import (
    _VOI_TAIL,
    POLICY_KINDS,
    Policy,
    _ScoreTablePolicy,
    _voi_index_hints,
)
from aoi_sched.plants import trace_tables


def _float_scores(pol, deltas):
    """The float scores a score-table policy ranks into keys, per (run,
    sensor), read from its shared rows once a decision on ``deltas`` has
    filled them."""
    deltas = np.asarray(deltas)
    pol.decide_batch(deltas)
    return pol._slot[0][0][pol.of, deltas]


class _GivenTable(_ScoreTablePolicy):
    """Score-table policy over a fixed float table: sensor i scores by row
    ``of[i]`` at column AoI (test helper)."""

    name = "given-table"

    def __init__(self, rows, of, m):
        super().__init__(list(of), m)
        self.table = np.asarray(rows, dtype=float)

    def _rows(self, max_delta):
        return self.table[self.models]


def _ensemble(count, seed, rho=(1.05, 1.3), p_range=(0.8, 1.0)):
    plants = generate_ensemble(count, 3, 3, rho, seed=seed, p_range=p_range)
    filters = [steady_state_filter(pl) for pl in plants]
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
    return plants, filters, cps


class TestLightweight:
    def test_argmax_of_known_indexes(self):
        # sensor 0 has index 3.0 at AoI 1, sensor 1 has index 2.0
        cps = [CharParams(1.5, 2.0), CharParams(2.0, 1.0)]
        probs = [0.5, 1.0]
        dec = LightweightPolicy(cps, probs, 1).decide([1, 1])
        assert dec.scheduled == (0,)

    def test_homogeneous_reduces_to_oldest(self):
        cps = [CharParams(1.44, 1.0)] * 3
        dec = LightweightPolicy(cps, [0.9] * 3, 1).decide([4, 2, 3])
        assert dec.scheduled == (0,)

    def test_tie_break_lowest_index(self):
        cps = [CharParams(1.44, 1.0)] * 3
        dec = LightweightPolicy(cps, [0.9] * 3, 1).decide([5, 5, 5])
        assert dec.scheduled == (0,)

    def test_saturated_indexes_tie_to_lowest_index(self):
        # past delta ~ 709 / log alpha the index overflows to inf; saturated
        # sensors tie, so the lowest index wins even against an older sensor
        for alphas in ((1.44, 1.3), (1.3, 1.44)):
            cps = [CharParams(a, 1.0) for a in alphas]
            pol = LightweightPolicy(cps, [0.9, 0.9], 1)
            deltas = [[2800, 4000], [4000, 2800], [3000, 3500]]
            assert np.all(np.isinf(_float_scores(pol, deltas)))
            for row in deltas:
                assert pol.decide(row).scheduled == (0,)

    def test_beta_near_float64_limit_ranks_first(self):
        # sensor 0's index at AoI 1 is 1.97e307, far above sensor 1's at
        # AoI 5; the expanded closed form overflowed to nan there, which
        # ranks last
        cps = [CharParams(1.27, 5.5e307), CharParams(1.5, 1.0)]
        pol = LightweightPolicy(cps, [0.87, 0.9], 1)
        assert pol.decide(np.array([1, 5])).scheduled == (0,)

    def test_selection_invariant_to_uniform_beta_scale(self):
        rng = np.random.default_rng(20)
        cps = [CharParams(rng.uniform(1.1, 1.9), rng.uniform(0.2, 4.0)) for _ in range(6)]
        probs = rng.uniform(0.7, 1.0, 6).tolist()
        scaled = [CharParams(cp.alpha, 7.3 * cp.beta) for cp in cps]
        for _ in range(20):
            deltas = rng.integers(1, 30, 6).tolist()
            a = LightweightPolicy(cps, probs, 3).decide(deltas)
            b = LightweightPolicy(scaled, probs, 3).decide(deltas)
            assert a.scheduled == b.scheduled

    def test_batch_budget(self):
        plants, filters, cps = _ensemble(5, 21)
        pol = LightweightPolicy(cps, [pl.p for pl in plants], 2)
        deltas = np.random.default_rng(0).integers(1, 40, (64, 5))
        mask = pol.decide_batch(deltas)
        assert np.all(mask.sum(axis=1) == 2)


class TestAoiGreedy:
    def test_top_two(self):
        assert AoiGreedyPolicy(3, 2).decide([4, 2, 3]).scheduled == (0, 2)

    def test_all_equal_lowest_wins(self):
        assert AoiGreedyPolicy(3, 1).decide([7, 7, 7]).scheduled == (0,)

    def test_schedule_everything(self):
        assert AoiGreedyPolicy(3, 3).decide([1, 2, 3]).scheduled == (0, 1, 2)


class TestVoiGreedy:
    def test_single_sensor(self):
        plants, filters, _ = _ensemble(1, 22)
        assert VoiGreedyPolicy(plants, filters, 1).decide([3]).scheduled == (0,)

    def test_identical_plants_older_wins(self):
        plants, filters, _ = _ensemble(1, 23)
        two = plants * 2
        ftwo = filters * 2
        pol = VoiGreedyPolicy(two, ftwo, 1)
        assert pol.decide([3, 1]).scheduled == (0,)
        assert pol.decide([1, 3]).scheduled == (1,)

    def test_overflowed_trace_schedules_the_stalest_sensor(self):
        # sensor 0's trace has overflowed float64 well before AoI 9000; its
        # score reads inf, not NaN (inf - inf), so it outranks the fresh one
        plants, filters, _ = _ensemble(2, 3)
        pol = VoiGreedyPolicy(plants, filters, 1)
        assert pol.decide([9000, 2]).scheduled == (0,)
        scores = _float_scores(pol, [[9000, 2]])
        assert scores[0, 0] == np.inf and np.isfinite(scores[0, 1])
        tr = error_trace_table(plants[0], filters[0], 9000)
        first = int(np.argmin(np.isfinite(tr)))
        assert 1 < first and np.all(tr[first:] == np.inf)

    def test_score_is_expected_trace_reduction(self):
        plants, filters, _ = _ensemble(2, 24)
        pol = VoiGreedyPolicy(plants, filters, 1)
        deltas = np.array([[4, 4]])
        scores = _float_scores(pol, deltas)[0]
        for i, (pl, ss) in enumerate(zip(plants, filters)):
            tr = error_trace_table(pl, ss, 6)
            assert scores[i] == pytest.approx(pl.p * (tr[5] - tr[1]), rel=1e-12)


class TestAoiWhittle:
    def test_deterministic_channel_formula(self):
        # p = 1: index is d (d + 1) / 2
        pol = AoiWhittlePolicy([1.0, 1.0], 1)
        scores = pol.decide_batch(np.array([[3, 2]]))
        assert scores[0, 0] and not scores[0, 1]

    def test_equal_p_matches_greedy_order(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            deltas = rng.integers(1, 30, 5).tolist()
            a = AoiWhittlePolicy([0.8] * 5, 2).decide(deltas)
            b = AoiGreedyPolicy(5, 2).decide(deltas)
            assert a.scheduled == b.scheduled


class TestVoiWhittle:
    def test_geometric_trace_plant_matches_closed_form(self):
        # q ~ 0 makes Tr P(d) = a^{2d} Pbar: exactly the geometric AoI cost
        pl = PlantModel(A=[[1.25]], C=[[1.0]], Q=[[1e-9]], R=[[1.0]], p=0.8)
        ss = steady_state_filter(pl)
        pol = VoiWhittlePolicy([pl], [ss], 1, delta_cap=12, use_cache=True)
        fn = AoiFunction(1.25**2, ss.posterior_cov[0, 0], 0.8)
        got = _float_scores(pol, np.array([[1], [3], [7]]))[:, 0]
        for d, w in zip((1, 3, 7), got):
            assert w == pytest.approx(whittle_index(fn, d), rel=1e-4)

    def test_index_monotone(self):
        plants, filters, _ = _ensemble(1, 26)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=20, use_cache=True)
        idx = _float_scores(pol, np.arange(1, 21)[:, None])[:, 0]
        assert all(idx[i + 1] > idx[i] for i in range(len(idx) - 1))

    def test_cache_hit_bit_identical(self):
        plants, filters, _ = _ensemble(1, 27)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=10, use_cache=True)
        first = _float_scores(pol, np.array([[4]]))[0, 0]
        assert _float_scores(pol, np.array([[4]]))[0, 0] == first

    def test_extrapolation_preserves_order(self):
        plants, filters, _ = _ensemble(1, 28)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=8, use_cache=True)
        w12, w9, w8 = _float_scores(pol, np.array([[12], [9], [8]]))[:, 0]
        assert w12 > w9 > w8

    def test_keys_rank_entries_filled_between_decisions(self):
        # entries a decision fills after the keys were ranked must enter
        # that decision's keys, whether it writes into the rows in place (AoI
        # up to the cap) or grows them (AoI 12 past it)
        plants, filters, _ = _ensemble(3, 29)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=8, use_cache=True)
        pol.decide_batch(np.array([[2, 2, 2]]))
        for deltas in ([[1, 3, 8], [5, 8, 1]], [[7, 3, 12], [5, 8, 1]]):
            mask = pol.decide_batch(np.array(deltas))
            assert np.array_equal(mask, _argsort_reference(_float_scores(pol, deltas), 1))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), cap=st.integers(2, 12), data=st.data())
    def test_table_scores_match_the_oracle(self, seed, cap, data):
        # every score is the oracle's index on the sensor's own cost table
        # (same bracket hint, so bit for bit) up to the cap and its geometric
        # extrapolation past it, cached or not, and grows with AoI
        plants, filters, _ = _ensemble(2, seed, rho=(1.05, 1.2))
        rows = data.draw(st.lists(st.lists(st.integers(1, 3 * cap), min_size=2,
                                           max_size=2), min_size=1, max_size=4))
        deltas = np.array(rows, dtype=np.int64)
        cached = VoiWhittlePolicy(plants, filters, 1, delta_cap=cap, use_cache=True)
        got = _float_scores(cached, deltas)
        uncached = VoiWhittlePolicy(plants, filters, 1, delta_cap=cap, use_cache=False)
        assert got.tobytes() == _float_scores(uncached, deltas).tobytes()
        assert got.tobytes() == _float_scores(cached, deltas).tobytes()  # warm table
        for i, (pl, ss) in enumerate(zip(plants, filters)):
            costs = error_trace_table(pl, ss, cap + _VOI_TAIL)[1:]
            hints = _voi_index_hints(costs[None], np.array([pl.p]), cap)[0]

            def oracle(d):
                return numeric_whittle_index(costs, pl.p, d, bracket_hint=hints[d])

            column = dict(zip(deltas[:, i].tolist(), got[:, i].tolist()))
            for d, w in column.items():
                if d <= cap:
                    assert w.hex() == oracle(d).hex(), (i, d)
                else:
                    w_hi, w_lo = oracle(cap), oracle(cap - 1)
                    ratio = w_hi / w_lo if w_lo > 0 and w_hi > w_lo else 2.0
                    assert w.hex() == (w_hi * ratio ** (d - cap)).hex(), (i, d)
            ordered = [column[d] for d in sorted(column)]
            assert all(a < b for a, b in zip(ordered, ordered[1:])), i

    def test_cap_below_two_rejected(self):
        # extrapolation past the cap reads the indexes at cap - 1 and cap
        plants, filters, _ = _ensemble(1, 28)
        with pytest.raises(ValueError, match="delta_cap=1 must be at least 2"):
            VoiWhittlePolicy(plants, filters, 1, delta_cap=1, use_cache=True)


class TestRandomized:
    def test_symmetric_marginals(self):
        pol = RandomizedStationaryPolicy([0.5, 0.5], 1)
        pol.rng = np.random.default_rng(29)
        mask = pol.decide_batch(np.ones((100_000, 2), dtype=np.int64))
        freq = mask.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.01)
        assert np.all(mask.sum(axis=1) <= 1)

    def test_single_sensor_always(self):
        pol = RandomizedStationaryPolicy([1.0], 1)
        pol.rng = np.random.default_rng(0)
        dec = pol.decide([1])
        assert dec.scheduled == (0,)

    def test_heterogeneous_marginals(self):
        pol = RandomizedStationaryPolicy([0.9, 0.6, 0.5], 2)
        pol.rng = np.random.default_rng(30)
        mask = pol.decide_batch(np.ones((200_000, 3), dtype=np.int64))
        freq = mask.mean(axis=0)
        np.testing.assert_allclose(freq, [0.9, 0.6, 0.5], atol=0.01)
        assert np.all(mask.sum(axis=1) <= 2)

    def test_infeasible_rejected(self):
        with pytest.raises(FeasibilityError):
            RandomizedStationaryPolicy([0.9, 0.9], 1)
        with pytest.raises(FeasibilityError):
            RandomizedStationaryPolicy([1.2], 1)


class TestRoundRobin:
    def test_cycle(self):
        pol = RoundRobinPolicy(4, 2)
        assert pol.decide([1] * 4).scheduled == (0, 1) and pol.cursor == 2
        assert pol.decide([1] * 4).scheduled == (2, 3) and pol.cursor == 0
        assert pol.decide([1] * 4).scheduled == (0, 1)

    def test_wraparound(self):
        pol = RoundRobinPolicy(3, 2)
        assert pol.decide([1] * 3).scheduled == (0, 1) and pol.cursor == 2
        assert pol.decide([1] * 3).scheduled == (0, 2) and pol.cursor == 1

    def test_period(self):
        n, m = 6, 4
        pol = RoundRobinPolicy(n, m)
        seen = [pol.decide([1] * n).scheduled for _ in range(np.lcm(n, m) // m)]
        assert pol.cursor == 0
        assert pol.decide([1] * n).scheduled == seen[0]
        assert pol.clone().cursor == 0  # a clone starts a fresh cycle


def _spy(monkeypatch, calls, name):
    """Record each call of ``policies.<name>`` as (name, rows it returned)."""
    real = getattr(policies, name)

    def spy(*args, **kw):
        out = real(*args, **kw)
        calls.append((name, len(out) if np.ndim(out) == 2 else 1))
        return out

    monkeypatch.setattr(policies, name, spy)


def test_score_rows_built_once_per_distinct_sensor_model(monkeypatch):
    # 3 plants cycled to N=60 are 3 sensor models: the table policies build
    # 3 score rows, not 60 (VoI-greedy's trace rows in one stacked build),
    # and score each sensor as its own row would
    plants, filters, cps = (x * 20 for x in _ensemble(3, 38))
    probs = [pl.p for pl in plants]
    deltas = np.random.default_rng(38).integers(1, 30, size=(4, 60))
    sensors = np.arange(60)
    light_ref = np.vstack([whittle_index_table(AoiFunction(cp.alpha, cp.beta, p), 64)
                           for cp, p in zip(cps, probs)])[sensors, deltas]
    traces = [error_trace_table(pl, ss, 65) for pl, ss in zip(plants, filters)]
    greedy_ref = np.vstack([pl.p * (tr[1:] - tr[1])
                            for pl, tr in zip(plants, traces)])[sensors, deltas]
    calls = []
    for name in ("whittle_index_table", "trace_tables"):
        _spy(monkeypatch, calls, name)
    light = _float_scores(LightweightPolicy(cps, probs, 30), deltas)
    greedy = _float_scores(VoiGreedyPolicy(plants, filters, 30), deltas)
    assert calls == [("whittle_index_table", 1)] * 3 + [("trace_tables", 3)]
    assert light.tobytes() == light_ref.tobytes()
    assert greedy.tobytes() == greedy_ref.tobytes()


def test_voi_whittle_fills_one_row_per_distinct_plant(monkeypatch):
    # 3 plants cycled to N=12 are 3 sensor models: VoI-Whittle builds one
    # stack of 3 trace rows, not 12, calls the oracle once per (distinct
    # plant, AoI) it reads, and scores each sensor as its plant alone would
    plants, filters, _ = (x * 4 for x in _ensemble(3, 39))
    cap = 6
    deltas = np.random.default_rng(39).integers(1, 10, size=(5, 12))
    wanted = {(i % 3, min(d, cap)) for (_, i), d in np.ndenumerate(deltas)}
    wanted |= {(i % 3, cap - 1) for (_, i), d in np.ndenumerate(deltas) if d > cap}
    calls = []
    for name in ("trace_tables", "numeric_whittle_index"):
        _spy(monkeypatch, calls, name)
    pol = VoiWhittlePolicy(plants, filters, 6, delta_cap=cap, use_cache=True)
    scores = _float_scores(pol, deltas)
    assert [c for c in calls if c[0] == "trace_tables"] == [("trace_tables", 3)]
    assert calls.count(("numeric_whittle_index", 1)) == len(wanted)
    for j in range(3):
        alone = VoiWhittlePolicy(plants[j:j + 1], filters[j:j + 1], 1, cap, True)
        column = deltas[:, j::3].reshape(-1, 1)
        assert (_float_scores(alone, column).tobytes()
                == scores[:, j::3].reshape(-1, 1).tobytes()), j


def test_clones_build_the_shared_rows_once():
    # the slot is read and written under one lock: a clone that finds the
    # rows being built waits for them instead of building its own copy
    calls = []

    class Slow(_GivenTable):
        def _rows(self, max_delta):
            calls.append(max_delta)
            time.sleep(0.05)  # the other clone reaches the slot meanwhile
            return super()._rows(max_delta)

    pol = Slow(np.arange(12.0).reshape(3, 4), [0, 1, 2], 1)
    deltas = np.array([[1, 2, 3]])
    workers = [threading.Thread(target=pol.clone().decide_batch, args=(deltas,))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert len(calls) == 1


def test_homogeneous_staggered_policies_agree():
    # identical plants, distinct AoIs: every index policy picks the oldest
    plants, filters, cps = _ensemble(1, 31)
    plants, filters, cps = plants * 4, filters * 4, cps * 4
    probs = [pl.p for pl in plants]
    pols = [
        LightweightPolicy(cps, probs, 1),
        AoiGreedyPolicy(4, 1),
        AoiWhittlePolicy(probs, 1),
        VoiWhittlePolicy(plants, filters, 1, delta_cap=30, use_cache=True),
    ]
    rng = np.random.default_rng(32)
    deltas = np.array([[4, 3, 2, 1]])
    for t in range(60):
        masks = [pol.decide_batch(deltas.copy()) for pol in pols]
        for m in masks[1:]:
            np.testing.assert_array_equal(m, masks[0])
        ok = masks[0][0] & (rng.random(4) < probs[0])
        deltas = np.where(ok[None, :], 1, deltas + 1)


class TestJointDp:
    def test_single_sensor_geometric_cost(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)
        sol = dp_optimal_policy([pl], 1, delta_cap=25, filters=[steady_state_filter(pl)])
        # truncated-chain oracle: geometric AoI with mass lumped at the cap
        fn = AoiFunction(1.44, 1.0, 0.9)
        k = np.arange(1, 25)
        mass = fn.p * (1 - fn.p) ** (k - 1)
        oracle = float(np.sum(mass * fn.beta * fn.alpha**k.astype(float)))
        oracle += (1 - fn.p) ** 24 * fn.beta * fn.alpha**25
        assert sol.average_cost == pytest.approx(oracle, rel=1e-7)
        # and the untruncated closed form beta alpha p / (1 - alpha (1-p))
        assert sol.average_cost == pytest.approx(1.5140186915887852, rel=1e-6)

    @staticmethod
    def _product_of_chains(plants, cps, cap):
        # scheduling every sensor decouples the chains: a sum of truncated
        # geometric AoI costs, mass beyond the cap lumped at the cap
        oracle = 0.0
        for pl, cp in zip(plants, cps):
            k = np.arange(1, cap)
            mass = pl.p * (1 - pl.p) ** (k - 1)
            oracle += float(np.sum(mass * cp.beta * cp.alpha**k.astype(float)))
            oracle += (1 - pl.p) ** (cap - 1) * cp.beta * cp.alpha**cap
        return oracle

    def test_schedule_all_is_product_of_chains(self):
        plants, filters, cps = _ensemble(2, 33, p_range=(0.85, 1.0))
        sol = dp_optimal_policy(plants, 2, delta_cap=20, filters=filters)
        oracle = self._product_of_chains(plants, cps, 20)
        assert sol.average_cost == pytest.approx(oracle, rel=1e-7)

    def test_schedule_all_evaluation_is_product_of_chains(self):
        # policy evaluation with 2^N successors per state, saturating at the cap
        plants, filters, cps = _ensemble(2, 33, p_range=(0.85, 1.0))
        ours = evaluate_policy_average_cost(AoiGreedyPolicy(2, 2), plants, 2,
                                            delta_cap=20, filters=filters)
        oracle = self._product_of_chains(plants, cps, 20)
        assert ours == pytest.approx(oracle, rel=1e-7)

    @settings(max_examples=60)
    @given(mn=st.sampled_from([(m, n) for n in (1, 2, 3) for m in range(1, n + 1)]),
           cap=st.integers(2, 10), seed=st.integers(0, 10_000))
    def test_optimal_table_evaluates_to_its_solve(self, mn, cap, seed):
        # policy evaluation of the solved table, through the decide surface,
        # recovers the solve's average cost: two independent sweep kernels.
        # Plants come from the DP instance range of C6 and the dp command.
        m, n = mn
        plants, filters, _ = _ensemble(n, seed, rho=(1.05, 1.2))
        sol = dp_optimal_policy(plants, m, delta_cap=cap, filters=filters)
        cost = evaluate_policy_average_cost(DpTablePolicy(sol), plants, m,
                                            delta_cap=cap, filters=filters)
        assert abs(cost - sol.average_cost) <= 1e-8

    def test_sweep_budget_error_names_its_limits(self, monkeypatch):
        import aoi_sched.policies as policies

        # the myopic table's sweep and the first residual use 2 of the 3
        # kernel applications, too few for a BiCGSTAB step of the loose solve
        plants, filters, _ = _ensemble(2, 36)
        monkeypatch.setattr(policies, "_DP_MAX_KERNELS", 3)
        with pytest.raises(ConvergenceError, match=r"stopped after 2 of at most 3 kernel "
                           r"applications: true residual span \S+ is still above the "
                           r"tolerance 0\.01$"):
            dp_optimal_policy(plants, 1, delta_cap=6, filters=filters)

    def test_multichain_evaluation_fails_fast_with_its_residual(self):
        # with p = 1, scheduling the freshest sensor keeps it at AoI 1 while
        # the other ages to the cap: two closed classes, (1, cap) and (cap, 1),
        # with different costs, so the evaluation equations have no solution
        class Freshest(Policy):
            def decide_batch(self, deltas):
                mask = np.zeros(deltas.shape, dtype=bool)
                mask[np.arange(len(deltas)), np.argmin(deltas, axis=1)] = True
                return mask

        plants = [PlantModel(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=1.0)
                  for a in (1.2, 1.1)]
        filters = [steady_state_filter(pl) for pl in plants]
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"of at most \d+ kernel applications: "
                           r"true residual span [0-9.]+ is still above the tolerance 1e-09$"):
            evaluate_policy_average_cost(Freshest(2, 1), plants, 1, delta_cap=6,
                                         filters=filters)
        assert time.perf_counter() - start < 1.0

    def test_nearly_decomposable_chain_solves(self):
        # the greedy chain of this instance has a second eigenvalue of
        # 0.99994, which stalled value iteration for 100,000 sweeps
        plants, filters, cps = _ensemble(3, 192)
        start = time.perf_counter()
        sol = dp_optimal_policy(plants, 1, delta_cap=8, filters=filters)
        ours = evaluate_policy_average_cost(
            LightweightPolicy(cps, [pl.p for pl in plants], 1),
            plants, 1, delta_cap=8, filters=filters,
        )
        assert sol.average_cost == pytest.approx(64.52734338325706, rel=1e-9)
        assert ours == pytest.approx(64.52965500984962, rel=1e-9)
        assert time.perf_counter() - start < 5.0

    def test_dp_no_worse_than_lightweight(self):
        plants, filters, cps = _ensemble(3, 34)
        sol = dp_optimal_policy(plants, 1, delta_cap=15, filters=filters)
        ours = evaluate_policy_average_cost(
            LightweightPolicy(cps, [pl.p for pl in plants], 1),
            plants, 1, delta_cap=15, filters=filters,
        )
        assert sol.average_cost <= ours + 1e-8

    @staticmethod
    def _dense_transition(probs, subsets, table, cap):
        # independent oracle: each sensor's next AoI on its own (reset to 1
        # when scheduled and delivered, else grown and saturated at the
        # cap), multiplied out state by state in flat (C) order
        states = list(itertools.product(range(1, cap + 1), repeat=len(probs)))
        index = {s: k for k, s in enumerate(states)}
        dense = np.zeros((len(states), len(states)))
        for k, state in enumerate(states):
            subset = subsets[table[k]]
            moves = [[(1, p), (min(d + 1, cap), 1.0 - p)] if i in subset
                     else [(min(d + 1, cap), 1.0)]
                     for i, (d, p) in enumerate(zip(state, probs))]
            for combo in itertools.product(*moves):
                dense[k, index[tuple(d for d, _ in combo)]] += math.prod(w for _, w in combo)
        return dense

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_policy_product_matches_dense_transition_matrix(self, monkeypatch, m, block):
        if block is not None:  # cut every subset's states into many blocks
            monkeypatch.setattr(policies, "_BLOCK", block)
        n, cap = 3, 5
        rng = np.random.default_rng(40 + m)
        probs = np.array([1.0, *rng.uniform(0.3, 1.0, n - 1)])
        subsets = list(itertools.combinations(range(n), m))
        table = rng.integers(len(subsets), size=cap**n).astype(np.int16)
        v = rng.standard_normal(cap**n)
        product, order, rekey = policies._policy_product(
            policies._coordinate_rows((cap,) * n), subsets, probs, table)

        def check(current):
            got = product(v[order], np.empty_like(v))
            want = (self._dense_transition(probs, subsets, current, cap) @ v)[order]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

        check(table)
        # a re-key keeps the layout of `table`; the switched states include
        # the origin (flat state 0), both sides of a block boundary, and
        # more states per new subset than one block holds
        switched = table.copy()
        flip = np.union1d([0, order[6], order[7]], rng.choice(cap**n, 30, replace=False))
        switched[flip] = (switched[flip] + 1) % len(subsets)
        for current in (switched, table.copy(), switched):  # and back, and again
            rekey(current)
            check(current)

    def test_evaluation_peak_memory(self):
        # one lightweight evaluation at (M, N) = (2, 3), cap 25: successor
        # rows, coordinate rows, one gather scratch and BiCGSTAB's five
        # vectors. A product or step that allocated per iteration, as the
        # copying kernel did (17.04 x cap^N x 8 bytes), would cross the bound.
        m, n, cap = 2, 3, 25
        plants, filters, cps = _ensemble(n, 6000 + 997 * m + 31 * n, rho=(1.05, 1.2))
        probs = [pl.p for pl in plants]
        table = policies.policy_action_table(LightweightPolicy(cps, probs, m), cap)
        tables = policies.metric_cost_tables("aoi-function", plants, filters, cps, cap)
        policies.joint_value_iteration(tables, probs, m, action_table=table)  # warm
        tracemalloc.start()
        try:
            policies.joint_value_iteration(tables, probs, m, action_table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * cap**n * 8

    def test_results_do_not_depend_on_blas_threads(self):
        # the product's BLAS dot may run on several threads; the solve and
        # the evaluation must give the same bits on one thread or two
        script = textwrap.dedent("""
            import hashlib
            from aoi_sched import (LightweightPolicy, characteristic_params,
                dp_optimal_policy, evaluate_policy_average_cost, generate_ensemble,
                steady_state_filter)
            m, n = 2, 4
            plants = generate_ensemble(n, 3, 3, (1.05, 1.2), seed=6000 + 997 * m + 31 * n,
                                       p_range=(0.8, 1.0))
            filters = [steady_state_filter(pl) for pl in plants]
            cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
            sol = dp_optimal_policy(plants, m, delta_cap=12, filters=filters)
            ours = evaluate_policy_average_cost(LightweightPolicy(cps, [pl.p for pl in plants], m),
                                                plants, m, delta_cap=12, filters=filters)
            print(float.hex(sol.average_cost), float.hex(ours),
                  hashlib.sha256(sol.action_table.tobytes()).hexdigest())
        """)
        src = os.path.dirname(os.path.dirname(aoi_sched.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count(" ") == 2

    def test_state_budget_guard(self, monkeypatch):
        # the DP allocates at most 2,000,000 joint states
        plants, filters, _ = _ensemble(4, 35)
        with pytest.raises(ResourceBudgetError, match="50\\^4 exceeds budget 2000000"):
            dp_optimal_policy(plants, 2, delta_cap=50, filters=filters)

        def must_not_build(*args, **kwargs):
            pytest.fail("built cost tables")

        # the solve checks the cap before its N x (cap + 1) cost tables: a cap
        # far past the budget would allocate them first, and a negative one
        # would fail inside the table builder
        with monkeypatch.context() as patched:
            patched.setattr(policies, "metric_cost_tables", must_not_build)
            with pytest.raises(ResourceBudgetError, match="1000000000\\^4 exceeds budget"):
                dp_optimal_policy(plants, 2, delta_cap=10**9, filters=filters)
            with pytest.raises(ValueError, match="delta_cap=-1 must be at least 1"):
                dp_optimal_policy(plants, 2, delta_cap=-1, filters=filters)

        class MustNotDecide(AoiGreedyPolicy):
            def decide_batch(self, deltas):
                pytest.fail(f"decide_batch ran on {len(deltas)} joint states")

            def _keys(self, deltas, out=None, index=None):
                pytest.fail(f"_keys ran on {len(deltas)} AoI rows")

        # sizes are checked before the policy sees the 127^3 joint grid
        plants, filters = plants[:3], filters[:3]
        with pytest.raises(ResourceBudgetError, match="127\\^3 exceeds budget"):
            evaluate_policy_average_cost(MustNotDecide(3, 1), plants, 1,
                                         delta_cap=127, filters=filters)
        with pytest.raises(ValueError, match="budget m=4 outside 1..3"):
            evaluate_policy_average_cost(MustNotDecide(3, 1), plants, 4,
                                         delta_cap=20, filters=filters)
        with pytest.raises(ValueError, match="delta_cap=0"):
            evaluate_policy_average_cost(MustNotDecide(3, 1), plants, 1,
                                         delta_cap=0, filters=filters)
        # a policy sized for other sensors or another budget never decides
        with pytest.raises(ValueError, match=r"^policy schedules 1 of 3 sensors, but the "
                           r"chain has budget 1 and 2 sensors$"):
            evaluate_policy_average_cost(MustNotDecide(3, 1), plants[:2], 1,
                                         delta_cap=20, filters=filters[:2])
        with pytest.raises(ValueError, match=r"^policy schedules 1 of 3 sensors, but the "
                           r"chain has budget 2 and 3 sensors$"):
            evaluate_policy_average_cost(MustNotDecide(3, 1), plants, 2,
                                         delta_cap=20, filters=filters)

    @pytest.mark.parametrize("kind", ["round-robin", "randomized"])
    def test_evaluation_rejects_policies_that_do_not_decide_from_aoi(self, monkeypatch, kind):
        # a round-robin cursor and a randomized draw have no stationary action
        # table: on these plants at cap 6 the chain would value round-robin
        # as "always sensor 0" (168.0; the optimum is 56.0, a simulation
        # reads 61.7), and a randomized policy would fail for want of an rng
        plants = generate_ensemble(3, 2, 2, (1.05, 1.2), seed=5, p_range=(0.8, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        pol = PolicySpec(kind).make(plants, filters, cps, 1)

        def must_not_run(*args, **kwargs):
            pytest.fail("built an action table")

        monkeypatch.setattr(policies, "policy_action_table", must_not_run)
        with pytest.raises(ValueError, match=f"^{kind} policy does not decide from the "
                           "AoI state alone"):
            evaluate_policy_average_cost(pol, plants, 1, delta_cap=6, filters=filters)

    @staticmethod
    def _decided_table(policy, n, cap, subsets):
        # the decide_batch encoding: the subset index of each joint state's mask
        index = {subset: ai for ai, subset in enumerate(subsets)}
        mask = policy.decide_batch(np.indices((cap,) * n).reshape(n, -1).T + 1)
        return np.array([index[tuple(np.flatnonzero(row))] for row in mask], dtype=np.int16)

    @pytest.mark.parametrize("kind", ["lightweight", "aoi-greedy", "voi-greedy",
                                      "aoi-whittle", "voi-whittle"])
    def test_key_built_action_table_is_the_decided_one(self, kind):
        # sensors 3 and 4 repeat the models of sensors 0 and 1; a VoI-Whittle
        # cap of 4 makes the table extrapolate past it
        plants, filters, cps = _ensemble(3, 37)
        plants, filters, cps = plants + plants[:2], filters + filters[:2], cps + cps[:2]
        n, m, cap = 5, 2, 6
        subsets = list(itertools.combinations(range(n), m))
        spec = PolicySpec(kind, voi_delta_cap=4)
        got = policies.policy_action_table(spec.make(plants, filters, cps, m), cap)
        want = self._decided_table(spec.make(plants, filters, cps, m), n, cap, subsets)
        assert got.dtype == np.int16 and np.array_equal(got, want)

    def test_key_built_action_table_of_saturated_indexes(self):
        # sensors 0 and 1 have infinite indexes from AoI 21 and 20 on: there
        # the lowest index wins, even against an older sensor
        p = 1.0 - 2.0**-53
        cps = [CharParams(1e14, 1.0), CharParams(1e15, 1.0), CharParams(1.44, 1.0)]
        n, cap = 3, 24
        subsets = [(0,), (1,), (2,)]
        pol = LightweightPolicy(cps, [p, p, 0.9], 1)
        got = policies.policy_action_table(pol, cap)
        want = self._decided_table(LightweightPolicy(cps, [p, p, 0.9], 1), n, cap, subsets)
        assert np.array_equal(got, want)
        assert got.reshape((cap,) * n)[22 - 1, 24 - 1, 0] == 0

    def test_action_table_of_a_policy_without_keys_is_decided(self):
        # DpTablePolicy ranks no keys, so its table comes from decide_batch
        plants, filters, _ = _ensemble(3, 38)
        sol = dp_optimal_policy(plants, 2, delta_cap=7, filters=filters)
        pol = DpTablePolicy(sol)
        assert pol._keys(np.ones((7, 3), dtype=np.int64)) is None
        got = policies.policy_action_table(pol, 7)
        assert np.array_equal(got, sol.action_table)
        assert np.array_equal(got, self._decided_table(pol, 3, 7, sol.subsets))

    def test_action_table_of_a_policy_without_keys_copies_no_grid(self):
        # the int64 AoI grid of every joint state is (cap^N, N); building it
        # and DpTablePolicy's clipped copy take about 2.6 grids at the peak,
        # and casting the already int64 grid once more took 3.6
        plants, filters, _ = _ensemble(3, 38)
        pol = DpTablePolicy(dp_optimal_policy(plants, 1, delta_cap=20, filters=filters))
        n, cap = 3, 60
        policies.policy_action_table(pol, cap)  # warm
        tracemalloc.start()
        try:
            policies.policy_action_table(pol, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cap**n * n * 8

    def test_action_table_sums_int32_keys_without_wrapping(self):
        # distinct int32 keys, half just below 2^31 - 1 and half small: two
        # large keys sum past the int32 range, so the subset sums must be
        # taken in int64 for the two largest to win
        n, m, cap = 4, 2, 5
        keys = np.concatenate([2**31 - 1 - np.arange(10), np.arange(10)])
        table = np.random.default_rng(5).permutation(keys).reshape(cap, n)

        class NearLimit(Policy):
            def _keys(self, deltas, out=None, index=None):
                return table.astype(np.int32)[deltas - 1, np.arange(n)]

        subsets = list(itertools.combinations(range(n), m))
        got = policies.policy_action_table(NearLimit(n, m), cap)
        assert np.array_equal(got, self._decided_table(NearLimit(n, m), n, cap, subsets))

    @pytest.mark.parametrize("count", [0, 2, 3])
    def test_action_table_rejects_a_row_off_the_budget(self, count):
        # every joint state schedules sensor 0 but the last, which schedules
        # `count` sensors at M = 1: no subset of the catalogue is its schedule
        class OffBudget(Policy):
            def decide_batch(self, deltas):
                mask = np.zeros(deltas.shape, dtype=bool)
                mask[:, 0] = True
                mask[-1] = np.arange(self.n) < count
                return mask

        with pytest.raises(ValueError, match="outside the schedule-M catalogue"):
            policies.policy_action_table(OffBudget(3, 1), 4)


# calls that join per-sensor lists: the list to give one of the wrong length, and the call
_PER_SENSOR_CALLS = {
    "dp_optimal_policy": ("filters", lambda a: dp_optimal_policy(a["plants"], 1, 6,
                                                                 a["filters"])),
    "evaluate_policy_average_cost": ("filters", lambda a: evaluate_policy_average_cost(
        AoiGreedyPolicy(4, 1), a["plants"], 1, 6, a["filters"])),
    "VoiGreedyPolicy": ("filters", lambda a: VoiGreedyPolicy(a["plants"], a["filters"], 1)),
    "VoiWhittlePolicy": ("filters", lambda a: VoiWhittlePolicy(a["plants"], a["filters"], 1,
                                                               40, True)),
    "LightweightPolicy": ("probs", lambda a: LightweightPolicy(a["cps"], a["probs"], 1)),
    "trace_tables": ("filters", lambda a: trace_tables(a["plants"], a["filters"], 5)),
    "lower_bound_J_origin": ("filters", lambda a: lower_bound_J_origin(a["plants"],
                                                                       a["filters"], 1)),
    "joint_value_iteration": ("probs", lambda a: policies.joint_value_iteration(
        np.array([aoi_cost_table(cp.alpha, cp.beta, 6) for cp in a["cps"]]), a["probs"], 1)),
}


@pytest.mark.parametrize("name", list(_PER_SENSOR_CALLS))
def test_per_sensor_list_of_the_wrong_length_raises(name):
    # one sensor short or one too many: never a result for fewer sensors
    plants, filters, cps = _ensemble(4, 3, rho=(1.05, 1.2), p_range=(0.85, 1.0))
    args = {"plants": plants, "filters": filters, "cps": cps,
            "probs": [pl.p for pl in plants]}
    which, call = _PER_SENSOR_CALLS[name]
    call(args)  # aligned lists run
    for wrong in (args[which][:-1], args[which] + args[which][:1]):
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer) than "
                           r"argument 1|channel rates of shape"):
            call({**args, which: wrong})


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_spec_make_refuses_lists_of_another_length(kind):
    # every kind checks both lists, also the kinds that never read them
    plants, filters, cps = _ensemble(4, 3, rho=(1.05, 1.2), p_range=(0.85, 1.0))
    spec = PolicySpec(kind, delta_cap=4, voi_delta_cap=6)
    assert spec.make(plants, filters, cps, 2).n == 4
    for wrong in (filters[:-1], filters + filters[:1]):
        with pytest.raises(ValueError, match=rf"{len(wrong)} filters and 4 parameter pairs "
                                             "for 4 plants"):
            spec.make(plants, wrong, cps, 2)
    for wrong in (cps[:-1], cps + cps[:1]):
        with pytest.raises(ValueError, match=rf"4 filters and {len(wrong)} parameter pairs"):
            spec.make(plants, filters, wrong, 2)


def test_sensor_state_and_decision_types():
    # a sensor's scheduling state is its AoI, a positive int
    dec = AoiGreedyPolicy(2, 1).decide([4, 2])
    assert dec.scheduled == (0,)
    assert 0 in dec and 1 not in dec
    assert AoiGreedyPolicy(2, 1).decide(np.array([2, 4])).scheduled == (1,)
    with pytest.raises(ValueError, match="positive integers"):
        AoiGreedyPolicy(2, 1).decide([0, 2])


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_decide_rejects_aoi_not_shaped_n(kind):
    # one integer AoI per sensor, as a flat vector: a short vector, a (1, n)
    # batch and a scalar are refused before any scoring, naming n and the
    # shape; float and bool AoI are refused, not truncated
    plants, filters, cps = _ensemble(3, 37, rho=(1.05, 1.15))
    pol = PolicySpec(kind, delta_cap=6, voi_delta_cap=6).make(plants, filters, cps, 1)
    pol.rng = np.random.default_rng(37)
    for bad, message in (([5, 2], r"shape \(3,\), got \(2,\)$"),
                         ([[5, 2, 1]], r"shape \(3,\), got \(1, 3\)$"),
                         (5, r"shape \(3,\), got \(\)$"),
                         ([5, 2.5, 1], r"positive integers, got \[5\.0, 2\.5, 1\.0\]$"),
                         ([True, True, True], r"positive integers, got \[True, True, True\]$")):
        with pytest.raises(ValueError, match=message):
            pol.decide(bad)
    assert len(pol.decide([5, 2, 1]).scheduled) <= 1


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_decision_holds_python_ints(kind):
    plants, filters, cps = _ensemble(4, 38, rho=(1.05, 1.15))
    one, batch = (PolicySpec(kind, delta_cap=6, voi_delta_cap=6).make(plants, filters, cps, 2)
                  for _ in range(2))
    one.rng, batch.rng = np.random.default_rng(38), np.random.default_rng(38)
    aoi = [3, 1, 5, 2]
    scheduled = one.decide(np.array(aoi, dtype=np.uint16)).scheduled
    mask = batch.decide_batch(np.array([aoi], dtype=np.int64))[0]
    assert type(scheduled) is tuple and all(type(i) is int for i in scheduled)
    assert scheduled == tuple(int(i) for i in np.flatnonzero(mask))


@settings(max_examples=30)
@given(mn=st.sampled_from([(m, n) for n in (1, 2, 3) for m in range(1, n + 1)]),
       seed=st.integers(0, 10_000), data=st.data())
def test_every_policy_keeps_the_budget(mn, seed, data):
    # every scheduler picks exactly M sensors per row, the randomized one at
    # most M; AoI values repeat often enough to exercise the tie rules. rho up
    # to 1.15 keeps the sum of the randomized policy's minimum rates below M.
    m, n = mn
    plants, filters, cps = _ensemble(n, seed, rho=(1.05, 1.15))
    rows = data.draw(st.lists(st.lists(st.integers(1, 60), min_size=n, max_size=n),
                              min_size=1, max_size=8))
    deltas = np.array(rows, dtype=np.int64)
    for kind in POLICY_KINDS:
        pol = PolicySpec(kind, delta_cap=6, voi_delta_cap=6).make(plants, filters, cps, m)
        pol.rng = np.random.default_rng(seed)
        counts = pol.decide_batch(deltas).sum(axis=1)
        if kind == "randomized":
            assert np.all(counts <= m), kind
        else:
            assert np.all(counts == m), kind


def _argsort_reference(scores, m):
    """Top-m mask by a full stable descending sort (NaN sorts last)."""
    order = np.argsort(-scores, axis=1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :m], True, axis=1)
    return mask


# integer-valued floats tie often; inf is a saturated index, and NaN must
# rank below every number
_SCORE = st.one_of(st.integers(0, 3).map(float),
                   st.sampled_from([np.inf, -np.inf, np.nan, -0.0]),
                   st.floats(-1e3, 1e3))


@settings(max_examples=300)
@given(rows=st.integers(1, 6), period=st.integers(1, 12), n=st.integers(1, 24),
       data=st.data())
def test_top_m_mask_matches_stable_argsort(rows, period, n, data):
    # sensor i scores by table row i % period, as an ensemble cycled from
    # `period` plants does (period >= n forces no repeats); each run reads
    # each sensor at its own AoI, so one decision compares keys ranked
    # across the whole table
    cols = data.draw(st.integers(2, 5))
    table = np.array(data.draw(st.lists(st.lists(_SCORE, min_size=cols, max_size=cols),
                                        min_size=period, max_size=period)))
    deltas = np.array(data.draw(st.lists(st.lists(st.integers(1, cols - 1), min_size=n,
                                                  max_size=n),
                                         min_size=rows, max_size=rows)))
    of = np.arange(n) % period
    scores = table[of, deltas]
    for m in range(1, n + 1):
        pol = _GivenTable(table, of, m)
        expect = _argsort_reference(scores, m)
        assert np.array_equal(pol.decide_batch(deltas), expect), m
        assert np.array_equal(pol.clone().decide_batch(deltas), expect), m


@pytest.mark.parametrize("kind", ["lightweight", "voi-whittle"])
def test_keys_follow_a_grown_table(kind):
    # AoI past 64 rebuilds the lightweight keys mid-run, and AoI past the
    # cap writes VoI-Whittle extrapolations into a grown table; either way
    # the masks equal the stable argsort of the float indexes. Four copies
    # of three sensor models tie at equal AoI.
    plants, filters, cps = (x * 4 for x in _ensemble(3, 33))
    pol = PolicySpec(kind, voi_delta_cap=6).make(plants, filters, cps, 5)
    fns = [AoiFunction(cp.alpha, cp.beta, pl.p) for cp, pl in zip(cps, plants)]
    rng = np.random.default_rng(33)
    widths = []
    for hi in (8, 30, 100, 400):
        deltas = rng.integers(1, hi, (16, 12))
        deltas[0] = hi  # every sensor at one AoI: ties across the copies
        mask = pol.decide_batch(deltas)
        if kind == "lightweight":
            table = np.vstack([whittle_index_table(fn, 400) for fn in fns])
            scores = table[np.arange(12), deltas]
        else:
            scores = _float_scores(pol, deltas)
        assert np.array_equal(mask, _argsort_reference(scores, 5)), hi
        widths.append(pol._slot[0][0].shape[1])
    assert widths[0] < widths[-1]  # the tables grew


# AoI values from a small set tie heavily; 10**6 checks the key's range
_AOI = st.one_of(st.integers(1, 3), st.just(10**6))


@settings(max_examples=200)
@given(rows=st.integers(1, 6), n=st.integers(1, 24), data=st.data())
def test_aoi_greedy_key_matches_top_m_mask(rows, n, data):
    # the integer key n * delta - i has no ties, and must pick what a
    # stable descending sort of the AoI itself picks
    deltas = np.array(data.draw(st.lists(st.lists(_AOI, min_size=n, max_size=n),
                                         min_size=rows, max_size=rows)), dtype=np.int64)
    for m in range(1, n + 1):
        expect = _argsort_reference(deltas.astype(float), m)
        pol = AoiGreedyPolicy(n, m)
        assert np.array_equal(pol.decide_batch(deltas), expect), m
        assert np.array_equal(pol.clone().decide_batch(deltas), expect), m


@pytest.mark.parametrize("kind", ["lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle",
                                  "voi-whittle"])
def test_int64_keys_decide_as_int32_keys(kind, monkeypatch):
    # with the int32 bound patched down to 0 every policy ranks int64 keys;
    # its masks, direct and from a clone writing into lent scratch, and its
    # single-vector decisions must be the int32 path's
    plants, filters, cps = (x * 3 for x in _ensemble(4, 39))
    deltas = np.random.default_rng(39).integers(1, 90, (24, 12))
    deltas[0] = 7  # every sensor at one AoI: ties across the copies

    def decisions():
        pol = PolicySpec(kind, voi_delta_cap=6).make(plants, filters, cps, 5)
        lent = (np.empty(deltas.shape), np.empty(deltas.shape, dtype=np.int64))
        width = pol._keys(deltas).dtype
        return width, (pol.decide_batch(deltas), pol.clone(scratch=lent).decide_batch(deltas),
                       [pol.decide(row) for row in deltas])

    width32, narrow = decisions()
    monkeypatch.setattr(policies, "_KEY32_LIMIT", 0)
    width64, wide = decisions()
    assert (width32, width64) == (np.int32, np.int64)
    assert all(np.array_equal(a, b) for a, b in zip(narrow[:2], wide[:2]))
    assert narrow[2] == wide[2]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_aoi_greedy_keys_widen_past_the_int32_range(dtype):
    # n * delta reaches 2^31 in the second batch (2 * 2^30), so its keys are
    # int64; the first batch's largest key, 2^31 - 2, is still int32. Both
    # rank as the int64 keys n * delta - i do, ties toward the lower index.
    pol = AoiGreedyPolicy(2, 1)
    for top, width in ((2**30 - 1, np.int32), (2**30, np.int64)):
        deltas = np.array([[top, top], [top - 1, top], [3, top], [top, 1]], dtype=dtype)
        keys = pol._keys(deltas)
        wide = deltas.astype(np.int64) * 2 - np.arange(2)
        assert keys.dtype == width and np.array_equal(keys, wide)
        expect = _argsort_reference(wide.astype(float), 1)
        assert np.array_equal(pol.decide_batch(deltas), expect)
        assert np.array_equal(pol.clone().decide_batch(deltas), expect)
        assert [pol.decide(row).scheduled for row in deltas] == [(0,), (1,), (1,), (0,)]


@pytest.mark.parametrize("kind", ["lightweight", "aoi-greedy"])
def test_int32_keys_fill_a_clones_lent_scratch(kind):
    # a clone writes its 4-byte keys into the leading bytes of the first
    # lent 8-byte buffer, not into an array of its own
    plants, filters, cps = _ensemble(6, 31)
    lent = (np.empty((5, 6)), np.empty((5, 6), dtype=np.int64))
    pol = PolicySpec(kind).make(plants, filters, cps, 3).clone(scratch=lent)
    deltas = np.random.default_rng(4).integers(1, 9, (5, 6))
    keys = pol._keys(deltas, *pol._buffers(deltas.shape, np.int64))
    assert keys.dtype == np.int32 and keys.flags.c_contiguous
    assert keys.ctypes.data == lent[0].ctypes.data


@pytest.mark.parametrize("kind", ["lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle"])
def test_clone_mask_survives_the_next_call(kind):
    # a clone reuses its scratch from call to call (lent, as the simulator
    # lends it, or its own); the mask it returns is new every time
    plants, filters, cps = _ensemble(6, 31)
    rng = np.random.default_rng(4)
    first_in, second_in = rng.integers(1, 9, (2, 5, 6))
    direct = PolicySpec(kind).make(plants, filters, cps, 3)
    lent = (np.empty((5, 6)), np.empty((5, 6), dtype=np.int64))
    for pol in (direct.clone(), direct.clone(scratch=lent)):
        first = pol.decide_batch(first_in)
        kept = first.copy()
        second = pol.decide_batch(second_in)
        assert np.array_equal(first, kept) and not np.shares_memory(first, second)
        assert np.array_equal(first, direct.decide_batch(first_in))
        assert np.array_equal(second, direct.decide_batch(second_in))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
def test_decide_takes_any_integer_aoi_dtype(dtype):
    plants, filters, cps = _ensemble(4, 32)
    aoi = [3, 1, 3, 2]
    for kind in ("lightweight", "aoi-greedy", "voi-greedy"):
        pol = PolicySpec(kind).make(plants, filters, cps, 2)
        assert pol.decide(np.array(aoi, dtype=dtype)) == pol.decide(np.array(aoi)), kind


_KEY_RANKED = ("lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle", "voi-whittle")


def _assert_decide_is_the_batch_row(make, rows):
    """``decide`` on each AoI vector schedules what ``decide_batch`` marks in
    that one-row batch; twin policies, so each path fills its own rows."""
    one, batch = make(), make()
    for row in rows:
        expect = tuple(np.flatnonzero(batch.decide_batch(row[None])[0]).tolist())
        assert one.decide(row).scheduled == expect, row.tolist()


@pytest.mark.parametrize("kind", _KEY_RANKED)
@settings(max_examples=12)
@given(n=st.integers(1, 4), seed=st.integers(0, 10_000),
       dtype=st.sampled_from([np.uint8, np.int32, np.uint64, np.int64]), data=st.data())
def test_decide_is_the_batch_row(kind, n, seed, dtype, data):
    # AoI past 64 grows the closed-form rows, and past voi-cap 3 VoI-Whittle
    # extrapolates into its rows and ranks them again
    m = data.draw(st.integers(1, n))
    plants, filters, cps = _ensemble(n, seed)
    aoi = st.one_of(st.integers(1, 4), st.integers(60, 255))
    rows = np.array(data.draw(st.lists(st.lists(aoi, min_size=n, max_size=n),
                                       min_size=1, max_size=5)), dtype=dtype)
    _assert_decide_is_the_batch_row(
        lambda: PolicySpec(kind, voi_delta_cap=3).make(plants, filters, cps, m), rows)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_decide_is_the_batch_row_past_overflow(dtype):
    # saturated lightweight indexes tie at inf; sensor 0's VoI-greedy trace
    # overflows float64 before AoI 9000
    for alphas in ((1.44, 1.3), (1.3, 1.44)):
        cps = [CharParams(a, 1.0) for a in alphas]
        _assert_decide_is_the_batch_row(
            lambda: LightweightPolicy(cps, [0.9, 0.9], 1),
            np.array([[2800, 4000], [4000, 2800], [3000, 3500], [5, 3000]], dtype=dtype))
    plants, filters, _ = _ensemble(2, 3)
    _assert_decide_is_the_batch_row(lambda: VoiGreedyPolicy(plants, filters, 1),
                                    np.array([[9000, 2], [2, 9000], [9000, 9000]], dtype=dtype))


@pytest.mark.parametrize("kind", _KEY_RANKED)
def test_decide_keeps_a_clones_lent_scratch(kind):
    # the simulator lends a clone its (values, index) pair and reuses both
    # arrays between decisions; a decide call must not swap them out
    plants, filters, cps = _ensemble(4, 35)
    lent = (np.empty((8, 4)), np.empty((8, 4), dtype=np.int64))
    pol = PolicySpec(kind, voi_delta_cap=3).make(plants, filters, cps, 2).clone(scratch=lent)
    pol.decide([5, 1, 70, 2])
    assert len(pol._scratch) == 2
    assert pol._scratch[0] is lent[0] and pol._scratch[1] is lent[1]


@pytest.mark.parametrize("kind", _KEY_RANKED)
def test_decide_never_hands_decide_batch_a_vector(kind):
    # a batch's row count is deltas.shape[0], so decide_batch takes 2-D only
    plants, filters, cps = _ensemble(3, 36)
    pol = PolicySpec(kind, voi_delta_cap=3).make(plants, filters, cps, 1)
    base = type(pol)

    def decide_batch(self, deltas):
        assert deltas.ndim == 2, deltas.shape
        return base.decide_batch(self, deltas)

    pol.__class__ = type("Checked", (base,), {"decide_batch": decide_batch})
    for aoi in ([3, 70, 1], [1, 1, 1], [200, 2, 9]):
        expect = tuple(np.flatnonzero(pol.decide_batch(np.array([aoi]))[0]).tolist())
        assert pol.decide(aoi).scheduled == expect


def test_top_m_mask_ranks_nan_last():
    scores = np.array([[np.nan, 1.0, np.nan, -np.inf],
                       [np.nan, np.nan, np.nan, np.nan]])
    # run r reads every sensor at AoI r + 1, the column holding its scores
    table = np.column_stack([np.zeros(4), scores.T])
    deltas = np.array([[1] * 4, [2] * 4])
    assert _GivenTable(table, range(4), 1).decide_batch(deltas).tolist() == [
        [False, True, False, False], [True, False, False, False]]
    assert _GivenTable(table, range(4), 3).decide_batch(deltas).tolist() == [
        [True, True, False, True], [True, True, True, False]]


def test_parse_policy():
    assert parse_policy("lightweight").kind == "lightweight"
    assert parse_policy("dp:cap=12").delta_cap == 12
    assert parse_policy("voi-whittle:cache=false").use_cache is False
    assert parse_policy("randomized:q=0.4+0.6").q == (0.4, 0.6)
    with pytest.raises(ValueError):
        parse_policy("nonsense")
    with pytest.raises(ValueError):
        parse_policy("lightweight:tie=random")
    with pytest.raises(ValueError):
        PolicySpec("nonsense")
    # option values are checked when the spec is built, naming the option
    for text, message in [
        ("dp:cap=0", "policy option cap must be at least 1, got 0"),
        ("dp:cap=x", "policy option cap wants a number, got 'x'"),
        ("voi-whittle:voi-cap=1", "policy option voi-cap must be at least 2, got 1"),
        ("voi-whittle:voi-cap=", "policy option voi-cap wants a number, got ''"),
        ("randomized:q=0.4+y", "policy option q wants a number, got '0.4+y'"),
        ("dp:cost=foo", "policy option cost must be one of aoi-function, trace, got 'foo'"),
        ("dp:cost=squared-error",
         "policy option cost must be one of aoi-function, trace, got 'squared-error'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_policy(text)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="cap"):
        PolicySpec("dp", delta_cap=0)
    assert parse_policy("voi-whittle:voi-cap=2").voi_delta_cap == 2
