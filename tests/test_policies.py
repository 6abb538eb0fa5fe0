"""Scheduling policies, the randomized stationary sampler, and the joint DP."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    numeric_whittle_index,
    parse_policy,
    steady_state_filter,
    whittle_index,
    whittle_index_table,
)
from aoi_sched.policies import _VOI_TAIL, POLICY_KINDS, Policy, _ScoreTablePolicy


def _float_scores(pol, deltas):
    """The float scores a score-table policy ranks into keys, per (run, sensor)."""
    deltas = np.asarray(deltas)
    rows, of = pol._score_rows(max(64, 2 * int(deltas.max())))
    return rows[of, deltas]


class _GivenTable(_ScoreTablePolicy):
    """Score-table policy over a fixed float table: sensor i scores by row
    ``of[i]`` at column AoI (test helper)."""

    name = "given-table"

    def __init__(self, rows, of, m):
        super().__init__(len(of), m)
        self.rows, self.of = np.asarray(rows, dtype=float), np.asarray(of)

    def _score_rows(self, max_delta):
        return self.rows, self.of


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
        got = pol._scores(np.array([[1], [3], [7]]))[:, 0]
        for d, w in zip((1, 3, 7), got):
            assert w == pytest.approx(whittle_index(fn, d), rel=1e-4)

    def test_index_monotone(self):
        plants, filters, _ = _ensemble(1, 26)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=20, use_cache=True)
        idx = pol._scores(np.arange(1, 21)[:, None])[:, 0]
        assert all(idx[i + 1] > idx[i] for i in range(len(idx) - 1))

    def test_cache_hit_bit_identical(self):
        plants, filters, _ = _ensemble(1, 27)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=10, use_cache=True)
        first = pol._scores(np.array([[4]]))[0, 0]
        assert pol._scores(np.array([[4]]))[0, 0] == first

    def test_extrapolation_preserves_order(self):
        plants, filters, _ = _ensemble(1, 28)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=8, use_cache=True)
        w12, w9, w8 = pol._scores(np.array([[12], [9], [8]]))[:, 0]
        assert w12 > w9 > w8

    def test_keys_rank_entries_filled_between_decisions(self):
        # entries filled by a float read after the keys were ranked must
        # enter the next decision's keys
        plants, filters, _ = _ensemble(3, 29)
        pol = VoiWhittlePolicy(plants, filters, 1, delta_cap=8, use_cache=True)
        pol.decide_batch(np.array([[2, 2, 2]]))
        deltas = np.array([[7, 3, 12], [5, 8, 1]])
        scores = pol._scores(deltas)
        assert np.array_equal(pol.decide_batch(deltas), _argsort_reference(scores, 1))

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
        got = cached._scores(deltas)
        uncached = VoiWhittlePolicy(plants, filters, 1, delta_cap=cap, use_cache=False)
        assert got.tobytes() == uncached._scores(deltas).tobytes()
        assert got.tobytes() == cached._scores(deltas).tobytes()  # warm table
        for i, (pl, ss) in enumerate(zip(plants, filters)):
            costs = error_trace_table(pl, ss, cap + _VOI_TAIL)[1:]

            def oracle(d):
                return numeric_whittle_index(costs, pl.p, d, bracket_hint=pl.p * costs[d])

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


def test_score_rows_built_once_per_distinct_sensor_model(monkeypatch):
    # 3 plants cycled to N=60 are 3 sensor models: the table policies build
    # 3 score rows, not 60, and score each sensor as its own row would
    import aoi_sched.policies as policies

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
    for name in ("whittle_index_table", "error_trace_table"):
        real = getattr(policies, name)
        monkeypatch.setattr(policies, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    light = _float_scores(LightweightPolicy(cps, probs, 30), deltas)
    greedy = _float_scores(VoiGreedyPolicy(plants, filters, 30), deltas)
    assert calls == ["whittle_index_table"] * 3 + ["error_trace_table"] * 3
    assert light.tobytes() == light_ref.tobytes()
    assert greedy.tobytes() == greedy_ref.tobytes()


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

    def test_state_budget_guard(self):
        # the DP allocates at most 2,000,000 joint states
        plants, filters, _ = _ensemble(4, 35)
        with pytest.raises(ResourceBudgetError, match="50\\^4 exceeds budget 2000000"):
            dp_optimal_policy(plants, 2, delta_cap=50, filters=filters)

        class MustNotDecide(AoiGreedyPolicy):
            def decide_batch(self, deltas):
                pytest.fail(f"decide_batch ran on {len(deltas)} joint states")

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
            scores = pol._scores(deltas)
        assert np.array_equal(mask, _argsort_reference(scores, 5)), hi
        widths.append(pol._tables[0][0].shape[1])
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
