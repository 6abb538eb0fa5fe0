"""Randomized-policy optimization, lower/upper bounds, stability verdicts."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoi_sched import (
    AoiFunction,
    FeasibilityError,
    PlantModel,
    PolicySpec,
    SimConfig,
    StabilityError,
    ThresholdPolicy,
    UnsupportedPlantError,
    characteristic_params,
    compute_bounds_report,
    generate_ensemble,
    lower_bound_J,
    lower_bound_J_origin,
    necessary_stability,
    optimize_randomized_q,
    run_covariance_sim,
    steady_state_filter,
    sufficient_stability,
    threshold_average_cost,
    threshold_transmission_rate,
    upper_bound_J,
    whittle_index_table,
)
from aoi_sched import bounds
from aoi_sched.bounds import _dual_threshold_search
from aoi_sched.plants import filters_and_params


class TestOptimizeRandomizedQ:
    def test_symmetric_split(self):
        q, _ = optimize_randomized_q([1.5, 1.5], [1.0, 1.0], [0.8, 0.8], 1)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-9)

    def test_single_sensor_saturates(self):
        q, _ = optimize_randomized_q([1.44], [1.0], [0.9], 1)
        assert q[0] == 1.0

    def test_matches_grid_search(self):
        alphas, betas, probs = [1.3, 1.7], [0.8, 2.5], [0.9, 0.95]
        q, obj = optimize_randomized_q(alphas, betas, probs, 1)

        def objective(q1):
            q2 = 1.0 - q1
            vals = []
            for a, b, p, qq in zip(alphas, betas, probs, (q1, q2)):
                den = 1.0 - a + a * p * qq
                if den <= 0 or not (0 < qq <= 1):
                    return np.inf
                vals.append(b * (a - 1.0) / den)
            return sum(vals)

        grid = np.arange(1e-4, 1.0, 1e-4)
        vals = np.array([objective(x) for x in grid])
        best = grid[np.argmin(vals)]
        assert abs(q[0] - best) < 1e-3
        assert obj <= vals.min() + 1e-8

    def test_complementary_slackness(self):
        alphas = [1.2, 1.5, 1.8, 1.4]
        betas = [1.0, 2.0, 0.5, 3.0]
        probs = [0.9, 0.85, 0.95, 0.9]
        q, _ = optimize_randomized_q(alphas, betas, probs, 2)
        assert np.sum(q) == pytest.approx(2.0, abs=1e-9)
        derivs = []
        for a, b, p, qq in zip(alphas, betas, probs, q):
            if 1e-6 < qq < 1 - 1e-6:
                derivs.append(b * (a - 1) * a * p / (1 - a + a * p * qq) ** 2)
        assert len(derivs) >= 2
        assert max(derivs) - min(derivs) < 1e-6 * max(derivs)

    @settings(max_examples=50)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(-3.0, 6.0), min_size=n, max_size=n),
        st.integers(1, n - 1))))
    def test_water_filling_meets_kkt(self, problem):
        # q within [q_min + eps, 1], the budget met to 1e-12 relative, and
        # the sensors inside their clamps (by 1e-6, where the marginal is
        # well conditioned) at one marginal cost
        probs, fracs, exps, m = map(np.array, problem)
        alphas = 1.05 + fracs * (np.minimum(3.0, 0.95 / (1.0 - probs + 1e-12)) - 1.05)
        betas = 10.0**exps
        q_min = (1.0 - 1.0 / alphas) / probs
        assume(q_min.sum() + 1e-6 < m)
        q, _ = optimize_randomized_q(alphas, betas, probs, int(m))
        lo = q_min + bounds._Q_EPS
        assert np.all(q >= lo) and np.all(q <= 1.0)
        assert abs(q.sum() - m) <= 1e-12 * m
        inside = (q > lo + 1e-6) & (q < 1.0 - 1e-6)
        marginal = betas * (alphas - 1) * alphas * probs / (1 - alphas + alphas * probs * q) ** 2
        if inside.any():
            np.testing.assert_allclose(marginal[inside], marginal[inside].max(), rtol=1e-9)

    def test_infeasible(self):
        # sum of minimum rates exceeds the budget
        with pytest.raises(FeasibilityError):
            optimize_randomized_q([4.0, 4.0], [1.0, 1.0], [0.8, 0.8], 1)
        # a sensor that cannot be stabilized even at q = 1
        with pytest.raises(FeasibilityError):
            optimize_randomized_q([3.0, 1.2], [1.0, 1.0], [0.5, 0.9], 2)


class TestLowerBound:
    def test_single_sensor_deterministic(self):
        value, thr, _ = lower_bound_J([2.0], [1.0], [1.0], 1)
        assert thr == [1]
        assert value == pytest.approx(2.0)

    def test_objective_increasing_beyond_station(self):
        # per-sensor relaxed cost is increasing over integer thresholds
        rng = np.random.default_rng(40)
        for _ in range(20):
            alpha = rng.uniform(1.05, 2.0)
            p = rng.uniform(0.4, 1.0)
            if alpha * (1 - p) >= 0.95:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.1, 4.0), p)
            vals = [threshold_average_cost(fn, ThresholdPolicy(d), 0.0)
                    for d in range(1, 30)]
            assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))

    def test_requires_stability(self):
        with pytest.raises(StabilityError):
            lower_bound_J([2.0], [1.0], [0.4], 1)

    def test_search_respects_budget(self):
        rng = np.random.default_rng(41)
        alphas = rng.uniform(1.1, 1.6, 5).tolist()
        betas = rng.uniform(0.3, 3.0, 5).tolist()
        probs = rng.uniform(0.8, 1.0, 5).tolist()
        _, thr, _ = lower_bound_J(alphas, betas, probs, 2)
        load = sum(1.0 / (d * p + 1 - p) for d, p in zip(thr, probs))
        assert load <= 2.0 + 1e-12

    def test_overflowing_prune_sums_do_not_warn(self):
        # two threshold-1 costs near float64's limit sum to inf in the dual
        # value and in the weak-duality check's integer cost, an inf the
        # bound returns by design: under RuntimeWarning as an error (the
        # suite's setting) it runs through
        value, thresholds, _ = lower_bound_J([1.1, 1.1, 1.1], [1e308, 1e308, 1.0],
                                             [1.0, 1.0, 1.0], 3)
        assert value == math.inf and thresholds == [1, 1, 1]

    @pytest.mark.parametrize("excess, raises", [(1e-10, False), (1e-8, True)])
    def test_weak_duality_check_has_a_relative_margin(self, monkeypatch, excess, raises):
        # at M = N and p = 1 the dual value is the integer cost of the
        # thresholds [1, 1]; a dual above it by more than 1e-9 relative raises
        real = bounds._dual_threshold_search

        def inflated(fns, m):
            value, thresholds, lam = real(fns, m)
            return value * (1.0 + excess), thresholds, lam

        monkeypatch.setattr(bounds, "_dual_threshold_search", inflated)
        if raises:
            with pytest.raises(RuntimeError, match="dual bound exceeded"):
                lower_bound_J([1.2, 1.3], [1.0, 1.0], [1.0, 1.0], 2)
        else:
            assert lower_bound_J([1.2, 1.3], [1.0, 1.0], [1.0, 1.0], 2)[1] == [1, 1]

    def test_multiplier_prices_the_budget(self):
        # lam* is 0 when every sensor can transmit at every step, and
        # positive when the budget binds; at M = N the thresholds are all 1
        # at any p, since threshold 1 transmits at rate exactly 1
        assert lower_bound_J([1.2, 1.3], [1.0, 1.0], [1.0, 1.0], 2)[2] == 0.0
        assert lower_bound_J([1.2, 1.3], [1.0, 1.0], [0.9, 0.9], 2)[1:] == ([1, 1], 0.0)
        assert lower_bound_J([1.2, 1.3], [1.0, 1.0], [0.9, 0.9], 1)[2] > 0.0

    def test_budget_no_thresholds_fit_raises(self):
        # sensor 0 costs inf at every threshold, so it never moves on from
        # threshold 1, which at p = 1 alone fills M = 1; once sensor 1's
        # costs overflow too, no price lowers the load to M
        with pytest.raises(FeasibilityError, match="no thresholds fit M=1"):
            lower_bound_J([2.0, 1.5], [1e308, 1.0], [1.0, 0.9], 1)

    def test_no_move_on_to_a_threshold_whose_cost_overflows(self):
        # sensor 0's index at 1 is finite, but its cost at threshold 2
        # overflows, so it never moves on, and with sensor 1 at any of its
        # thresholds the load exceeds M = 1
        fn = AoiFunction(1.42, 2.3e307, 0.36)
        assert math.isfinite(whittle_index_table(fn, 1)[1])
        assert threshold_average_cost(fn, ThresholdPolicy(2), 0.0) == math.inf
        with pytest.raises(FeasibilityError, match="no thresholds fit M=1"):
            lower_bound_J([1.42, 1.5], [2.3e307, 1.0], [0.36, 0.9], 1)


def _fns(alphas, betas, probs):
    return [AoiFunction(float(a), float(b), float(p)) for a, b, p in zip(alphas, betas, probs)]


def _scalar_terms(alphas, betas, probs):
    fns = _fns(alphas, betas, probs)

    def cost(i, d):
        return threshold_average_cost(fns[i], ThresholdPolicy(d), 0.0)

    def rate(i, d):
        return threshold_transmission_rate(fns[i].p, ThresholdPolicy(d))

    return cost, rate


def _scalar_dual(alphas, betas, probs, m):
    """Reference: the dual at a price lam as a scalar walk over thresholds,
    one closed-form call per (sensor, threshold) it visits. Returns the dual
    value, the load and the thresholds."""
    n = len(alphas)
    cost, rate = _scalar_terms(alphas, betas, probs)

    def per_sensor(i, lam):
        best, best_d = math.inf, 1
        d = 1
        while True:
            t = cost(i, d)
            val = t + lam * rate(i, d)
            if val < best:
                best, best_d = val, d
            if t >= best:
                return best, best_d
            d += 1

    def dual(lam):
        vals, ds = zip(*(per_sensor(i, lam) for i in range(n)))
        return sum(vals) - lam * m, sum(rate(i, ds[i]) for i in range(n)), list(ds)

    return dual


def _scalar_dual_search(alphas, betas, probs, m):
    """Reference: bisection of the multiplier over the scalar walk's dual."""
    dual = _scalar_dual(alphas, betas, probs, m)
    lam_lo, lam_hi = 0.0, 1.0
    while dual(lam_hi)[1] > m:
        lam_hi *= 4.0
    best_value, best_lam, best_thr = dual(0.0)[0], 0.0, dual(lam_hi)[2]
    for _ in range(100):
        lam = 0.5 * (lam_lo + lam_hi)
        value, load, ds = dual(lam)
        if value > best_value:
            best_value, best_lam = value, lam
        if load > m:
            lam_lo = lam
        else:
            lam_hi, best_thr = lam, ds
    return best_value, best_thr, best_lam


@st.composite
def _relaxed_problems(draw):
    """Stable sensors (alpha >= 1.1, alpha (1 - p) < 1, p up to 1) and a
    budget m in 1..N. The first h < m sensors have beta in 1e306..1e308, so
    their costs overflow to inf at the first few thresholds; the others keep
    the multiplier bracket finite."""
    n = draw(st.integers(1, 8))
    h = draw(st.integers(0, n - 1))
    m = draw(st.integers(h + 1, n))
    probs = draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
    alphas = [1.1 + draw(st.floats(0.0, 1.0)) * (min(3.0, 0.95 / max(1.0 - p, 1e-9)) - 1.1)
              for p in probs]
    betas = [10.0 ** draw(st.floats(306.0, 308.0) if i < h else st.floats(-3.0, 6.0))
             for i in range(n)]
    return np.array(alphas), np.array(betas), np.array(probs), m


# sensor 0 costs inf from the first threshold; in the second, from the second
_OVERFLOWS = [([2.0, 1.5], [1e308, 1.0], [1.0, 0.9], 2),
              ([2.0, 1.3, 1.6], [5e307, 2.0, 0.5], [1.0, 0.8, 0.95], 2)]


# N = 6 inputs on which an exact integer search of the thresholds took from
# 2 s to half a minute; the lower bound's value is pinned bit for bit
_FORMER_SLOW_SEARCHES = {
    "alpha-near-1.1-m2": (
        ([1.1, 1.1, 1.108, 1.1, 1.1, 1.1], [0.1, 0.1, 1000.0, 0.1, 0.1, 1000.0],
         [0.4, 0.7, 0.5, 0.7, 1.0, 0.4], 2), "0x1.402a01870b90bp+11"),
    "m1-beta-six-decades": (
        ([1.8271, 2.1207, 2.1308, 1.0589, 1.1106, 1.281],
         [0.5118, 0.4224, 0.02464, 0.5466, 642.1, 122600.0],
         [0.657, 0.7139, 0.7379, 0.7045, 0.8109, 0.9551], 1), "0x1.608c4569e34b7p+17"),
    "m1-beta-seven-decades": (
        ([2.5216, 1.2647, 1.9091, 1.8538, 1.4841, 1.6188],
         [0.8059, 825472.2, 0.2411, 29939.77, 0.0361, 189.41],
         [0.8859, 0.8303, 0.7839, 0.9391, 0.876, 0.4253], 1), "0x1.9c28047d944e9p+20"),
}


def _arrays(alphas, betas, probs, m):
    return np.array(alphas), np.array(betas), np.array(probs), m


@settings(max_examples=30)
@given(_relaxed_problems())
@example(_arrays(*_OVERFLOWS[0]))
@example(_arrays(*_OVERFLOWS[1]))
@example(_arrays([1.2, 1.3], [1.0, 1.0], [0.9, 0.9], 2))  # M = N: lam* = 0, thresholds 1
@example(_arrays([1.1, 1.3], [1.0, 100.0], [0.5, 0.35], 1))  # lam* past 16 thresholds
@example(_arrays([1.1] * 4, [1.0] * 4, [0.3] * 4, 1))  # load exactly M after a kink
@example(_arrays([1.27, 2.9], [5.5e307, 1.0], [0.87, 0.99], 1))  # index at 1 overflows, cost not
@example(_arrays(*_FORMER_SLOW_SEARCHES["alpha-near-1.1-m2"][0]))
@example(_arrays(*_FORMER_SLOW_SEARCHES["m1-beta-six-decades"][0]))
@example(_arrays(*_FORMER_SLOW_SEARCHES["m1-beta-seven-decades"][0]))
def test_threshold_searches_match_the_scalar_walk(problem):
    # the kink sweep finds the scalar walk's thresholds and, within rounding,
    # its value. Its lam* is a maximum of the walk's dual; the bisection's own
    # lam can sit elsewhere on a top that is flat in floats: where the load
    # after a kink is exactly M, or the value absorbs lam * M
    value, thr, lam = _dual_threshold_search(_fns(*problem[:3]), problem[3])
    ref_value, ref_thr, _ = _scalar_dual_search(*problem)
    assert thr == ref_thr
    assert value == pytest.approx(ref_value, rel=1e-13) or value == ref_value == math.inf
    assert _scalar_dual(*problem)(lam)[0] >= ref_value * (1.0 - 1e-13)


@pytest.mark.parametrize("problem", _OVERFLOWS)
def test_overflow_examples_reach_inf(problem):
    alphas, betas, probs, _ = problem
    fn = AoiFunction(alphas[0], betas[0], probs[0])
    costs = [threshold_average_cost(fn, ThresholdPolicy(d), 0.0) for d in (1, 2)]
    assert math.isinf(costs[1]) and math.isinf(costs[0]) == (problem is _OVERFLOWS[0])


@contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block once it runs past ``seconds``."""
    def late(*_):
        raise TimeoutError(f"the lower bound ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _closed_form_tables(alphas, betas, probs, cap):
    """Reference: each sensor's average cost at zero price and attempt rate
    at the thresholds 1..cap, two (N, cap) arrays of the closed forms."""
    a, b, p = (np.asarray(x, dtype=float)[:, None] for x in (alphas, betas, probs))
    d = np.arange(1, cap + 1, dtype=float)
    rate = 1.0 / (1.0 + p * d - p)
    cost = p * b * ((a**d - a) / (a - 1.0) + a**d / (1.0 - a + p * a)) * rate
    return cost, rate


def _breakpoint_dual(alphas, betas, probs, m, cap=400):
    """Reference: the dual's maximum and its multiplier by a search over
    breakpoints. At a price lam a sensor's best threshold is the first AoI
    whose closed-form index reaches lam, so the dual is concave and
    piecewise linear in lam with kinks at the index values, and its maximum
    sits at 0 or at a kink. Every kink below the least last index is
    searched, so a maximum below it is the dual's."""
    cost, rate = _closed_form_tables(alphas, betas, probs, cap)
    index = np.array([whittle_index_table(AoiFunction(*abp), cap)[1:]
                      for abp in zip(alphas, betas, probs, strict=True)])
    top = index[:, -1].min()
    prices = np.concatenate([[0.0], index[(index > 0.0) & (index <= top)]])
    first = np.array([np.searchsorted(row, prices) for row in index])
    sensors = np.arange(len(index))[:, None]
    duals = cost[sensors, first].sum(axis=0) + prices * (rate[sensors, first].sum(axis=0) - m)
    k = int(np.argmax(duals))
    assert prices[k] < top
    return float(duals[k]), float(prices[k])


def _check_feasible_and_above(alphas, betas, probs, m, value, thresholds):
    """The thresholds fit the budget, and their integer cost (scalar closed
    forms, summed in sensor order) is at least the bound: weak duality."""
    cost, rate = _scalar_terms(alphas, betas, probs)
    assert sum(rate(i, d) for i, d in enumerate(thresholds)) <= m
    integer = sum(cost(i, d) for i, d in enumerate(thresholds))
    assert value <= integer + 1e-12 * abs(integer)


@pytest.mark.parametrize("case", list(_FORMER_SLOW_SEARCHES))
def test_lower_bound_keeps_its_bits_without_a_search(case):
    args, bits = _FORMER_SLOW_SEARCHES[case]
    with _alarm(5.0):
        value, thresholds, _ = lower_bound_J(*args)
    assert value.hex() == bits
    _check_feasible_and_above(*args, value, thresholds)


def test_corner_sweep_finishes_on_the_dual():
    # N = 4..6, M = 1..2, alpha near 1.1, each beta 0.1 or 1000 and both
    # present: corners where an exact integer search of the thresholds ran
    # past 10 s alarms (one of these 30 did, and another took over 2 s).
    # The whole sweep takes well under a second, and each bound is the
    # breakpoint search's
    rng = np.random.default_rng(31)
    with _alarm(20.0):
        for _ in range(30):
            n, m = int(rng.integers(4, 7)), int(rng.integers(1, 3))
            alphas = 1.1 + rng.uniform(0.0, 0.01, n)
            probs = rng.uniform(0.4, 1.0, n)
            exps = rng.choice([-1.0, 3.0], n)
            exps[rng.choice(n, 2, replace=False)] = -1.0, 3.0
            betas = 10.0**exps
            value, thresholds, _ = lower_bound_J(alphas, betas, probs, m)
            _check_feasible_and_above(alphas, betas, probs, m, value, thresholds)
            assert value == pytest.approx(_breakpoint_dual(alphas, betas, probs, m)[0],
                                          rel=1e-13)


def test_relaxed_kinks_are_the_lightweight_indexes():
    # the sweep's premise: the price at which thresholds d and d + 1 tie,
    # (cost(d+1) - cost(d)) / (rate(d) - rate(d+1)) from the scalar closed
    # forms, is the closed-form Whittle index at d, so a row's kinks rise
    # with d and the sweep may read them from the index table
    rng = np.random.default_rng(32)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(40):
            probs = rng.uniform(0.3, 1.0)
            alpha = 1.1 + rng.uniform(0.0, 1.0) * (min(3.0, 0.95 / (1.0 - probs)) - 1.1)
            fn = AoiFunction(alpha, 10.0 ** rng.uniform(-3.0, 6.0), probs)
            cost, rate = (np.array([f(0, d) for d in range(1, 17)])
                          for f in _scalar_terms([fn.alpha], [fn.beta], [fn.p]))
            kinks = np.diff(cost) / -np.diff(rate)
            finite = np.isfinite(kinks)
            index = whittle_index_table(fn, kinks.size)[1:]
            np.testing.assert_allclose(kinks[finite], index[finite], rtol=1e-12, err_msg=str(fn))


def test_sweep_load_is_the_scalar_attempt_rate():
    # the sweep sums 1 / (1 + p (d - 1)) over a threshold array; it is
    # threshold_transmission_rate bit for bit, p = 1 and d = 1 included
    rng = np.random.default_rng(35)
    probs = np.concatenate([[1.0, 0.9, 0.3], rng.uniform(1e-3, 1.0, 500)])
    ds = np.concatenate([[1, 1, 2], rng.integers(1, 10**6, 500)])
    rates = (1.0 / (1.0 + probs * (ds - 1))).tolist()
    assert rates == [threshold_transmission_rate(float(p), ThresholdPolicy(int(d)))
                     for p, d in zip(probs, ds)]


def test_dual_matches_the_breakpoint_search_from_2_to_39_sensors():
    rng = np.random.default_rng(33)
    for n in range(2, 40):
        m = int(rng.integers(1, n))
        alphas = rng.uniform(1.1, 1.6, n)
        betas = 10.0 ** rng.uniform(-1.0, 3.0, n)
        probs = rng.uniform(0.5, 1.0, n)
        value, thresholds, lam = lower_bound_J(alphas, betas, probs, m)
        ref_value, ref_lam = _breakpoint_dual(alphas, betas, probs, m)
        assert value == pytest.approx(ref_value, rel=1e-13), n
        assert lam == pytest.approx(ref_lam, rel=1e-9), n
        _check_feasible_and_above(alphas, betas, probs, m, value, thresholds)


def test_report_at_2000_sensors_within_seconds():
    # 20 plants cycled to N = 2000, M = 1000: one sort per bound, and a
    # table that grows only while no tabulated kink fits
    base = generate_ensemble(20, 3, 3, (1.05, 1.25), seed=0, p_range=(0.85, 1.0))
    plants = [base[i % 20] for i in range(2000)]
    filters, cps = filters_and_params(plants)
    with _alarm(5.0):
        rep = compute_bounds_report(plants, filters, cps, 1000)
    _check_feasible_and_above(rep.alphas, rep.betas, rep.probs, 1000, rep.lower_J,
                              rep.thresholds_star)
    _, rate = _scalar_terms(rep.alphas, rep.betas, rep.probs)
    assert sum(rate(i, d) for i, d in enumerate(rep.origin_thresholds)) <= 1000


def test_no_enumerated_feasible_thresholds_cost_less_than_the_bound():
    # weak duality against brute force: every threshold vector in 1..CAP^N
    # at N <= 4 whose load fits the budget costs at least the bound, and the
    # least of them is within a factor of two of it (the bound is not vacuous)
    cap = 20
    rng = np.random.default_rng(34)
    for n in (1, 2, 3, 4) * 5:
        m = int(rng.integers(1, n + 1))
        alphas = rng.uniform(1.1, 1.6, n)
        betas = 10.0 ** rng.uniform(-1.0, 3.0, n)
        probs = rng.uniform(0.5, 1.0, n)
        value, _, _ = lower_bound_J(alphas, betas, probs, m)
        cost, rate = _closed_form_tables(alphas, betas, probs, cap)
        total = load = np.zeros((1,) * n)
        for i in range(n):
            shape = [1] * n
            shape[i] = cap
            total = total + cost[i].reshape(shape)
            load = load + rate[i].reshape(shape)
        least = total[load <= m].min()
        assert 0.5 * least <= value <= least * (1.0 + 1e-12), (n, m)


class TestLowerBoundOrigin:
    def test_scalar_reduces_to_min_eigen_form(self, scalar_plant, scalar_filter):
        value, thr, zetas = lower_bound_J_origin([scalar_plant], [scalar_filter], 1)
        assert zetas[0] == pytest.approx(1.0, rel=1e-10)
        beta_hat = min(1.0, scalar_filter.posterior_cov[0, 0])
        oracle, _, _ = lower_bound_J([1.44], [beta_hat], [0.9], 1)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_diagonal_dynamics_zeta_one(self):
        pl = PlantModel(A=np.diag([1.1, 1.3]), C=np.eye(2), Q=np.eye(2),
                        R=np.eye(2), p=0.9)
        ss = steady_state_filter(pl)
        _, _, zetas = lower_bound_J_origin([pl], [ss], 1)
        assert zetas[0] == pytest.approx(1.0, rel=1e-8)

    def test_random_zeta_at_most_one(self):
        plants = generate_ensemble(5, 2, 2, (1.05, 1.4), seed=43, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        _, _, zetas = lower_bound_J_origin(plants, filters, 2)
        assert all(z <= 1.0 + 1e-9 for z in zetas)

    def test_linear_algebra_once_per_distinct_pair(self, monkeypatch):
        # 3 plant objects cycled to 9 sensors: one eig per (plant, filter)
        # pair of objects, and the sensors of a pair share its zeta
        base = generate_ensemble(3, 3, 3, (1.05, 1.25), seed=47, p_range=(0.9, 1.0))
        plants = [base[i % 3] for i in range(9)]
        filters, _ = filters_and_params(plants)
        eig = np.linalg.eig
        calls = []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
        _, _, zetas = lower_bound_J_origin(plants, filters, 4)
        assert len(calls) == 3
        _, _, base_zetas = lower_bound_J_origin(base, filters[:3], 2)
        assert zetas == base_zetas * 3

    def test_defective_rejected(self):
        a = np.array([[1.2, 1.0], [0.0, 1.2]])  # Jordan block
        pl = PlantModel(A=a, C=np.eye(2), Q=np.eye(2), R=np.eye(2), p=0.9)
        ss = steady_state_filter(pl)
        with pytest.raises(UnsupportedPlantError):
            lower_bound_J_origin([pl], [ss], 1)


_SENSORS = ([1.2, 1.3, 1.4], [1.0, 1.0, 1.0], [0.9, 0.9, 0.9])


def _upper(alphas, betas, probs, m):
    return upper_bound_J(alphas, betas, probs, m, [0.5] * len(alphas))


@pytest.mark.parametrize("bound", [lower_bound_J, optimize_randomized_q, _upper])
@pytest.mark.parametrize("args", [
    (*_SENSORS[:2], [0.9], 1),  # one p for three sensors
    ([], [], [], 1),
    (*_SENSORS, 0),
], ids=["mismatched", "no-sensors", "m=0"])
def test_bad_input_fails_before_any_search(monkeypatch, bound, args):
    # a typed error up front: no sweep of sorted kinks starts, and nothing
    # broadcasts a single p over every sensor
    monkeypatch.setattr(bounds, "bisect", None)
    with pytest.raises(ValueError, match="per-sensor inputs|budget m=0"):
        bound(*args)


def test_upper_bound_rejects_q_star_of_another_length():
    with pytest.raises(ValueError, match="per-sensor inputs"):
        upper_bound_J(*_SENSORS, 1, [0.5, 0.5])


class TestUpperBound:
    def test_frozen_single_sensor_example(self):
        parts = upper_bound_J([1.44], [1.0], [0.9], 1, [1.0])
        assert parts.l1[0] == pytest.approx(1.0514018691588785, rel=1e-10)
        assert parts.l2[0] == pytest.approx(-3.324129141886152, rel=1e-10)
        assert parts.eta[0] == pytest.approx(0.9, rel=1e-10)
        assert parts.s[0] == pytest.approx(2.9968564146134247, rel=1e-10)
        assert parts.delta_tilde[0] == 4
        assert parts.value == pytest.approx(20.78093312144247, rel=1e-9)

    def test_existence_condition(self):
        with pytest.raises(FeasibilityError):
            upper_bound_J([4.0, 4.0], [1.0, 1.0], [0.8, 0.8], 1, [0.5, 0.5])


class TestStability:
    def test_necessary(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.5)
        assert necessary_stability(pl)  # 1.44 * 0.5 = 0.72
        pl2 = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.2)
        assert not necessary_stability(pl2)  # 1.152
        pl3 = PlantModel(A=[[1.7]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=1.0)
        assert necessary_stability(pl3)

    def test_sufficient(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)
        assert sufficient_stability(pl, 0.5)  # 1.44 * 0.55 = 0.792
        assert sufficient_stability(pl, 1.0) == necessary_stability(pl)

    def test_sufficient_implies_necessary(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            rho2 = rng.uniform(1.01, 2.5)
            p = rng.uniform(0.3, 1.0)
            q = rng.uniform(0.05, 1.0)
            pl = PlantModel(A=[[np.sqrt(rho2)]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=p)
            if sufficient_stability(pl, q):
                assert necessary_stability(pl)


class TestBoundsReport:
    def test_full_report_orders(self):
        plants = generate_ensemble(3, 3, 3, (1.03, 1.2), seed=45, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        rep = compute_bounds_report(plants, filters, cps, 2)
        assert rep.lower_J is not None and rep.upper_J is not None
        assert rep.lower_J <= rep.upper_J
        assert all(rep.necessary_stable)
        assert all(0 < q <= 1 for q in rep.q_star)
        assert sum(rep.q_star) <= 2 + 1e-9

    def test_refused_when_unstable(self):
        pl = PlantModel(A=[[1.4]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.3)
        ss = steady_state_filter(pl)
        cp = characteristic_params(pl, ss)
        rep = compute_bounds_report([pl], [ss], [cp], 1)
        assert rep.necessary_stable == [False]
        assert rep.lower_J is None
        assert any("necessary stability" in n for n in rep.notes)

    @pytest.mark.parametrize("which", ["filters", "params"])
    def test_lists_of_another_length_refused_before_the_verdicts(self, which):
        # the stability verdicts read the plants alone, so an unstable
        # ensemble would return its report without reaching a joined list
        plants = [PlantModel(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=p)
                  for a, p in ((1.4, 0.3), (1.2, 0.9))]
        filters = [steady_state_filter(pl) for pl in plants]
        lists = {"filters": filters,
                 "params": [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]}
        lists[which] = lists[which][:1]
        with pytest.raises(ValueError, match="1 (filters|parameter pairs).* for 2 plants"):
            compute_bounds_report(plants, lists["filters"], lists["params"], 1)

    def test_json_roundtrip(self, tmp_path):
        import json

        plants = generate_ensemble(2, 2, 2, (1.05, 1.2), seed=46, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        rep = compute_bounds_report(plants, filters, cps, 1)
        path = tmp_path / "bounds.json"
        rep.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["lower_J"] == pytest.approx(rep.lower_J)


def _lightweight_against_bounds(count, seed, m, runs, horizon, rho=(1.05, 1.2),
                                p_range=(0.8, 1.0)):
    """The bounds report of a generated ensemble and the simulated
    aoi-function cost of the lightweight policy at budget ``m``."""
    plants = generate_ensemble(count, 3, 3, rho, seed=seed, p_range=p_range)
    filters, cps = filters_and_params(plants)
    rep = compute_bounds_report(plants, filters, cps, m)
    cfg = SimConfig(horizon=horizon, runs=runs, seed=seed, metric="aoi-function")
    return rep, run_covariance_sim(plants, PolicySpec("lightweight"), m, cfg)


_NEAR_OPTIMAL_EPS = 0.01


def test_lightweight_within_eps_of_the_lower_bound_at_every_n():
    """Lightweight cost <= (1 + eps) * relaxed lower bound + CI at N = 4 to
    128 (M = N/2), a certificate of near-optimality that needs no DP, and
    the gap shrinks with N.

    eps = 0.01 sits above every ratio measured on this family at 1000
    runs x 600 steps, on three other ensembles per N and on the seeds 0-2
    used here: lightweight/lower was 1.0015-1.0081 at N = 4, 1.0011-1.0031
    at N = 8, 1.0007-1.0017 at N = 32 and 1.0001-1.0003 at N = 128. It
    certifies the aoi-function cost only.
    """
    ratios = {}
    for n in (4, 8, 32, 128):
        ratios[n] = []
        for seed in range(3):
            rep, sim = _lightweight_against_bounds(n, seed, n // 2, runs=300, horizon=300)
            assert sim.diverged_runs == 0
            assert sim.mean_J <= (1.0 + _NEAR_OPTIMAL_EPS) * rep.lower_J + sim.ci95, (n, seed)
            ratios[n].append(sim.mean_J / rep.lower_J)
    assert np.mean(ratios[128]) < np.mean(ratios[4])


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
def test_simulated_lightweight_cost_within_its_bounds(seed, n, data):
    # C5's sandwich on any small ensemble: the relaxed lower bound holds for
    # every policy, the drift upper bound for the index policy where it
    # exists. M < N: at M = N the lower bound is the exact cost, which a
    # 95% interval misses one time in forty
    m = data.draw(st.integers(1, n - 1), label="m")
    rep, sim = _lightweight_against_bounds(n, seed, m, runs=400, horizon=300,
                                           rho=(1.02, 1.25), p_range=(0.85, 1.0))
    assert rep.lower_J - sim.ci95 <= sim.mean_J
    if rep.upper_J is not None:
        assert sim.mean_J <= rep.upper_J + sim.ci95
