"""AoI cost function, Whittle index (closed form and oracle), threshold forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_sched import (
    AoiFunction,
    OracleError,
    StabilityError,
    ThresholdPolicy,
    aoi,
    error_trace_table,
    f_value,
    generate_ensemble,
    numeric_whittle_index,
    stationary_aoi_distribution,
    steady_state_filter,
    threshold_average_cost,
    threshold_transmission_rate,
    threshold_value_function,
    whittle_index,
    whittle_index_numeric,
    whittle_index_table,
)
from aoi_sched.aoi import _ORACLE_DELTA_MAX, _optimal_values, aoi_cost_table
from aoi_sched.policies import _VOI_TAIL


def test_f_value():
    assert f_value(AoiFunction(2.0, 3.0, 1.0), 2) == pytest.approx(12.0)
    assert f_value(AoiFunction(1.44, 1.0, 0.9), 1) == pytest.approx(1.44)


def test_f_geometric_growth():
    fn = AoiFunction(1.37, 2.1, 0.8)
    for d in (1, 5, 17, 300):
        assert f_value(fn, d + 1) / f_value(fn, d) == pytest.approx(fn.alpha, rel=1e-9)


def test_cost_table():
    fn = AoiFunction(1.37, 2.1, 0.8)
    tab = aoi_cost_table(fn.alpha, fn.beta, 40)
    assert tab[0] == 0.0  # AoI starts at 1
    for d in (1, 7, 40):
        assert tab[d] == pytest.approx(f_value(fn, d), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = aoi_cost_table(50.0, 1.0, 190)
    assert np.isfinite(big[181]) and big[182:].tolist() == [math.inf] * 9


@pytest.mark.parametrize("max_delta", [0, -1])
def test_cost_table_rejects_cap_below_one(max_delta):
    # a negative cap ended in an IndexError on slot 0
    with pytest.raises(ValueError, match=f"^AoI cap max_delta={max_delta} must be at least 1$"):
        aoi_cost_table(1.2, 1.0, max_delta)


def test_overflow_gives_inf_at_any_aoi():
    # 50^190 overflows float64 well below AoI 200: the scalar closed forms
    # return inf there, as the index table does
    fn = AoiFunction(50.0, 1.0, 0.99)
    assert f_value(fn, 190) == math.inf
    assert whittle_index(fn, 190) == math.inf
    assert whittle_index_table(fn, 190)[190] == math.inf
    assert threshold_average_cost(fn, ThresholdPolicy(190), 0.0) == math.inf
    assert f_value(fn, 100) == pytest.approx(50.0**100, rel=1e-15)


@pytest.mark.parametrize("delta", [5, 185])
def test_threshold_value_function_overflow_gives_inf(delta):
    # below the threshold the value is a difference of two overflowing
    # powers, which must not come out as inf - inf = nan
    fn = AoiFunction(50.0, 1.0, 0.99)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert threshold_value_function(fn, ThresholdPolicy(190), 0.0, delta) == math.inf


def test_aoi_function_validation():
    with pytest.raises(ValueError):
        AoiFunction(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        AoiFunction(1.5, -1.0, 0.5)
    with pytest.raises(ValueError):
        AoiFunction(1.5, 1.0, 0.0)


class TestWhittleIndex:
    def test_hand_values(self):
        assert whittle_index(AoiFunction(2.0, 1.0, 1.0), 1) == pytest.approx(2.0)
        # first bracket vanishes: 0.5/0.25 - 1/0.5 = 0
        assert whittle_index(AoiFunction(1.5, 2.0, 0.5), 1) == pytest.approx(3.0)
        assert whittle_index(AoiFunction(1.5, 2.0, 0.5), 2) == pytest.approx(9.75)

    def test_monotone_in_aoi(self):
        rng = np.random.default_rng(10)
        done = 0
        while done < 100:
            alpha = rng.uniform(1.02, 2.5)
            p = rng.uniform(0.3, 1.0)
            if alpha * (1 - p) >= 0.98:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.05, 10.0), p)
            w = [whittle_index(fn, d) for d in range(1, 31)]
            assert all(w[i + 1] > w[i] for i in range(len(w) - 1))
            done += 1

    def test_positive_from_its_first_aoi(self):
        # W(1) = beta p alpha (alpha - 1) / (1 - alpha (1 - p)), so the
        # index is positive, and the table rises from there, down to
        # alpha - 1 = 1e-12 (alpha (1 - p) <= 0.95): both sweeps of sorted
        # kinks put price 0 first
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = 1.0 + 10.0 ** rng.uniform(-12.0, math.log10(2.0))
            p = rng.uniform(max(0.3, 1.0 - 0.95 / a), 1.0)
            fn = AoiFunction(a, 10.0 ** rng.uniform(-3.0, 6.0), p)
            w1 = fn.beta * p * a * (a - 1.0) / (1.0 - a * (1.0 - p))
            assert whittle_index(fn, 1) == pytest.approx(w1, rel=1e-13)
            tab = whittle_index_table(fn, 64)[1:]
            finite = tab[np.isfinite(tab)]
            assert finite[0] > 0.0 and np.all(np.diff(finite) > 0.0), fn

    def test_linear_in_beta(self):
        fn1 = AoiFunction(1.6, 1.0, 0.7)
        fn3 = AoiFunction(1.6, 3.0, 0.7)
        for d in (1, 4, 9):
            assert whittle_index(fn3, d) == pytest.approx(
                3.0 * whittle_index(fn1, d), rel=1e-12
            )

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            whittle_index(AoiFunction(2.0, 1.0, 0.4), 1)

    def test_table_matches_exact_rationals(self):
        # every finite entry over AoI 1..48 is within 1e-13 relative of the
        # closed form in exact rational arithmetic on the same float inputs,
        # from alpha - 1 = 1e-12 up and with beta up to 1e307, and the table
        # is positive and strictly increasing. c = p - (alpha - 1)(1 - p)
        # rounds to about 1e-16 absolute, so alpha (1 - p) stays <= 0.99
        rng = np.random.default_rng(34)
        for _ in range(400):
            a = 1.0 + 10.0 ** rng.uniform(-12.0, math.log10(2.0))
            p = rng.uniform(max(0.05, 1.0 - 0.99 / a), 1.0)
            fn = AoiFunction(a, 10.0 ** rng.uniform(-3.0, 307.0), p)
            tab = whittle_index_table(fn, 48)[1:]
            finite = np.isfinite(tab)
            assert np.all(tab[finite] > 0.0) and np.all(np.diff(tab[finite]) > 0.0), fn
            for got, want in zip(tab[finite].tolist(), _exact_index(fn, 48)):
                assert abs(got - float(want)) <= 1e-13 * float(want), fn

    def test_beta_near_float64_limit(self):
        # beta (p / c) B(d) is at most the index, so a finite index reads
        # finite: 1.965e307 at AoI 1, where the expanded closed form
        # overflowed to nan
        a, b, p = 1.27, 5.5e307, 0.87
        w1 = b * p * a * (a - 1.0) / (1.0 - a * (1.0 - p))
        assert whittle_index(AoiFunction(a, b, p), 1) == pytest.approx(w1, rel=1e-13)


def _exact_index(fn, max_delta):
    """The index at AoI 1..max_delta in exact rational arithmetic:
    W(d) = beta p (alpha^(d+1) (p d / c - 1 / (alpha - 1)) + alpha / (alpha - 1)),
    c = 1 - alpha (1 - p)."""
    a, b, p = Fraction(fn.alpha), Fraction(fn.beta), Fraction(fn.p)
    slope, tail = p / (1 - a * (1 - p)), 1 / (a - 1)
    bp, lead = b * p, a * tail
    out, power = [], a
    for d in range(1, max_delta + 1):
        power *= a
        out.append(bp * (power * (slope * d - tail) + lead))
    return out


def _rvi_reference(costs, p, w):
    """Damped relative value iteration on the oracle's truncated AoI chain.

    An independent solver of the chain that ``_optimal_values`` solves
    exactly: it iterates (1 - tau) V + tau T V, whose fixed point is the
    same bias but which also converges when the chain is periodic (p = 1),
    normalizes v[0] = 0, and stops once every state's update is below
    1e-10 of that state's scale c(s) + |w|.
    """
    tau = 0.9
    k = costs.shape[0]
    nxt = np.minimum(np.arange(1, k + 1), k - 1)
    inv_scale = 1.0 / np.maximum(costs + abs(w), np.finfo(float).tiny)
    v = np.zeros(k)
    for _ in range(100_000):
        vnext = v[nxt]
        active = costs + w + p * v[0] + (1.0 - p) * vnext
        passive = costs + vnext
        vnew = (1.0 - tau) * v + tau * np.minimum(active, passive)
        vnew -= vnew[0]
        if float(np.max(np.abs(vnew - v) * inv_scale)) < 1e-10:
            return vnew
        v = vnew
    raise AssertionError("reference value iteration did not converge")


# Tolerances, fixed from the reference's stop rule: it stops once every
# state's last damped update is below 1e-10 of c(s) + |w|. Its slowest mode
# (the period-K cycle at p = 1) shrinks by about 1 - 1.8 / K^2 per sweep, so
# what is left is at most ~0.56 K^2 = 900 times the last update at K = 40:
# 1e-7 of the scale, taken as 1e-6.
_REF_K = 40
_VALUE_RTOL = 1e-6
_INDEX_RTOL = 1e-6


def _c01_grid():
    """The (AoI function, AoI) pairs of acceptance criterion C01, in its order."""
    rng = np.random.default_rng(101)
    grid = []
    while len(grid) < 100:
        alpha, p = rng.uniform(1.05, 2.0), rng.uniform(0.5, 1.0)
        if alpha * (1 - p) < 0.95:
            fn = AoiFunction(alpha, rng.uniform(0.1, 5.0), p)
            grid.append((fn, int(rng.integers(1, 11))))
    return grid


def _oracle_cases():
    """(costs, p, AoI, hint): the C01 grid and 40 VoI trace-cost indexes.

    The trace tables and hints are those VoiWhittlePolicy builds at cap 20
    for a two-sensor ensemble.
    """
    cases = [(aoi_cost_table(fn.alpha, fn.beta, _ORACLE_DELTA_MAX)[1:], fn.p, d,
              whittle_index(fn, d)) for fn, d in _c01_grid()]
    for pl in generate_ensemble(2, 3, 3, (1.05, 1.3), seed=40, p_range=(0.8, 1.0)):
        costs = error_trace_table(pl, steady_state_filter(pl), 20 + _VOI_TAIL)[1:]
        cases += [(costs, pl.p, d, pl.p * costs[d]) for d in range(1, 21)]
    return cases


class TestWhittleOracle:
    def test_deterministic_channel(self):
        fn = AoiFunction(2.0, 1.0, 1.0)
        assert whittle_index_numeric(fn, 1) == pytest.approx(2.0, rel=1e-6)

    def test_half_channel(self):
        fn = AoiFunction(1.5, 2.0, 0.5)
        assert whittle_index_numeric(fn, 1) == pytest.approx(3.0, rel=1e-6)

    def test_small_grid(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 10:
            alpha = rng.uniform(1.05, 2.0)
            p = rng.uniform(0.5, 1.0)
            if alpha * (1 - p) >= 0.95:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.2, 5.0), p)
            d = int(rng.integers(1, 11))
            cf = whittle_index(fn, d)
            assert whittle_index_numeric(fn, d) == pytest.approx(cf, rel=1e-5)
            done += 1

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_matches_value_iteration_reference(self, p):
        # p = 1 makes every threshold policy's chain periodic
        costs = 1.25 ** np.arange(1, _REF_K + 1)
        costs /= costs[-1]
        active = []
        for w in (-0.01, 1e-3, 3e-2, 0.3, 100.0):
            h, act = _optimal_values(costs, p, w, np.ones(_REF_K, dtype=bool))
            active.append(int(act.sum()))
            ref = _rvi_reference(costs, p, w)
            assert np.all(np.abs(h - ref) <= _VALUE_RTOL * (costs + abs(w)))
        # the prices span transmit-always, three thresholds and never-transmit
        assert active[0] == _REF_K and active[-1] == 0
        assert all(0 < n < _REF_K for n in active[1:-1])
        for delta in (1, 10, 25, _REF_K - 1):
            w = numeric_whittle_index(costs, p, delta)
            # the reference's active-minus-passive gap at `delta` changes
            # sign inside [w - tol, w + tol]: its own index lies there
            gaps = []
            for price in (w - _INDEX_RTOL * abs(w), w + _INDEX_RTOL * abs(w)):
                v = _rvi_reference(costs, p, price)
                gaps.append(price - p * (v[delta] - v[0]))
            assert gaps[0] < 0.0 < gaps[1], (delta, w, gaps)

    def test_near_cap_probe(self):
        # the figure is the value-iteration reference's index, which takes
        # seconds here: the tie sits 9 states below the cap at p = 0.3
        costs = 1.2 ** np.arange(1, 80)
        assert numeric_whittle_index(costs, 0.3, 70) == pytest.approx(
            13950095.253608381, rel=1e-8)

    def test_multichain_policy_rejected(self):
        # decreasing costs at p = 1: improvement reaches a policy that
        # transmits at AoI 1 and idles at the cheap absorbing top state
        with pytest.raises(OracleError):
            numeric_whittle_index(np.array([0.67, 0.65, 0.62]), 1.0, 1)

    def test_negative_costs_rejected_before_any_solve(self, monkeypatch):
        # the oracle's domain is a nonnegative table; a mixed-sign one fails
        # fast, naming its first negative AoI
        monkeypatch.setattr(aoi, "_optimal_values",
                            lambda *a: pytest.fail("solved a chain outside the domain"))
        costs = np.array([0.5, 1.0, -0.2, 2.0, -1.0])
        for p in (0.5, 1.0):
            with pytest.raises(OracleError, match="negative at AoI 3; costs must be nonnegative"):
                numeric_whittle_index(costs, p, 1)

    @pytest.mark.parametrize("delta, index", [(1, 0.375), (2, 1.5)])
    def test_zero_cost_probed_state(self, delta, index):
        # the probed state's own cost is zero, so it cannot scale the search
        costs = np.array([0.0, 0.0, 1.0, 2.0])
        w = numeric_whittle_index(costs, 0.5, delta)
        assert w == pytest.approx(index, rel=1e-12)
        gaps = []
        for price in (w * (1 - _INDEX_RTOL), w * (1 + _INDEX_RTOL)):
            v = _rvi_reference(costs, 0.5, price)
            gaps.append(price - 0.5 * (v[delta] - v[0]))
        assert gaps[0] < 0.0 < gaps[1], gaps

    def test_tie_price_settles(self):
        # a probe exactly at the index ties the policies that transmit from
        # AoI delta and from delta + 1; rounding can rank each above the
        # other, and policy iteration must still settle there
        for costs, p, d, hint in _oracle_cases():
            scale = float(np.max(np.abs(costs)))
            w = numeric_whittle_index(costs, p, d, bracket_hint=hint) / scale
            k = costs.shape[0]
            starts = [np.ones(k, dtype=bool), np.arange(k) >= d - 1, np.arange(k) >= d]
            for act in starts:
                _, found = _optimal_values(costs / scale, p, w, act)
                _optimal_values(costs / scale, p, w, found)

    def test_chain_solves_per_index(self, monkeypatch):
        # Newton steps on the affine advantage take a handful of exact chain
        # solves per index; bisection to 1e-8 took about 57
        calls = []
        solve = aoi._policy_values
        monkeypatch.setattr(aoi, "_policy_values", lambda *a: calls.append(1) or solve(*a))
        grid = _c01_grid()
        for fn, d in grid:
            whittle_index_numeric(fn, d)
        assert len(calls) <= 10 * len(grid), len(calls) / len(grid)

    def test_returned_index_is_certified(self, monkeypatch):
        # the last two exact solves sit just below and just above the
        # returned index, a relative _ORACLE_REL_TOL = 1e-8 apart
        prices = []
        solve = aoi._optimal_values
        monkeypatch.setattr(aoi, "_optimal_values",
                            lambda c, p, w, act: prices.append(w) or solve(c, p, w, act))
        for costs, p, d, hint in _oracle_cases()[::7]:
            w = numeric_whittle_index(costs, p, d, bracket_hint=hint) / np.max(np.abs(costs))
            below, above = prices[-2:]
            assert below < w < above, (d, below, w, above)
            assert above - below == pytest.approx(1e-8 * abs(w), rel=1e-6)

    def test_hint_only_picks_the_start(self):
        for costs, p, d, hint in _oracle_cases():
            w = numeric_whittle_index(costs, p, d, bracket_hint=hint)
            for other in (0.1 * hint, 10.0 * hint, None):
                got = numeric_whittle_index(costs, p, d, bracket_hint=other)
                assert got == pytest.approx(w, rel=1e-10), (d, other)

    @pytest.mark.parametrize("costs, p, delta, index", [
        # without a hint, a Newton step leaves the bracket while it is open,
        # which widens it, and later steps leave the closed bracket
        ([0.4, 4.1, 0.2, 0.8, 6.4, 4.4, 0.9], 0.89, 1, 0.445),
        # from every hint, a Newton step leaves the closed bracket
        ([7.9, 5.1, 7.3, 2.3, 2.0, 3.6, 1.8], 0.41, 4, -4.126338195),
    ])
    def test_fallback_steps_find_the_bisection_root(self, costs, p, delta, index):
        # non-monotone costs, where Newton steps on the advantage overshoot;
        # the root is the one a plain bisection on the advantage finds
        costs = np.array(costs)
        start = np.arange(costs.shape[0]) >= delta - 1

        def advantage(w):
            v, _ = _optimal_values(costs, p, w, start)
            return w - p * (v[delta] - v[0])

        lo, hi = -100.0, 100.0
        assert advantage(lo) < 0.0 < advantage(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if advantage(mid) < 0.0 else (lo, mid)
        assert lo == pytest.approx(index, rel=1e-9)
        for hint in (None, -8.5, 0.0, 20.0):
            got = numeric_whittle_index(costs, p, delta, bracket_hint=hint)
            assert got == pytest.approx(lo, rel=1e-9), hint


@settings(max_examples=60)
@given(alpha=st.floats(1.01, 2.5), rate=st.floats(0.0, 0.9), beta=st.floats(0.01, 100.0),
       delta=st.integers(1, 15))
def test_oracle_matches_closed_form(alpha, rate, beta, delta):
    # rate = alpha (1 - p) <= 0.9 keeps what the chain's truncation at AoI
    # 400 drops below (0.9)^385, far under the tolerance
    fn = AoiFunction(alpha, beta, 1.0 - rate / alpha)
    assert whittle_index_numeric(fn, delta) == pytest.approx(whittle_index(fn, delta), rel=1e-10)


class TestThresholdAverageCost:
    def test_always_transmit_deterministic(self):
        fn = AoiFunction(2.0, 1.0, 1.0)
        theta = threshold_average_cost(fn, ThresholdPolicy(1), 0.0)
        assert theta == pytest.approx(2.0)

    def test_matches_stationary_distribution(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha = rng.uniform(1.05, 1.8)
            p = rng.uniform(0.5, 1.0)
            if alpha * (1 - p) >= 0.9:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.2, 3.0), p)
            dth = int(rng.integers(1, 8))
            w = rng.uniform(-1.0, 5.0)
            cap = 300
            psi, tail = stationary_aoi_distribution(p, ThresholdPolicy(dth), cap)
            d = np.arange(1, cap + 1, dtype=float)
            oracle = float(np.sum(psi[1:] * fn.beta * fn.alpha**d))
            oracle += w * threshold_transmission_rate(p, ThresholdPolicy(dth))
            # remaining mass decays like (alpha (1-p))^k; negligible here
            assert tail * fn.beta * fn.alpha**cap < 1e-6
            got = threshold_average_cost(fn, ThresholdPolicy(dth), w)
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_tie_at_whittle_index(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            alpha = rng.uniform(1.05, 2.0)
            p = rng.uniform(0.4, 1.0)
            if alpha * (1 - p) >= 0.95:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.1, 5.0), p)
            d = int(rng.integers(1, 12))
            w = whittle_index(fn, d)
            t1 = threshold_average_cost(fn, ThresholdPolicy(d), w)
            t2 = threshold_average_cost(fn, ThresholdPolicy(d + 1), w)
            assert t2 == pytest.approx(t1, rel=1e-9)


class TestThresholdValueFunction:
    @pytest.mark.parametrize("alpha,beta,p,dth", [
        (1.44, 1.0, 0.9, 3),
        (1.8, 0.5, 0.75, 5),
        (2.0, 1.0, 1.0, 1),
        (1.2, 2.0, 0.6, 8),
    ])
    def test_normalization_monotonicity_bellman(self, alpha, beta, p, dth):
        fn = AoiFunction(alpha, beta, p)
        tp = ThresholdPolicy(dth)
        w = whittle_index(fn, dth)
        v = [threshold_value_function(fn, tp, w, d) for d in range(1, 52)]
        assert abs(v[0]) < 1e-10
        assert all(v[i + 1] > v[i] for i in range(len(v) - 1))
        theta = threshold_average_cost(fn, tp, w)
        for d in range(1, 50):
            lhs = v[d - 1] + theta
            cost = beta * alpha**d
            q_idle = cost + v[d]
            q_send = cost + w + p * v[0] + (1 - p) * v[d]
            assert lhs == pytest.approx(min(q_idle, q_send), rel=1e-8, abs=1e-8)


class TestStationaryDistribution:
    def test_deterministic_reset(self):
        psi, tail = stationary_aoi_distribution(1.0, ThresholdPolicy(1), 10)
        assert psi[1] == pytest.approx(1.0)
        assert np.all(psi[2:] == 0.0)
        assert tail == 0.0

    def test_hand_values(self):
        psi, _ = stationary_aoi_distribution(0.5, ThresholdPolicy(2), 6)
        assert psi[1] == pytest.approx(1 / 3)
        assert psi[2] == pytest.approx(1 / 3)
        assert psi[3] == pytest.approx(1 / 6)
        assert psi[4] == pytest.approx(1 / 12)

    def test_normalizes_with_tail(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = rng.uniform(0.05, 1.0)
            dth = int(rng.integers(1, 20))
            cap = dth + int(rng.integers(0, 40))
            psi, tail = stationary_aoi_distribution(p, ThresholdPolicy(dth), cap)
            assert psi[1:].sum() + tail == pytest.approx(1.0, abs=1e-10)

    def test_matches_quotient_form_to_one_rounding(self):
        # the law is built as p * rate with rate from the transmission-rate
        # closed form; the direct quotient p / (1 + p (dth - 1)) differs from
        # it by at most one double-precision epsilon, relative
        eps = np.finfo(float).eps
        for p in np.linspace(0.01, 1.0, 100):
            for dth in range(1, 31):
                cap = dth + 40
                psi, tail = stationary_aoi_distribution(p, ThresholdPolicy(dth), cap)
                denom = 1.0 + p * (dth - 1)
                d = np.arange(1, cap + 1)
                old = np.where(d < dth, p / denom,
                               p * (1.0 - p) ** np.maximum(d - dth, 0) / denom)
                old_tail = (1.0 - p) ** (cap + 1 - dth) / denom
                assert np.all(np.abs(psi[1:] - old) <= eps * np.abs(old))
                assert abs(tail - old_tail) <= eps * abs(old_tail)


class TestTransmissionRate:
    def test_always(self):
        # exactly 1 at every p: 1 + p (1 - 1) has no rounding, where
        # 1 * p + 1 - p rounds below 1 for about a fifth of these p
        for p in np.arange(10, 1001) / 1000:
            assert threshold_transmission_rate(p, ThresholdPolicy(1)) == 1.0, p

    def test_hand_value(self):
        assert threshold_transmission_rate(0.5, ThresholdPolicy(2)) == pytest.approx(2 / 3)

    def test_empirical_frequency(self):
        # vectorized threshold-policy chains: 1000 chains x 1100 steps
        p, dth = 0.7, 3
        rng = np.random.default_rng(15)
        chains, steps, warm = 1000, 1100, 100
        delta = np.ones(chains, dtype=np.int64)
        attempts = 0
        for t in range(steps):
            send = delta >= dth
            ok = send & (rng.random(chains) < p)
            if t >= warm:
                attempts += int(send.sum())
            delta = np.where(ok, 1, delta + 1)
        rate = attempts / (chains * (steps - warm))
        expect = threshold_transmission_rate(p, ThresholdPolicy(dth))
        assert rate == pytest.approx(expect, abs=0.003)
