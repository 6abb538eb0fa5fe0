"""The geometric AoI cost, its threshold-policy closed forms, the Whittle index.

The decoupled single-sensor problem charges f(delta) = beta * alpha^delta
per step plus a Lagrangian price W per transmission attempt; its optimal
policy transmits exactly when the AoI reaches a threshold. This module
carries the closed forms derived from that structure (threshold value
function, average cost, attempt rate, Whittle index, stationary AoI
distribution) plus an independent numerical oracle for the index:
bisection over exact policy iteration on the truncated AoI chain.

All operations require alpha * (1 - p) < 1: with a faster divergence rate
than the channel can offset, the geometric series behind every closed form
diverges (and the estimation error is unstable anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, StabilityError

# relative bracket width at which the index oracle's bisection stops
_ORACLE_REL_TOL = 1e-8


@dataclass(frozen=True)
class AoiFunction:
    """Geometric AoI cost beta * alpha^delta with channel success rate p."""

    alpha: float
    beta: float
    p: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0):
            raise ValueError(f"alpha={self.alpha} must exceed 1")
        if not (self.beta > 0.0):
            raise ValueError(f"beta={self.beta} must be positive")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p={self.p} outside (0, 1]")

    @property
    def stable(self) -> bool:
        return self.alpha * (1.0 - self.p) < 1.0


@dataclass(frozen=True)
class ThresholdPolicy:
    """Transmit exactly when the AoI is at or above ``delta_th``."""

    delta_th: int

    def __post_init__(self) -> None:
        if self.delta_th < 1:
            raise ValueError("delta_th must be a positive integer")


def _pow(alpha: float, delta: float) -> float:
    """alpha^delta, or inf where it overflows float64."""
    try:
        return alpha**delta
    except OverflowError:
        return math.inf


def aoi_cost_table(alpha: float, beta: float, max_delta: int) -> np.ndarray:
    """beta * alpha^delta for delta = 0..max_delta: slot 0 zero, overflow inf."""
    with np.errstate(over="ignore"):
        tab = beta * np.power(alpha, np.arange(max_delta + 1, dtype=float))
    tab[0] = 0.0
    return tab


def f_value(fn: AoiFunction, delta: int) -> float:
    """Evaluate the AoI cost beta * alpha^delta."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    return fn.beta * _pow(fn.alpha, delta)


def _require_stable(fn: AoiFunction) -> None:
    if not fn.stable:
        raise StabilityError(
            f"alpha*(1-p) = {fn.alpha * (1.0 - fn.p):.6g} >= 1; "
            "index/value formulas diverge"
        )


def whittle_index(fn: AoiFunction, delta: int) -> float:
    """Closed-form Whittle index of the AoI-cost sensor at AoI ``delta``.

    Strictly increasing in delta (the indexability property); may be
    negative at small delta for weak channels, which is harmless because
    scheduling only compares indexes.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    _require_stable(fn)
    a, b, p = fn.alpha, fn.beta, fn.p
    bracket = p * delta / (1.0 + a * p - a) - 1.0 / (a - 1.0)
    return b * p * _pow(a, delta + 1) * bracket + b * p * a / (a - 1.0)


def whittle_index_table(fn: AoiFunction, max_delta: int) -> np.ndarray:
    """whittle_index for delta = 1..max_delta; index 0 unused (zero)."""
    _require_stable(fn)
    a, b, p = fn.alpha, fn.beta, fn.p
    d = np.arange(max_delta + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = p * d / (1.0 + a * p - a) - 1.0 / (a - 1.0)
        tab = b * p * np.power(a, d + 1.0) * bracket + b * p * a / (a - 1.0)
    tab[0] = 0.0
    return tab


def threshold_average_cost(fn: AoiFunction, tp: ThresholdPolicy, lagrange_w: float) -> float:
    """Long-run average of f(delta) + W * u under a threshold policy.

    Equals the stationary-distribution average sum_d psi(d) f(d) plus W
    times the attempt rate. The middle term carries alpha - 1, not its
    negation: that sign is forced by V(1) = 0 together with the value
    function's below-threshold branch, and is the one that makes adjacent
    thresholds tie exactly at the Whittle index.
    """
    _require_stable(fn)
    a, b, p = fn.alpha, fn.beta, fn.p
    dth = tp.delta_th
    num = (
        lagrange_w
        + p * b * (_pow(a, dth) - a) / (a - 1.0)
        + p * b * _pow(a, dth) / (1.0 - a + p * a)
    )
    return num / (1.0 + p * dth - p)


def threshold_value_function(
    fn: AoiFunction, tp: ThresholdPolicy, lagrange_w: float, delta: int
) -> float:
    """Relative value of AoI ``delta`` under a threshold policy, with V(1) = 0.

    Piecewise: linear-plus-geometric below the threshold, geometric above;
    the two branches are stitched at the threshold so the policy-evaluation
    Bellman equation holds at every state. ``inf`` once the average cost
    overflows, at any AoI.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    _require_stable(fn)
    a, b, p = fn.alpha, fn.beta, fn.p
    dth = tp.delta_th
    theta = threshold_average_cost(fn, tp, lagrange_w)
    if math.isinf(theta):
        return math.inf

    def v_active(d: int) -> float:
        return b * _pow(a, d) / (1.0 - a + p * a) + (lagrange_w - theta) / p

    if delta >= dth:
        return v_active(delta)
    v_res = v_active(dth) - dth * theta
    return b * (_pow(a, dth) - _pow(a, delta)) / (a - 1.0) + delta * theta + v_res


def threshold_transmission_rate(p: float, tp: ThresholdPolicy) -> float:
    """Long-run attempt frequency of a threshold policy: 1 / (dth*p + 1 - p)."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p={p} outside (0, 1]")
    return 1.0 / (tp.delta_th * p + 1.0 - p)


def stationary_aoi_distribution(
    p: float, tp: ThresholdPolicy, delta_cap: int
) -> tuple[np.ndarray, float]:
    """Stationary AoI law of a threshold policy, truncated at ``delta_cap``.

    Returns (psi, tail): psi[d] is the mass at AoI d for d = 1..delta_cap
    (psi[0] unused) and ``tail`` is the analytic mass beyond the cap, so
    psi.sum() + tail == 1 exactly.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p={p} outside (0, 1]")
    dth = tp.delta_th
    if delta_cap < dth:
        raise ValueError("delta_cap must be at least the threshold")
    denom = dth * p + 1.0 - p
    psi = np.zeros(delta_cap + 1)
    d = np.arange(1, delta_cap + 1)
    below = d < dth
    psi[1:][below] = p / denom
    psi[1:][~below] = p * (1.0 - p) ** (d[~below] - dth) / denom
    tail = (1.0 - p) ** (delta_cap + 1 - dth) / denom
    return psi, tail


# ---------------------------------------------------------------------------
# numeric Whittle index oracle (bisection over exact policy iteration)
# ---------------------------------------------------------------------------


def _policy_values(
    costs: list[float], p: float, w: float, act: list[bool]
) -> np.ndarray:
    """Exact relative values of one policy on the truncated AoI chain.

    States are AoI 1..K (cost list indexed from 0); passive ages by one,
    active resets with probability p; the top state self-loops. Solves
    h(s) + theta = c(s) + w a(s) + p a(s) h(1) + (1 - p a(s)) h(s+1) with
    h(1) = 0 in one backward pass from the top: every h(s) is affine in one
    unknown, which h(1) = 0 then fixes. The unknown is the gain theta,
    unless the top state is passive: then it absorbs the chain, theta is its
    cost, and the unknown is h(K). A zero pivot means the policy has more
    than one recurrent class (p = 1, an active state below a passive top),
    where relative values are not defined.
    """
    top = len(costs) - 1
    q = 1.0 - p
    if act[top]:
        theta, slope = 0.0, -1.0
        a, b = (costs[top] + w) / p, -1.0 / p
    else:
        theta, slope = costs[top], 0.0
        a, b = 0.0, 1.0
    av = [0.0] * (top + 1)
    bv = [0.0] * (top + 1)
    av[top], bv[top] = a, b
    for s in range(top - 1, -1, -1):
        if act[s]:
            a = costs[s] + w - theta + q * a
            b = slope + q * b
        else:
            a = costs[s] - theta + a
            b = slope + b
        av[s], bv[s] = a, b
    if b == 0.0:
        raise OracleError("policy has more than one recurrent class")
    h = np.array(av) + np.array(bv) * (-a / b)
    h[0] = 0.0
    return h


def _optimal_values(
    costs: np.ndarray, p: float, w: float, act: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal relative values (and policy) at price ``w``, by policy iteration.

    Starts from the boolean transmit policy ``act`` and alternates exact
    evaluation with improvement until the policy repeats; on a tie between
    the actions a state keeps its current one, which rules out cycling
    between equally good policies.
    """
    k = costs.shape[0]
    nxt = np.minimum(np.arange(1, k + 1), k - 1)
    cost_list = costs.tolist()
    for _ in range(k + 1):
        h = _policy_values(cost_list, p, w, act.tolist())
        # active minus passive Q-value at every state (the cost cancels)
        gap = w + p * (h[0] - h[nxt])
        new = (gap < 0.0) | ((gap == 0.0) & act)
        if np.array_equal(new, act):
            return h, act
        act = new
    raise OracleError(f"policy iteration did not settle in {k + 1} improvements")


def numeric_whittle_index(
    costs: np.ndarray,
    p: float,
    delta: int,
    bracket_hint: float | None = None,
) -> float:
    """Whittle index at state ``delta`` for an arbitrary per-AoI cost table.

    Finds, by bisection, the price at which the active and passive actions
    tie in the truncated average-cost chain; every probe solves that chain
    exactly by policy iteration, warm-started from the previous probe's
    optimal policy. Costs are normalized by their largest entry first (the
    index scales linearly with costs). Independent of any closed form except
    for the optional bracket hint.
    """
    costs = np.asarray(costs, dtype=float)
    k = costs.shape[0]
    if delta < 1 or delta >= k:
        raise ValueError(f"delta={delta} must satisfy 1 <= delta < {k}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p={p} outside (0, 1]")
    if not np.all(np.isfinite(costs)):
        raise OracleError("cost table overflows float64; reduce delta_max")
    scale = float(np.max(np.abs(costs)))
    if scale <= 0.0:
        raise OracleError("cost table is identically zero")
    costs = costs / scale

    # transmitting everywhere has a single recurrent class at any p > 0
    act = np.ones(k, dtype=bool)

    def advantage(w: float) -> float:
        # active-minus-passive value at `delta`; positive means idling wins
        nonlocal act
        v, act = _optimal_values(costs, p, w, act)
        return w - p * (v[delta] - v[0])

    # seed the bracket at the probed state's own cost scale, so that the
    # doubling steps below stay in proportion to the index being sought
    ref = float(costs[delta - 1])
    hint = ref if bracket_hint is None else abs(bracket_hint) / scale
    lo, hi = -hint - ref, 10.0 * hint + ref
    for _ in range(200):
        if advantage(lo) < 0.0:
            break
        lo = 2.0 * lo - ref
    else:
        raise OracleError("failed to bracket the index from below")
    for _ in range(200):
        if advantage(hi) > 0.0:
            break
        hi = 2.0 * hi + ref
    else:
        raise OracleError("failed to bracket the index from above")
    for _ in range(300):
        if hi - lo <= _ORACLE_REL_TOL * max(abs(lo), abs(hi)) or hi - lo <= 1e-14 * ref:
            break
        mid = 0.5 * (lo + hi)
        if advantage(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) * scale


def whittle_index_numeric(fn: AoiFunction, delta: int, delta_max: int = 400) -> float:
    """Policy-iteration oracle for ``whittle_index`` on the AoI-cost chain."""
    _require_stable(fn)
    costs = aoi_cost_table(fn.alpha, fn.beta, delta_max)[1:]
    hint = whittle_index(fn, delta)
    return numeric_whittle_index(costs, fn.p, delta, bracket_hint=hint)
