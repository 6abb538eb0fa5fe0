"""Scheduling policies behind one uniform decision interface.

Every policy consumes the current per-sensor AoI vector and returns the set
of sensors granted channel access this step (at most the budget M; exactly
M for the index policies, since costs increase with AoI and idling a slot
never helps). Ties are always broken toward the lowest sensor index so
decision sequences are deterministic and testable.

Batch variants operate on a (runs, N) AoI matrix and return a boolean
schedule mask; the Monte Carlo engine is vectorized across independent
runs through this interface.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .aoi import AoiFunction, aoi_cost_table, numeric_whittle_index, whittle_index_table
from .errors import (
    ConvergenceError,
    FeasibilityError,
    ResourceBudgetError,
    StabilityError,
)
from .plants import (
    CharParams,
    PlantModel,
    SteadyStateFilter,
    characteristic_params,
    error_trace_table,
    prediction_trace_table,
)

POLICY_KINDS = (
    "lightweight",
    "aoi-greedy",
    "voi-greedy",
    "aoi-whittle",
    "voi-whittle",
    "round-robin",
    "randomized",
    "dp",
)
_VOI_TAIL = 200  # AoI steps of trace cost past the voi-whittle cache cutoff
COST_METRICS = ("aoi-function", "trace")  # metrics with an AoI cost table


def metric_cost_tables(
    metric: str,
    plants: list[PlantModel],
    filters: list[SteadyStateFilter],
    char_params: list[CharParams],
    max_delta: int,
) -> list[np.ndarray]:
    """Per-sensor cost of ``metric`` at AoI 0..max_delta (slot 0 unused): the
    AoI cost function, or the prediction-error trace. The covariance
    simulation and the joint-chain DP both read it, so they share one cost.
    """
    if metric == "aoi-function":
        return [aoi_cost_table(cp.alpha, cp.beta, max_delta) for cp in char_params]
    if metric == "trace":
        return [prediction_trace_table(pl, ss, max_delta)
                for pl, ss in zip(plants, filters)]
    raise ValueError(f"metric must be one of {', '.join(COST_METRICS)}, got {metric!r}")


@dataclass(frozen=True)
class Decision:
    """Indices scheduled this step; cardinality never exceeds the budget."""

    scheduled: tuple[int, ...]

    def __contains__(self, i: int) -> bool:
        return i in self.scheduled


def _top_m_mask(scores: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of the m largest scores per row, in O(N) per row.

    Ranks as a stable descending sort would: equal scores go to the lowest
    index, and NaN ranks below every number (NaN ties NaN).
    """
    neg = -scores  # partition puts NaN last, so the m-th entry ranks NaN last
    neg.partition(m - 1, axis=1)
    kth = -neg[:, m - 1, None]  # NaN only where a row holds fewer than m numbers
    mask = scores >= kth
    hole = np.isnan(kth)
    if np.count_nonzero(mask) == m * len(mask) and not np.count_nonzero(hole):
        return mask
    tie = scores == kth
    above = mask ^ tie
    if np.count_nonzero(hole):
        above |= hole & ~np.isnan(scores)
        tie |= hole & np.isnan(scores)
    free = m - np.count_nonzero(above, axis=1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32) <= free))


class Policy:
    """Uniform decision interface; subclasses fill in ``decide_batch``."""

    name = "policy"

    def __init__(self, n: int, m: int):
        if not (1 <= m <= n):
            raise ValueError(f"budget m={m} outside 1..{n}")
        self.n = n
        self.m = m
        self.rng: np.random.Generator | None = None

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decide(self, deltas) -> Decision:
        """Schedule one step from the AoI vector: one positive int per sensor."""
        deltas = np.asarray(deltas)
        if deltas.shape != (self.n,):
            raise ValueError(f"AoI vector must have shape ({self.n},), got {deltas.shape}")
        if deltas.dtype.kind not in "iu" or np.any(deltas < 1):
            raise ValueError(f"AoI values must be positive integers, got {deltas.tolist()}")
        mask = self.decide_batch(deltas[None, :])[0]
        return Decision(scheduled=tuple(int(i) for i in np.flatnonzero(mask)))

    def reset(self) -> None:
        """Clear per-trajectory decision state (cursors); caches persist."""

    def clone(self) -> "Policy":
        """Shallow copy for a parallel worker; shares immutable tables."""
        dup = copy.copy(self)
        dup.reset()
        return dup


class _ScoreTablePolicy(Policy):
    """Top-M selection by a per-sensor score looked up from an AoI table."""

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        # (n, cap+1) table in one slot all clones share, built once per run,
        # not per block; threads growing it at once only repeat work, since
        # the contents are deterministic
        self._tables: list[np.ndarray | None] = [None]

    def _build_tables(self, max_delta: int) -> np.ndarray:
        raise NotImplementedError

    def _scores(self, deltas: np.ndarray) -> np.ndarray:
        dmax = int(deltas.max())
        tables = self._tables[0]
        if tables is None or tables.shape[1] <= dmax:
            tables = self._tables[0] = self._build_tables(max(64, 2 * dmax))
        return tables.T[deltas, np.arange(self.n)[None, :]]

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        return _top_m_mask(self._scores(deltas), self.m)


class LightweightPolicy(_ScoreTablePolicy):
    """Schedule the M sensors with the largest closed-form Whittle indexes.

    Only the scalar characteristic parameters and channel rates enter the
    score, so one decision costs a table lookup plus an O(N) partition.
    Past delta ~ 709 / log alpha the index saturates to ``inf``; saturated
    sensors tie, and ``_top_m_mask`` then takes the lowest index, not the
    oldest sensor.
    """

    name = "lightweight"

    def __init__(self, char_params: list[CharParams], probs, m: int):
        super().__init__(len(char_params), m)
        self.fns = [
            AoiFunction(cp.alpha, cp.beta, float(p))
            for cp, p in zip(char_params, probs)
        ]
        for i, fn in enumerate(self.fns):
            if not fn.stable:
                raise StabilityError(
                    f"sensor {i}: alpha*(1-p) = {fn.alpha * (1 - fn.p):.4g} >= 1"
                )

    def _build_tables(self, max_delta: int) -> np.ndarray:
        # one row per distinct sensor model: AoiFunction hashes by value
        rows = {fn: whittle_index_table(fn, max_delta) for fn in dict.fromkeys(self.fns)}
        return np.vstack([rows[fn] for fn in self.fns])


class AoiGreedyPolicy(Policy):
    """Schedule the M oldest sensors."""

    name = "aoi-greedy"

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        return _top_m_mask(deltas.astype(float), self.m)


class VoiGreedyPolicy(_ScoreTablePolicy):
    """Schedule by expected one-step trace reduction p * (Tr P(d+1) - Tr P(1))."""

    name = "voi-greedy"

    def __init__(self, plants: list[PlantModel], filters: list[SteadyStateFilter], m: int):
        super().__init__(len(plants), m)
        self.plants = plants
        self.filters = filters

    def _build_tables(self, max_delta: int) -> np.ndarray:
        # one row per distinct (plant, filter) object pair; column d holds
        # the score at AoI d (column 0, never read, holds 0)
        rows = {}
        for pl, ss in zip(self.plants, self.filters):
            if (id(pl), id(ss)) not in rows:
                tr = error_trace_table(pl, ss, max_delta + 1)
                rows[id(pl), id(ss)] = pl.p * (tr[1:] - tr[1])
        return np.vstack([rows[id(pl), id(ss)] for pl, ss in zip(self.plants, self.filters)])


class AoiWhittlePolicy(Policy):
    """Whittle index for the plain (linear) AoI cost: p*d*(d + 2/p - 1)/2."""

    name = "aoi-whittle"

    def __init__(self, probs, m: int):
        probs = np.asarray(probs, dtype=float)
        super().__init__(probs.shape[0], m)
        self.probs = probs

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        d = deltas.astype(float)
        p = self.probs[None, :]
        return _top_m_mask(0.5 * p * d * (d + 2.0 / p - 1.0), self.m)


class VoiWhittlePolicy(_ScoreTablePolicy):
    """Numeric Whittle index on the trace-of-covariance cost.

    No closed form exists for this cost, so each (sensor, AoI) index comes
    from the bisection / policy-iteration oracle, filled into a table over
    AoI 1..``delta_cap`` (cap at least 2) the first time a batch needs it.
    Past the cap the index is extrapolated geometrically from the last two
    entries, which preserves the ordering because the index grows with AoI.
    Every block and thread shares the table; ``use_cache=False`` starts each
    decision from an empty one, the online computation that C10 times.
    ``PolicySpec`` holds the defaults of both knobs: cap 40, cache on.
    """

    name = "voi-whittle"

    def __init__(
        self,
        plants: list[PlantModel],
        filters: list[SteadyStateFilter],
        m: int,
        delta_cap: int,
        use_cache: bool,
    ):
        super().__init__(len(plants), m)
        if delta_cap < 2:
            raise ValueError(f"delta_cap={delta_cap} must be at least 2")
        self.delta_cap = delta_cap
        self.use_cache = use_cache
        self.probs = np.array([pl.p for pl in plants])
        self._costs = [
            error_trace_table(pl, ss, delta_cap + _VOI_TAIL)[1:]
            for pl, ss in zip(plants, filters)
        ]
        self._tables[0] = np.full((self.n, delta_cap + 1), np.nan)

    def _scores(self, deltas: np.ndarray) -> np.ndarray:
        cap, table = self.delta_cap, self._tables[0]
        if not self.use_cache:
            table = np.full_like(table, np.nan)
        sensors = np.broadcast_to(np.arange(self.n), deltas.shape)
        clipped = np.minimum(deltas, cap)
        past = np.nonzero(deltas > cap)
        need = np.zeros(table.shape, dtype=bool)
        need[sensors, clipped] = need[past[1], cap - 1] = True
        for i, d in zip(*np.nonzero(need & np.isnan(table))):
            costs, p = self._costs[i], self.probs[i]
            table[i, d] = numeric_whittle_index(costs, p, int(d), bracket_hint=p * costs[d])
        scores = table[sensors, clipped]
        for r, i in zip(*past):  # Python floats: numpy's power can differ in the last bit
            w_hi, w_lo = float(table[i, cap]), float(table[i, cap - 1])
            ratio = w_hi / w_lo if w_lo > 0 and w_hi > w_lo else 2.0
            scores[r, i] = w_hi * ratio ** int(deltas[r, i] - cap)
        return scores


class RoundRobinPolicy(Policy):
    """Cycle through the sensors M at a time."""

    name = "round-robin"

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        self.cursor = 0

    def reset(self) -> None:
        self.cursor = 0

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        idx = (self.cursor + np.arange(self.m)) % self.n
        self.cursor = (self.cursor + self.m) % self.n
        mask = np.zeros((deltas.shape[0], self.n), dtype=bool)
        mask[:, idx] = True
        return mask


class RandomizedStationaryPolicy(Policy):
    """Schedule sensor i with fixed marginal probability q_i each step.

    Realized by systematic sampling over the cumulative marginals: one
    uniform draw places ceil(sum q) unit-spaced points, and sensor i is
    selected when a point lands in its q_i-wide slice. Inclusion marginals
    are exactly q and the drawn subset never exceeds ceil(sum q) <= M.
    """

    name = "randomized"

    def __init__(self, q, m: int):
        q = np.asarray(q, dtype=float)
        super().__init__(q.shape[0], m)
        if np.any(q <= 0.0) or np.any(q > 1.0):
            raise FeasibilityError("marginals must lie in (0, 1]")
        if float(q.sum()) > m + 1e-9:
            raise FeasibilityError(f"sum of marginals {q.sum():.6g} exceeds budget {m}")
        self.q = q
        self.cum = np.cumsum(q)
        self.total = float(self.cum[-1])

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        if self.rng is None:
            raise RuntimeError("randomized policy needs an rng before deciding")
        b = deltas.shape[0]
        u = self.rng.random(b)
        kmax = int(np.ceil(self.total))
        pts = u[:, None] + np.arange(kmax)[None, :]
        valid = pts < self.total
        idx = np.searchsorted(self.cum, pts, side="right")
        mask = np.zeros((b, self.n), dtype=bool)
        rows = np.broadcast_to(np.arange(b)[:, None], pts.shape)
        mask[rows[valid], idx[valid]] = True
        return mask


# ---------------------------------------------------------------------------
# joint-chain dynamic programming (small instances only)
# ---------------------------------------------------------------------------


@dataclass
class DpSolution:
    """Optimal stationary policy of the truncated joint AoI chain."""

    action_table: np.ndarray  # flat state -> index into subsets
    subsets: list[tuple[int, ...]]
    average_cost: float
    delta_cap: int
    n: int
    span: float
    sweeps: int


def _axis_step(w: np.ndarray, axis: int, p: float | None) -> np.ndarray:
    """E over one sensor's next AoI: grow by one, saturating at the cap, or,
    when scheduled (``p`` given), reset to AoI 1 with probability ``p``."""
    lead = (slice(None),) * axis
    grown, last = w[lead + (slice(1, None),)], w[lead + (slice(-1, None),)]
    out = np.concatenate((grown, last), axis=axis)
    if p is not None:
        out *= 1.0 - p
        out += p * w[lead + (slice(0, 1),)]
    return out


def _expected_next_each(w: np.ndarray, probs: np.ndarray, m: int, axis: int = 0):
    """Yield E[V(next state)] for each schedule-m subset, in the order of
    ``itertools.combinations``, each as a fresh array.

    Per-sensor transitions factorize, so the axes are taken in order and the
    partial expectation of each active/passive prefix is computed once and
    shared by every subset that starts with it.
    """
    if axis == w.ndim:
        yield w
        return
    if m > 0:  # scheduled here
        yield from _expected_next_each(
            _axis_step(w, axis, probs[axis]), probs, m - 1, axis + 1)
    if w.ndim - axis > m:  # idle here
        yield from _expected_next_each(_axis_step(w, axis, None), probs, m, axis + 1)


def _joint_cost_tensor(cost_tables: list[np.ndarray], cap: int) -> np.ndarray:
    n = len(cost_tables)
    cost = np.zeros((cap,) * n)
    for i, tab in enumerate(cost_tables):
        shape = [1] * n
        shape[i] = cap
        cost = cost + tab[1 : cap + 1].reshape(shape)
    return cost


_DP_TOL = 1e-9  # span of the value update at which the DP stops
_DP_MAX_SWEEPS = 100_000
_STATE_BUDGET = 2_000_000  # joint states (delta_cap^N) the DP may allocate


def _check_size(n: int, m: int, cap: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"budget m={m} outside 1..{n}")
    if cap < 1:
        raise ValueError(f"delta_cap={cap} must be at least 1")
    if cap**n > _STATE_BUDGET:
        raise ResourceBudgetError(
            f"joint state space {cap}^{n} exceeds budget {_STATE_BUDGET}"
        )


def _optimal_sweep(cost: np.ndarray, probs: np.ndarray, m: int):
    """Bellman sweep ``v -> (min over subsets of cost + E[V(next)], argmin)``."""

    def sweep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        best_arg = np.zeros(v.shape, dtype=np.int16)
        better = np.empty(v.shape, dtype=bool)
        tv = None
        for ai, q in enumerate(_expected_next_each(v, probs, m)):
            q += cost
            if tv is None:
                tv = q
            else:
                np.less(q, tv, out=better)  # strict: ties keep the earliest subset
                np.copyto(tv, q, where=better)
                best_arg[better] = ai
        return tv, best_arg.ravel()

    return sweep


def _policy_sweep(
    cost: np.ndarray, subsets: list[tuple[int, ...]], probs: np.ndarray,
    action_table: np.ndarray,
):
    """Bellman sweep of a fixed policy, plus the position of AoI (1,...,1).

    Values live on the states ordered by action (a stable sort), so each
    subset's states form one slice. Per subset, one int32 row per
    success/failure pattern holds every state's successor position, with the
    pattern's probability as its one weight; a sweep is then ``cost + sum_k
    w_k * v[rows_k]`` per slice.
    """
    shape, cap = cost.shape, cost.shape[0]
    order = np.argsort(action_table, kind="stable")
    pos = np.empty(order.size, dtype=np.int32)
    pos[order] = np.arange(order.size, dtype=np.int32)
    strides = cap ** np.arange(len(shape) - 1, -1, -1)
    groups, lo = [], 0
    for subset, count in zip(subsets, np.bincount(action_table, minlength=len(subsets))):
        coords = np.unravel_index(order[lo : lo + count], shape)
        grown = [np.minimum(c + 1, cap - 1) * st for c, st in zip(coords, strides)]
        all_grown = sum(grown)
        rows, weights = [], []
        for hits in itertools.product((True, False), repeat=len(subset)):
            succ, w = all_grown, 1.0  # reset the AoI of each sensor hit
            for i, hit in zip(subset, hits):
                succ = succ - grown[i] if hit else succ
                w *= probs[i] if hit else 1.0 - probs[i]
            rows.append(pos[succ])
            weights.append(w)
        if count:
            groups.append((slice(lo, lo + count), rows, weights))
        lo += count
    cost = cost.ravel()[order]

    def sweep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tv = np.empty_like(v)
        for part, rows, weights in groups:
            acc = v[rows[0]]
            acc *= weights[0]
            for row, w in zip(rows[1:], weights[1:]):
                term = v[row]
                term *= w
                acc += term
            np.add(cost[part], acc, out=tv[part])
        return tv, action_table

    return sweep, int(pos[0])


def joint_value_iteration(
    cost_tables: list[np.ndarray],
    probs,
    m: int,
    action_table: np.ndarray | None = None,
) -> DpSolution:
    """Relative value iteration on the joint AoI chain.

    Each cost table holds AoI 0..cap (slot 0 unused) and AoI saturates at
    that cap. Without ``action_table`` a sweep computes ``cost +
    E[V(next)]`` for every schedule-exactly-M subset, taking the axes in
    order and sharing the partial expectation of each active/passive prefix
    across subsets, and keeps the running minimum (ties keep the earliest
    subset). To evaluate a fixed ``action_table`` it instead gathers each
    state's 2^M successor values through precomputed index rows, one row
    per success/failure pattern of its subset. Damped updates (tau = 0.9),
    normalised at AoI (1,...,1), stop once their span falls below
    ``_DP_TOL``, which then brackets the average cost.

    Nearly decomposable optimal chains can use up ``_DP_MAX_SWEEPS`` with the
    span above ``_DP_TOL`` (README, numerical notes); the error names both.
    """
    probs = np.asarray(probs, dtype=float)
    n = len(cost_tables)
    cap = len(cost_tables[0]) - 1
    _check_size(n, m, cap)
    subsets = list(itertools.combinations(range(n), m))
    cost = _joint_cost_tensor(cost_tables, cap)
    if action_table is None:
        bellman, origin = _optimal_sweep(cost, probs, m), 0
        v = np.zeros(cost.shape)
    else:
        table = np.asarray(action_table).reshape(cost.size)
        bellman, origin = _policy_sweep(cost, subsets, probs, table)
        v = np.zeros(cost.size)
    tau = 0.9  # damped updates converge on (near-)periodic induced chains
    for sweep in range(1, _DP_MAX_SWEEPS + 1):
        tv, best_arg = bellman(v)
        gain = tv - v
        span = float(gain.max() - gain.min())
        theta = 0.5 * float(gain.max() + gain.min())
        v = (1.0 - tau) * v + tau * tv
        v -= v.flat[origin]
        if span < _DP_TOL:
            return DpSolution(
                action_table=best_arg,
                subsets=subsets,
                average_cost=theta,
                delta_cap=cap,
                n=n,
                span=span,
                sweeps=sweep,
            )
    raise ConvergenceError(
        f"joint value iteration used its budget of {_DP_MAX_SWEEPS} sweeps: "
        f"last span {span:.3g} is still above the tolerance {_DP_TOL:g}"
    )


def dp_optimal_policy(
    plants: list[PlantModel],
    m: int,
    delta_cap: int,
    filters: list[SteadyStateFilter],
    cost: str = "aoi-function",
) -> DpSolution:
    """Optimal scheduler of the truncated joint chain plus its average cost.

    ``cost`` is a metric of :func:`metric_cost_tables`, as simulations report
    it. At most ``_STATE_BUDGET`` states, solved to ``_DP_TOL`` in ``_DP_MAX_SWEEPS``.
    """
    _check_size(len(plants), m, delta_cap)
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
    tables = metric_cost_tables(cost, plants, filters, cps, delta_cap)
    return joint_value_iteration(tables, [pl.p for pl in plants], m)


def policy_action_table(
    policy: Policy, n: int, delta_cap: int, subsets: list[tuple[int, ...]]
) -> np.ndarray:
    """Evaluate a policy on every joint state and encode its chosen subsets."""
    grids = np.indices((delta_cap,) * n).reshape(n, -1).T + 1
    mask = policy.decide_batch(grids.astype(np.int64))
    bits = mask @ (1 << np.arange(n))
    lut = np.full(1 << n, -1, dtype=np.int16)
    for ai, s in enumerate(subsets):
        lut[sum(1 << i for i in s)] = ai
    out = lut[bits]
    if np.any(out < 0):
        raise ValueError("policy returned a subset outside the schedule-M catalogue")
    return out


def evaluate_policy_average_cost(
    policy: Policy,
    plants: list[PlantModel],
    m: int,
    delta_cap: int,
    filters: list[SteadyStateFilter],
    cost: str = "aoi-function",
) -> float:
    """Exact long-run average cost of a policy on the same truncated chain.

    Shares the DP's state space and cost tables, so optimal-policy costs
    from :func:`dp_optimal_policy` are directly comparable (and provably no
    larger, up to the value-iteration tolerance). Sizes are checked before
    the policy decides on every joint state.
    """
    _check_size(len(plants), m, delta_cap)
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
    tables = metric_cost_tables(cost, plants, filters, cps, delta_cap)
    n = len(plants)
    subsets = list(itertools.combinations(range(n), m))
    table = policy_action_table(policy, n, delta_cap, subsets)
    probs = [pl.p for pl in plants]
    return joint_value_iteration(tables, probs, m, action_table=table).average_cost


class DpTablePolicy(Policy):
    """Table lookup into a solved joint-chain policy (AoI clipped at the cap)."""

    name = "dp"

    def __init__(self, solution: DpSolution):
        super().__init__(solution.n, len(solution.subsets[0]))
        self.solution = solution
        self._masks = np.zeros((len(solution.subsets), solution.n), dtype=bool)
        for ai, subset in enumerate(solution.subsets):
            self._masks[ai, list(subset)] = True

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        cap = self.solution.delta_cap
        clipped = np.minimum(deltas, cap) - 1
        flat = np.ravel_multi_index(clipped.T, (cap,) * self.n)
        return self._masks[self.solution.action_table[flat]]


# ---------------------------------------------------------------------------
# policy specification (CLI surface)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """Tagged scheduler choice plus its tuning knobs."""

    kind: str
    q: tuple[float, ...] | None = None  # randomized marginals; None -> optimized
    delta_cap: int = 25  # dp truncation
    voi_delta_cap: int = 40  # voi-whittle index cache cutoff
    dp_cost: str = "aoi-function"
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.delta_cap < 1:
            raise ValueError(
                f"policy option cap must be at least 1, got {self.delta_cap}"
            )
        if self.voi_delta_cap < 2:
            raise ValueError(
                f"policy option voi-cap must be at least 2, got {self.voi_delta_cap}"
            )
        if self.dp_cost not in COST_METRICS:
            raise ValueError(f"policy option cost must be one of "
                             f"{', '.join(COST_METRICS)}, got {self.dp_cost!r}")

    def make(
        self,
        plants: list[PlantModel],
        filters: list[SteadyStateFilter],
        char_params: list[CharParams],
        m: int,
    ) -> Policy:
        probs = [pl.p for pl in plants]
        if self.kind == "lightweight":
            return LightweightPolicy(char_params, probs, m)
        if self.kind == "aoi-greedy":
            return AoiGreedyPolicy(len(plants), m)
        if self.kind == "voi-greedy":
            return VoiGreedyPolicy(plants, filters, m)
        if self.kind == "aoi-whittle":
            return AoiWhittlePolicy(probs, m)
        if self.kind == "voi-whittle":
            return VoiWhittlePolicy(plants, filters, m, self.voi_delta_cap, self.use_cache)
        if self.kind == "round-robin":
            return RoundRobinPolicy(len(plants), m)
        if self.kind == "randomized":
            q = self.q
            if q is None:
                from .bounds import optimize_randomized_q

                alphas = [cp.alpha for cp in char_params]
                betas = [cp.beta for cp in char_params]
                q, _ = optimize_randomized_q(alphas, betas, probs, m)
            return RandomizedStationaryPolicy(np.asarray(q), m)
        if self.kind == "dp":
            sol = dp_optimal_policy(plants, m, self.delta_cap, filters, cost=self.dp_cost)
            return DpTablePolicy(sol)
        raise ValueError(f"unknown policy kind {self.kind!r}")


# CLI policy option -> (PolicySpec field, parser of its value)
_POLICY_OPTIONS = {
    "cap": ("delta_cap", int),
    "voi-cap": ("voi_delta_cap", int),
    "cost": ("dp_cost", str.strip),
    "q": ("q", lambda val: tuple(float(x) for x in val.split("+"))),
    "cache": ("use_cache", lambda val: val.strip().lower() not in ("0", "false", "no")),
}


def parse_policy(text: str) -> PolicySpec:
    """Parse a CLI policy string, e.g. ``lightweight`` or ``dp:cap=20``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in _POLICY_OPTIONS:
                raise ValueError(f"unknown policy option {key!r}")
            field, parse = _POLICY_OPTIONS[key]
            try:
                kwargs[field] = parse(val)
            except ValueError:
                raise ValueError(
                    f"policy option {key} wants a number, got {val!r}"
                ) from None
    return PolicySpec(kind=kind, **kwargs)
