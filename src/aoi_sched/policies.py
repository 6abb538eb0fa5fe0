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


def _top_m_mask(scores: np.ndarray, m: int, neg: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the m largest scores per row, in O(N) per row.

    Ranks as a stable descending sort would: equal scores go to the lowest
    index, and NaN ranks below every number (NaN ties NaN). Scores are
    float64 or int64; ``neg``, if given, is scratch of their shape and
    dtype. The mask is always a new array.
    """
    # partition puts NaN last, so the m-th entry ranks NaN last
    neg = -scores if neg is None else np.negative(scores, out=neg)
    neg.partition(m - 1, axis=1)
    kth = -neg[:, m - 1, None]  # NaN only where a row holds fewer than m numbers
    mask = scores >= kth
    hole = np.isnan(kth)
    if np.count_nonzero(mask) == m * len(mask) and not np.count_nonzero(hole):
        return mask
    tie = scores == kth
    above = np.logical_xor(mask, tie, out=mask)
    if np.count_nonzero(hole):
        above |= hole & ~np.isnan(scores)
        tie |= hole & np.isnan(scores)
    free = m - np.count_nonzero(above, axis=1, keepdims=True)
    # each tie's rank in its row, counted in place in the (8-byte) array
    # that held -scores: a casting cumsum would copy the whole matrix
    ranks = neg.view(np.int64)
    np.copyto(ranks, tie)
    tie &= np.cumsum(ranks, axis=1, out=ranks) <= free
    above |= tie
    return above


class Policy:
    """Uniform decision interface; subclasses fill in ``decide_batch``."""

    name = "policy"
    _scratch: list[np.ndarray] | None = None  # a clone's reusable (b, n) pair

    def __init__(self, n: int, m: int):
        if not (1 <= m <= n):
            raise ValueError(f"budget m={m} outside 1..{n}")
        self.n = n
        self.m = m
        self.rng: np.random.Generator | None = None

    def _buffers(self, shape, dtype=np.float64) -> tuple[np.ndarray | None, ...]:
        """A clone's two (b, n) scratch arrays, viewed as an 8-byte ``dtype``;
        (None, None) on a policy called directly, which allocates per call."""
        if self._scratch is None:
            return None, None
        if not self._scratch or self._scratch[0].shape != shape:
            self._scratch = [np.empty(shape), np.empty(shape)]
        return self._scratch[0].view(dtype), self._scratch[1].view(dtype)

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

    def clone(self, scratch=()) -> "Policy":
        """Shallow copy for one worker thread; shares immutable tables.

        ``decide_batch`` reuses one pair of 8-byte (b, n) scratch arrays on
        a clone: ``scratch`` lends such a pair, which the caller may use
        between decisions; without it the clone makes its own.
        """
        dup = copy.copy(self)
        dup.reset()
        dup._scratch = list(scratch)
        return dup


class _ScoreTablePolicy(Policy):
    """Top-M selection by a per-sensor score looked up from an AoI table."""

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        # (n, cap+1) table, its flat view and the offsets of its rows there,
        # in one slot all clones share, built once per run, not per block;
        # threads growing it at once only repeat work, since the contents
        # are deterministic
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [None]

    def _build_tables(self, max_delta: int) -> np.ndarray:
        raise NotImplementedError

    def _scores(self, deltas: np.ndarray, out=None, index=None) -> np.ndarray:
        """Score of each (run, sensor); ``out`` (float64) and ``index``
        (int64) are optional (b, n) scratch for the scores and the gather."""
        dmax = int(deltas.max())
        slot = self._tables[0]
        if slot is None or slot[0].shape[1] <= dmax:
            table = self._build_tables(max(64, 2 * dmax))
            slot = self._tables[0] = (table, table.ravel(),
                                      np.arange(self.n) * table.shape[1])
        _, flat, offsets = slot
        # the table covers every AoI asked for, so no index is clipped
        index = np.add(deltas, offsets, out=index, dtype=np.int64)  # any int AoI
        return flat.take(index, out=out, mode="clip")

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        scores, neg = self._buffers(deltas.shape)
        index = None if neg is None else neg.view(np.int64)
        return _top_m_mask(self._scores(deltas, scores, index), self.m, neg)


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

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        self._order = np.arange(n)

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        # the key n * delta - i is unique in its row and ranks the older
        # sensor first, then the lower index: no ties to break
        key, neg = self._buffers(deltas.shape, np.int64)
        key = np.multiply(deltas, self.n, out=key, dtype=np.int64)
        key -= self._order
        return _top_m_mask(key, self.m, neg)


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
    from the certified Newton / policy-iteration oracle, filled into a table over
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
        self._table = np.full((self.n, delta_cap + 1), np.nan)  # clones share it

    def _scores(self, deltas: np.ndarray, out=None, index=None) -> np.ndarray:
        cap, table = self.delta_cap, self._table
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
    span: float  # of the bracket min/max(T h - h); of the residual when evaluating
    sweeps: int  # kernel applications: gather products plus Bellman sweeps


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


_DP_TOL = 1e-9  # span of the Bellman bracket at which the DP stops
_DP_LOOSE_TOL = 1e-2  # residual span of evaluations between improvements
_DP_MAX_KERNELS = 10_000  # gather products plus Bellman sweeps per solve
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


def _policy_product(
    shape: tuple[int, ...], subsets: list[tuple[int, ...]], probs: np.ndarray,
    action_table: np.ndarray,
):
    """Product ``v -> P v`` with a fixed policy's transition matrix, plus the
    state order it works in (position -> flat state).

    Values live on the states ordered by action (a stable sort), so each
    subset's states form one slice. Per subset, one index row per
    success/failure pattern holds every state's successor position, with the
    pattern's probability as its one weight; a product is then ``sum_k w_k *
    v[rows_k]`` per slice.
    """
    cap = shape[0]
    order = np.argsort(action_table, kind="stable")
    pos = np.empty(order.size, dtype=np.intp)  # intp rows gather without a cast
    pos[order] = np.arange(order.size)
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

    def product(v: np.ndarray) -> np.ndarray:
        pv = np.empty_like(v)
        for part, rows, weights in groups:
            acc = pv[part]
            np.multiply(v[rows[0]], weights[0], out=acc)
            for row, w in zip(rows[1:], weights[1:]):
                term = v[row]
                term *= w
                acc += term
        return pv

    return product, order


def _bicgstab(apply, b: np.ndarray, x: np.ndarray, tol: float, left) -> tuple:
    """Solve ``apply(x) = b`` by BiCGSTAB (van der Vorst 1992) until the span
    of the true residual ``b - apply(x)`` is below ``tol``.

    The recursive residual only triggers a check: the true residual is then
    recomputed, and the iteration restarts from the current ``x`` if it
    misses the tolerance, as it also does on breakdown or on a non-finite
    iterate. A restart whose true residual is no better than the last one's
    would repeat itself, so it raises, as does running out of ``left()``,
    the kernel applications still allowed (one is kept for the last
    residual). Returns ``x`` and its true residual.
    """
    best = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> restart
        while True:
            r = b - apply(x)
            span = float(np.ptp(r))
            if span < tol:
                return x, r
            if not span < best or left() < 3:
                shown = span if span < best else best  # best when span is NaN
                raise ConvergenceError(
                    f"joint-chain DP stopped after {_DP_MAX_KERNELS - left()} of "
                    f"at most {_DP_MAX_KERNELS} kernel applications: true residual "
                    f"span {shown:.3g} is still above the tolerance {tol:g}"
                )
            best = span
            r0, p = r.copy(), r.copy()
            rho = float(np.dot(r0, r))
            while left() >= 3 and rho != 0.0:
                v = apply(p)
                r0v = float(np.dot(r0, v))
                if r0v == 0.0:
                    break
                alpha = rho / r0v
                x += alpha * p
                r -= alpha * v
                if not np.ptp(r) >= tol:
                    break
                t = apply(r)
                tt = float(np.dot(t, t))
                omega = float(np.dot(t, r)) / tt if tt else 0.0
                if omega == 0.0:
                    break
                x += omega * r
                r -= omega * t
                if not np.ptp(r) >= tol:
                    break
                rho_next = float(np.dot(r0, r))
                p -= omega * v
                p *= (rho_next / rho) * (alpha / omega)
                p += r
                rho = rho_next


def joint_value_iteration(
    cost_tables: list[np.ndarray],
    probs,
    m: int,
    action_table: np.ndarray | None = None,
) -> DpSolution:
    """Average-cost policy iteration on the joint AoI chain (Puterman 1994,
    section 8.6).

    Each cost table holds AoI 0..cap (slot 0 unused) and AoI saturates at
    that cap. A policy is evaluated by solving the unichain equations ``h +
    g - P h = c`` with ``h(1,...,1) = 0`` by BiCGSTAB, whose product ``P h``
    gathers each state's 2^M successor values through precomputed index
    rows. The solve stops once the span of its true residual, ``T_pi h - h
    - g``, is below the tolerance, and ``g`` plus the residual's midpoint is
    the policy's average cost. Evaluating a fixed ``action_table`` is that
    one solve, to ``_DP_TOL``.

    Without ``action_table``, policy iteration starts from the myopic table
    and improves it by one Bellman sweep on ``h``: the sweep computes ``cost
    + E[V(next)]`` for every schedule-exactly-M subset, sharing the partial
    expectation of each active/passive prefix across subsets. A state
    switches only if its best subset beats its current one by more than
    ``0.1 * _DP_TOL``. Policies are evaluated to a residual span of
    ``_DP_LOOSE_TOL`` until no state switches, then to ``_DP_TOL``. The
    result comes from the last sweep: its argmin (ties keep the earliest
    subset), and the midpoint and span of the bracket ``min/max(T h - h)``
    of the optimal average cost, which must be below ``_DP_TOL``.

    ``sweeps`` counts kernel applications (gather products plus Bellman
    sweeps), at most ``_DP_MAX_KERNELS``. A policy whose chain has more
    than one closed class makes the equations singular: its solve raises
    ``ConvergenceError``, naming the residual span, once a restart no
    longer lowers that span or the budget is spent.
    """
    probs = np.asarray(probs, dtype=float)
    n = len(cost_tables)
    cap = len(cost_tables[0]) - 1
    _check_size(n, m, cap)
    subsets = list(itertools.combinations(range(n), m))
    cost = _joint_cost_tensor(cost_tables, cap)
    used = 0

    def left() -> int:
        return _DP_MAX_KERNELS - used

    def evaluate(table: np.ndarray, x: np.ndarray, tol: float):
        # x holds h on the flat states, except at AoI (1,...,1), flat
        # state 0, where h is 0 and x carries the gain g
        product, order = _policy_product(cost.shape, subsets, probs, table)
        origin = int(np.flatnonzero(order == 0)[0])

        def apply(y: np.ndarray) -> np.ndarray:
            nonlocal used
            used += 1
            h = y.copy()
            h[origin] = 0.0
            out = h - product(h)
            out += y[origin]
            return out

        x, r = _bicgstab(apply, cost.ravel()[order], x[order], tol, left)
        out_x, out_r = np.empty_like(x), np.empty_like(r)
        out_x[order], out_r[order] = x, r
        return out_x, out_r

    if action_table is not None:
        table = np.asarray(action_table).reshape(cost.size)
        x, r = evaluate(table, np.zeros(cost.size), _DP_TOL)
        lo, hi = float(r.min()), float(r.max())
        return DpSolution(action_table=table, subsets=subsets,
                          average_cost=float(x[0]) + 0.5 * (lo + hi), delta_cap=cap,
                          n=n, span=hi - lo, sweeps=used)
    bellman = _optimal_sweep(cost, probs, m)
    table = bellman(cost)[1]
    used = 1
    x, tol = np.zeros(cost.size), _DP_LOOSE_TOL
    while True:
        x, r = evaluate(table, x, tol)
        h = x.copy()
        h[0] = 0.0
        tv, best = bellman(h.reshape(cost.shape))
        used += 1
        tv = tv.ravel()
        switch = tv < r + h + x[0] - 0.1 * _DP_TOL  # r + h + g = cost + P h
        if switch.any():
            table = np.where(switch, best, table)
            continue
        gap = tv - h
        lo, hi = float(gap.min()), float(gap.max())
        if hi - lo < _DP_TOL:
            return DpSolution(action_table=best, subsets=subsets,
                              average_cost=0.5 * (lo + hi), delta_cap=cap, n=n,
                              span=hi - lo, sweeps=used)
        if tol < _DP_TOL:
            raise ConvergenceError(
                f"joint-chain DP: Bellman bracket span {hi - lo:.3g} is above "
                f"the tolerance {_DP_TOL:g} after an evaluation to {tol:g}"
            )
        tol = _DP_TOL if tol > _DP_TOL else 0.1 * _DP_TOL


def dp_optimal_policy(
    plants: list[PlantModel],
    m: int,
    delta_cap: int,
    filters: list[SteadyStateFilter],
    cost: str = "aoi-function",
) -> DpSolution:
    """Optimal scheduler of the truncated joint chain plus its average cost.

    ``cost`` is a metric of :func:`metric_cost_tables`, as simulations report
    it. At most ``_STATE_BUDGET`` states, solved by policy iteration to a
    Bellman bracket below ``_DP_TOL`` in at most ``_DP_MAX_KERNELS`` kernel
    applications.
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
    larger, up to the DP tolerance ``_DP_TOL``). Sizes are checked before
    the policy decides on every joint state. A policy whose chain has more
    than one closed class has no single average cost: the evaluation then
    raises ``ConvergenceError`` with its residual span.
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


_FLAGS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

# CLI policy option -> (kind that reads it, PolicySpec field, parser of its value)
_POLICY_OPTIONS = {
    "cap": ("dp", "delta_cap", int),
    "cost": ("dp", "dp_cost", str.strip),
    "voi-cap": ("voi-whittle", "voi_delta_cap", int),
    "cache": ("voi-whittle", "use_cache", lambda val: _FLAGS[val.strip().lower()]),
    "q": ("randomized", "q", lambda val: tuple(float(x) for x in val.split("+"))),
}


def parse_policy(text: str) -> PolicySpec:
    """Parse a CLI policy string, e.g. ``lightweight`` or ``dp:cap=20``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r}")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in _POLICY_OPTIONS:
                raise ValueError(f"unknown policy option {key!r}")
            owner, field, parse = _POLICY_OPTIONS[key]
            if owner != kind:
                raise ValueError(f"policy option {key} is for {owner}, not {kind}")
            try:
                kwargs[field] = parse(val)
            except ValueError:
                raise ValueError(
                    f"policy option {key} wants a number, got {val!r}"
                ) from None
            except KeyError:
                raise ValueError(
                    f"policy option {key} wants one of {'/'.join(_FLAGS)}, got {val!r}"
                ) from None
    return PolicySpec(kind=kind, **kwargs)
