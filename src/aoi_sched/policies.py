"""Scheduling policies behind one uniform decision interface.

Every policy consumes the current per-sensor AoI vector and returns the set
of sensors granted channel access this step (at most the budget M; exactly
M for the index policies, since costs increase with AoI and idling a slot
never helps). Ties are always broken toward the lowest sensor index so
decision sequences are deterministic and testable.

Every top-M policy selects on an int32 key (int64 if a key passes 2^31 - 1)
that has no ties: AoI-greedy on ``N * delta - i``, the score-table policies
on ``rank * N - i``, where rank is the dense rank of the sensor's score in
the policy's table, ranked once each time the table is built, grown or
written into. A decision is then one partition per row, and the key alone
carries the lowest-index rule.

Batch variants operate on a (runs, N) AoI matrix and return a boolean
schedule mask; the Monte Carlo engine is vectorized across independent
runs through this interface.
"""

from __future__ import annotations

import copy
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .aoi import AoiFunction, numeric_whittle_index, whittle_index_table
from .errors import (
    ConvergenceError,
    FeasibilityError,
    ResourceBudgetError,
    StabilityError,
)
from .plants import (
    COST_METRICS,
    CharParams,
    PlantModel,
    SteadyStateFilter,
    characteristic_params,
    metric_cost_tables,
    trace_tables,
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


@dataclass(frozen=True)
class Decision:
    """Indices scheduled this step; cardinality never exceeds the budget."""

    scheduled: tuple[int, ...]

    def __contains__(self, i: int) -> bool:
        return i in self.scheduled


_KEY32_LIMIT = 2**31  # keys below this bound are int32, larger ones int64


def _view(buf: np.ndarray | None, dtype) -> np.ndarray | None:
    """The leading bytes of 8-byte scratch ``buf`` as a contiguous array of
    ``dtype`` and ``buf``'s shape (None stays None)."""
    if buf is None or buf.dtype == dtype:
        return buf
    return buf.reshape(-1).view(dtype)[:buf.size].reshape(buf.shape)


def _top_m_mask(keys: np.ndarray, m: int, neg: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the m largest keys per row, in O(N) per row.

    Keys are int32 or int64 and distinct within a row (a score-table
    policy's ``rank * N - i``, AoI-greedy's ``N * delta - i``), so exactly m
    are set, with no tie to break. ``neg``, if given, is (b, n) 8-byte
    scratch. The mask is always a new array.
    """
    neg = np.negative(keys, out=_view(neg, keys.dtype))
    neg.partition(m - 1, axis=1)
    return keys >= -neg[:, m - 1, None]


def _rank_keys(rows: np.ndarray, of) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A score-table slot: the float scores ``rows``, the flat key table of
    sensor i of N scored by row ``of[i]``, and the offset of each sensor's
    keys there. A key is ``rank * N - i``, where rank is the dense rank of a
    score among all entries of ``rows`` (equal scores rank equal, NaN below
    every number). Comparing keys ranks sensors as a stable descending sort
    of their scores does: the higher score first, then the lower index.
    """
    _, inverse = np.unique(rows, return_inverse=True)  # ascending; NaN last
    rank = inverse.reshape(rows.shape) + 1
    rank[np.isnan(rows)] = 0
    n = len(of)
    keys = rank[of]
    keys *= n
    keys -= np.arange(n)[:, None]
    if keys.max() < _KEY32_LIMIT:  # every key is at least 1 - n
        keys = keys.astype(np.int32)
    return rows, keys.ravel(), np.arange(n) * rows.shape[1]


class Policy:
    """Uniform decision interface; subclasses fill in ``_keys`` (a top-M
    policy ranked by integer keys) or ``decide_batch`` (any other)."""

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

    def _keys(self, deltas: np.ndarray, out=None, index=None) -> np.ndarray | None:
        """Tie-free int32 or int64 keys of a (b, n) AoI batch or one (n,) vector
        whose M largest per row are the schedule (None: no keys, decide by mask).
        ``out`` (int32 keys fill its leading bytes) and ``index``: int64 scratch."""
        return None

    def decide_batch(self, deltas: np.ndarray) -> np.ndarray:
        keys, scratch = self._buffers(deltas.shape, np.int64)
        return _top_m_mask(self._keys(deltas, keys, scratch), self.m, scratch)

    def decide(self, deltas) -> Decision:
        """Schedule one step from the AoI vector: one positive int per sensor."""
        deltas = np.asarray(deltas)
        if deltas.shape != (self.n,):
            raise ValueError(f"AoI vector must have shape ({self.n},), got {deltas.shape}")
        if deltas.dtype.kind not in "iu" or deltas.min() < 1:
            raise ValueError(f"AoI values must be positive integers, got {deltas.tolist()}")
        keys = self._keys(deltas)
        if keys is None:
            return Decision(tuple(np.flatnonzero(self.decide_batch(deltas[None, :])[0]).tolist()))
        top = keys.argpartition(-self.m)[-self.m:]  # distinct keys: decide_batch's set
        top.sort()
        return Decision(tuple(top.tolist()))

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
    """Top-M selection by a per-sensor score looked up from an AoI table.

    Sensors are mapped to distinct sensor models once, at construction:
    ``of[i]`` is the table row of sensor i, and ``models[r]`` the model of
    row r (a sensor's ``key`` names its model). The float rows (column d at
    AoI d) and their rank keys live together in one slot (see
    ``_rank_keys``) that all clones share, read and written under one
    lock. ``_keys`` is one locked check and one key gather for a batch or
    one vector; ``decide_batch`` adds a partition and a compare per row,
    ``decide`` one argpartition of the vector's N keys. A subclass supplies
    the code that fills its rows.
    """

    def __init__(self, models: list, m: int, key=lambda model: model):
        super().__init__(len(models), m)
        seen: dict = {}  # key -> (row, model)
        self.of = np.array([seen.setdefault(key(model), (len(seen), model))[0]
                            for model in models])
        self.models = [model for _, model in seen.values()]
        self._slot: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [None]
        self._lock = threading.Lock()

    def _rows(self, max_delta: int) -> np.ndarray:
        """Float scores over AoI 0..max_delta, one row per model."""
        raise NotImplementedError

    def _fill(self, rows: np.ndarray | None, deltas: np.ndarray) -> np.ndarray | None:
        """The rows holding every entry ``deltas`` reads if they are not the
        shared ``rows`` (None before the first fill), else None. Closed forms
        rebuild over AoI 0..max(64, 2 * dmax) once ``rows`` is too short."""
        dmax = int(deltas.max())
        if rows is None or rows.shape[1] <= dmax:
            return self._rows(max(64, 2 * dmax))
        return None

    def _keys(self, deltas: np.ndarray, out=None, index=None) -> np.ndarray:
        self._lock.acquire()  # half the per-call cost of a `with` block
        try:
            slot = self._slot[0]
            rows = self._fill(None if slot is None else slot[0], deltas)
            if rows is not None:
                slot = self._slot[0] = _rank_keys(rows, self.of)
        finally:
            self._lock.release()
        # the keys cover every AoI asked for, so no index is clipped
        index = np.add(deltas, slot[2], out=index, dtype=np.int64)  # any int AoI
        return slot[1].take(index, out=_view(out, slot[1].dtype), mode="clip")


class LightweightPolicy(_ScoreTablePolicy):
    """Schedule the M sensors with the largest closed-form Whittle indexes.

    Only the scalar characteristic parameters and channel rates enter the
    score, so ``decide`` on one AoI vector costs a locked table check, one
    key gather and an O(N) argpartition of the N keys.
    Past delta ~ 709 / log alpha the index saturates to ``inf``; saturated
    sensors share one rank, so the key takes the lowest index, not the
    oldest sensor.
    """

    name = "lightweight"

    def __init__(self, char_params: list[CharParams], probs, m: int):
        # AoiFunction hashes by value: equal parameters share a row
        fns = [AoiFunction(cp.alpha, cp.beta, float(p))
               for cp, p in zip(char_params, probs, strict=True)]
        super().__init__(fns, m)
        for i, fn in enumerate(fns):
            if not fn.stable:
                raise StabilityError(
                    f"sensor {i}: alpha*(1-p) = {fn.alpha * (1 - fn.p):.4g} >= 1"
                )

    def _rows(self, max_delta: int) -> np.ndarray:
        return np.vstack([whittle_index_table(fn, max_delta) for fn in self.models])


class AoiGreedyPolicy(Policy):
    """Schedule the M oldest sensors."""

    name = "aoi-greedy"

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        self._order = np.arange(n, dtype=np.int32)

    def _keys(self, deltas: np.ndarray, out=None, index=None) -> np.ndarray:
        # the key n * delta - i is unique in its row and ranks the older
        # sensor first, then the lower index: no ties to break
        dtype = np.int64 if int(deltas.max()) * self.n >= _KEY32_LIMIT else np.int32
        key = np.multiply(deltas, self.n, out=_view(out, dtype), dtype=dtype)
        key -= self._order
        return key


class VoiGreedyPolicy(_ScoreTablePolicy):
    """Schedule by expected one-step trace reduction p * (Tr P(d+1) - Tr P(1))."""

    name = "voi-greedy"

    def __init__(self, plants: list[PlantModel], filters: list[SteadyStateFilter], m: int):
        # one sensor model per (plant, filter) pair of objects
        super().__init__(list(zip(plants, filters, strict=True)), m,
                         lambda pair: tuple(map(id, pair)))

    def _rows(self, max_delta: int) -> np.ndarray:
        plants, filters = zip(*self.models)
        tr = trace_tables(plants, filters, max_delta + 1)  # rows: column 0, never read, is 0
        return np.array([pl.p for pl in plants])[:, None] * (tr[:, 1:] - tr[:, 1:2])


class AoiWhittlePolicy(_ScoreTablePolicy):
    """Whittle index for the plain (linear) AoI cost: p*d*(d + 2/p - 1)/2."""

    name = "aoi-whittle"

    def __init__(self, probs, m: int):
        super().__init__(np.asarray(probs, dtype=float).tolist(), m)

    def _rows(self, max_delta: int) -> np.ndarray:
        p = np.array(self.models)[:, None]
        d = np.arange(max_delta + 1, dtype=float)
        return 0.5 * p * d * (d + 2.0 / p - 1.0)


def _voi_index_hints(costs: np.ndarray, p: np.ndarray, cap: int) -> np.ndarray:
    """Whittle index at AoI 1..``cap`` of each row of a truncated cost table
    among threshold policies, VoI-Whittle's first price for its oracle.

    Row i holds the costs f(1..K) of a channel with success probability
    ``p[i]``. A threshold-d policy idles through AoI 1..d-1 and then
    transmits until a delivery: its cycle lasts L(d) = d - 1 + 1/p and costs
    S(d) = f(1) + ... + f(d-1) + T(d), with the tail T(d) = f(d) + (1-p)
    T(d+1) and T(K) = f(K)/p at the truncation. The price that ties
    thresholds d and d+1 is W(d) = p (p T(d+1) L(d) - S(d)). Column 0 is
    unused (0); a row that overflows holds ``inf`` or ``nan`` there, and the
    oracle refuses such a row anyway.
    """
    n, k = costs.shape
    tail = np.empty_like(costs)
    index = np.zeros((n, cap + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        tail[:, -1] = costs[:, -1] / p
        for j in range(k - 2, -1, -1):
            tail[:, j] = costs[:, j] + (1.0 - p) * tail[:, j + 1]
        before = np.zeros((n, cap))
        np.cumsum(costs[:, :cap - 1], axis=1, out=before[:, 1:])
        p = p[:, None]
        span = np.arange(cap) + 1.0 / p
        index[:, 1:] = p * (p * tail[:, 1:cap + 1] * span - (before + tail[:, :cap]))
    return index


class VoiWhittlePolicy(_ScoreTablePolicy):
    """Numeric Whittle index on the trace-of-covariance cost.

    No closed form exists for this cost, so each (plant, AoI) index comes
    from the certified Newton / policy-iteration oracle, filled into the
    plant's row over AoI 1..``delta_cap`` (cap at least 2) the first time a
    batch needs it. Past the cap the index is extrapolated geometrically
    from the last two entries, which preserves the ordering because the
    index grows with AoI; an extrapolated entry is written into the rows,
    grown past the cap as AoI needs. A call that writes an entry ranks the
    rows again. ``use_cache=False`` starts each decision from empty rows,
    the online computation that C10 times. ``PolicySpec`` holds the
    defaults of both knobs: cap 40, cache on.
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
        super().__init__(list(zip(plants, filters, strict=True)), m,
                         lambda pair: tuple(map(id, pair)))
        if delta_cap < 2:
            raise ValueError(f"delta_cap={delta_cap} must be at least 2")
        self.delta_cap = delta_cap
        self.use_cache = use_cache
        self._costs = trace_tables(*zip(*self.models), delta_cap + _VOI_TAIL)[:, 1:]
        self._hints = _voi_index_hints(self._costs, np.array([pl.p for pl, _ in self.models]),
                                       delta_cap)

    def _fill(self, rows: np.ndarray | None, deltas: np.ndarray) -> np.ndarray | None:
        cap, dmax = self.delta_cap, int(deltas.max())
        table = rows if self.use_cache else None
        if table is None or table.shape[1] <= dmax:
            # AoI 0..cap, or room to extrapolate up to twice the largest AoI
            grown = np.full((len(self.models), cap + 1 if dmax <= cap else 2 * dmax), np.nan)
            if table is not None:
                grown[:, :table.shape[1]] = table
            table = grown
        of = np.broadcast_to(self.of, deltas.shape)
        past = np.nonzero(deltas > cap)
        need = np.zeros((len(self.models), cap + 1), dtype=bool)
        need[of, np.minimum(deltas, cap)] = need[of[past], cap - 1] = True
        fill = np.nonzero(need & np.isnan(table[:, :cap + 1]))
        for r, d in zip(*fill):
            table[r, d] = numeric_whittle_index(self._costs[r], self.models[r][0].p, int(d),
                                                bracket_hint=self._hints[r, d])
        extrapolate = [(r, d) for r, d in zip(of[past].tolist(), deltas[past].tolist())
                       if math.isnan(table[r, d])]
        for r, d in extrapolate:  # Python floats: numpy's power can differ in the last bit
            w_hi, w_lo = float(table[r, cap]), float(table[r, cap - 1])
            ratio = w_hi / w_lo if w_lo > 0 and w_hi > w_lo else 2.0
            table[r, d] = w_hi * ratio ** (d - cap)
        return table if table is not rows or fill[0].size or extrapolate else None


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


def _along(vec: np.ndarray, i: int, n: int) -> np.ndarray:
    """``vec`` shaped to broadcast along axis ``i`` of an ``n``-axis joint grid."""
    return vec.reshape((-1,) + (1,) * (n - 1 - i))


def _argmin_subsets(values) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise minimum over the arrays the iterator ``values`` yields, one
    per subset in catalogue order, and its int16 argmin. The first array has
    the full shape and is overwritten."""
    best = next(values)
    arg = np.zeros(best.shape, dtype=np.int16)
    better = np.empty(best.shape, dtype=bool)
    for ai, q in enumerate(values, 1):  # a better subset's index is the largest yet
        np.less(q, best, out=better)  # strict: ties keep the earliest subset
        np.minimum(best, q, out=best)
        np.maximum(arg, better * np.int16(ai), out=arg)
    return best, arg


def _bellman(v: np.ndarray, cost: np.ndarray, probs: np.ndarray, m: int):
    """Bellman sweep ``v -> (min over subsets of cost + E[V(next)], argmin)``, flat."""
    tv, arg = _argmin_subsets(np.add(q, cost, out=q) for q in _expected_next_each(v, probs, m))
    return tv.ravel(), arg.ravel()


_DP_TOL = 1e-9  # span of the Bellman bracket at which the DP stops
_DP_LOOSE_TOL = 1e-2  # residual span of evaluations between improvements
_DP_MAX_KERNELS = 10_000  # gather products plus Bellman sweeps per solve
_BLOCK = 4096  # states per gather block: 2^M rows of it stay cache-resident
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


def _coordinate_rows(shape: tuple[int, ...]) -> np.ndarray:
    """Per-sensor terms of each flat state's all-idle successor, as int32.

    Row ``i`` holds ``min(c_i + 1, cap - 1) * stride_i`` for every flat state
    with AoI coordinates ``c`` (AoI ``c + 1``); row ``n`` holds their sum,
    the flat successor when no sensor is hit. Resetting sensor ``i`` to AoI 1
    subtracts its row.
    """
    n, cap = len(shape), shape[0]
    rows = np.empty((n + 1, cap**n), dtype=np.int32)
    grown = np.minimum(np.arange(1, cap + 1), cap - 1)
    for i in range(n):
        rows[i].reshape(shape)[...] = _along(grown * cap ** (n - 1 - i), i, n)
    np.sum(rows[:n], axis=0, out=rows[n])
    return rows


def _policy_product(
    coords: np.ndarray, subsets: list[tuple[int, ...]], probs: np.ndarray,
    action_table: np.ndarray,
):
    """Product ``(v, out) -> out = P v`` with a policy's transition matrix,
    the state order it works in (position -> flat state), and ``rekey``,
    which moves the product to another action table's policy.

    ``action_table`` fixes the layout: values live on the states ordered by
    its actions (a stable sort), so each subset's states form one slice. The
    slice is cut into blocks of at most ``_BLOCK`` states; per block, a
    ``(2^M, block)`` intp array holds each state's successor position under
    each success/failure pattern of the subset, built from ``coords`` (see
    :func:`_coordinate_rows`). A product is then, per block, one gather into
    a scratch shared by all blocks and one dot with the patterns'
    probabilities. ``rekey(table)`` keeps the layout: the states whose
    action in ``table`` differs from the layout's get successor rows of their
    own, in blocks whose values overwrite the layout's, so a re-key costs
    work in proportion to those states.
    """
    order = np.argsort(action_table, kind="stable")
    pos = np.empty(order.size, dtype=np.intp)  # intp rows gather without a cast
    pos[order] = np.arange(order.size)
    n, probs = coords.shape[0] - 1, probs.tolist()
    patterns = list(itertools.product((True, False), repeat=len(subsets[0])))
    # per subset, one weight per success/failure pattern, in itertools.product order
    weights = [np.array([math.prod(probs[i] if hit else 1.0 - probs[i]
                                   for i, hit in zip(subset, hits)) for hits in patterns])
               for subset in subsets]
    scratch = np.empty(len(patterns) * min(_BLOCK, order.size))
    values = np.empty(min(_BLOCK, order.size))  # a patch block's products

    def blocks(states: np.ndarray, actions: np.ndarray):
        # (first index, block of states, successor positions, weights,
        # gather scratch) per block of `states`, which are sorted by `actions`
        bounds = np.searchsorted(actions, np.arange(len(subsets) + 1))
        for a, subset in enumerate(subsets):
            for lo in range(bounds[a], bounds[a + 1], _BLOCK):
                part = states[lo : min(lo + _BLOCK, bounds[a + 1])]
                succ = np.empty((len(patterns), part.size), dtype=np.intp)
                succ[-1] = coords[n].take(part)  # no sensor hit
                span = 1
                # a hit resets sensor i, dropping its term; each pattern with i
                # hit sits `span` rows before its twin with i idle (product order)
                for i in reversed(subset):
                    np.subtract(succ[-span:], coords[i].take(part),
                                out=succ[-2 * span : -span])
                    span *= 2
                rows = pos.take(succ, mode="wrap")
                yield lo, part, rows, weights[a], scratch[: rows.size].reshape(rows.shape)

    layout = [(slice(lo, lo + part.size), rows, w, gathered)
              for lo, part, rows, w, gathered in blocks(order, action_table[order])]
    patches: list = []

    def product(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        for part, rows, w, gathered in layout:
            v.take(rows, out=gathered, mode="wrap")  # rows are in range
            np.dot(w, gathered, out=out[part])
        for targets, rows, w, gathered in patches:
            v.take(rows, out=gathered, mode="wrap")
            out[targets] = np.dot(w, gathered, out=values[: targets.size])
        return out

    def rekey(table: np.ndarray) -> None:
        moved = np.flatnonzero(table != action_table)
        moved = moved[np.argsort(table[moved], kind="stable")]
        patches[:] = [(pos[part], rows, w, gathered)
                      for _, part, rows, w, gathered in blocks(moved, table[moved])]

    return product, order, rekey


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` summed by numpy's own loop: a BLAS ``ddot`` splits long
    vectors across its threads, so its rounding would depend on their count."""
    return float(np.einsum("i,i->", a, b))


def _bicgstab(apply, b: np.ndarray, x: np.ndarray, tol: float, left) -> tuple:
    """Solve ``apply(x) = b`` by BiCGSTAB (van der Vorst 1992) until the span
    of the true residual ``b - apply(x)`` is below ``tol``.

    ``apply(y, out)`` writes into ``out``. ``x`` is updated in place, and
    the other vectors (``r``, ``r0``, ``p``, ``v``, ``t``) are allocated once
    per call; ``v`` and ``t`` double as scratch for the scaled updates.
    The recursive residual only triggers a check: the true residual is then
    recomputed, and the iteration restarts from the current ``x`` if it
    misses the tolerance, as it also does on breakdown or on a non-finite
    iterate. A restart whose true residual is no better than the last one's
    would repeat itself, so it raises, as does running out of ``left()``,
    the kernel applications still allowed (one is kept for the last
    residual). Returns ``x`` and its true residual.
    """
    r, r0, p, v, t = (np.empty_like(b) for _ in range(5))
    best = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> restart
        while True:
            np.subtract(b, apply(x, r), out=r)
            span = float(r.max() - r.min())  # np.ptp without its Python layers
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
            np.copyto(r0, r)
            np.copyto(p, r)
            rho = _dot(r0, r)
            while left() >= 3 and rho != 0.0:
                apply(p, v)
                r0v = _dot(r0, v)
                if r0v == 0.0:
                    break
                alpha = rho / r0v
                x += np.multiply(p, alpha, out=t)  # t is free until apply(r, t)
                r -= np.multiply(v, alpha, out=t)
                if not r.max() - r.min() >= tol:
                    break
                apply(r, t)
                tt = _dot(t, t)
                omega = _dot(t, r) / tt if tt else 0.0
                if omega == 0.0:
                    break
                p -= np.multiply(v, omega, out=v)  # v is free from here on
                x += np.multiply(r, omega, out=v)
                r -= np.multiply(t, omega, out=t)
                if not r.max() - r.min() >= tol:
                    break
                rho_next = _dot(r0, r)
                p *= (rho_next / rho) * (alpha / omega)
                p += r
                rho = rho_next


def joint_value_iteration(
    cost_tables: np.ndarray,
    probs,
    m: int,
    action_table: np.ndarray | None = None,
) -> DpSolution:
    """Average-cost policy iteration on the joint AoI chain (Puterman 1994,
    section 8.6).

    Each cost table holds AoI 0..cap (slot 0 unused) and AoI saturates at
    that cap. A policy is evaluated by solving the unichain equations ``h +
    g - P h = c`` with ``h(1,...,1) = 0`` by BiCGSTAB, whose product ``P h``
    gathers each state's 2^M successor values through index rows (see
    :func:`_policy_product`). A call builds one layout of those rows, from
    its first table, and values stay in that layout's state order for the
    whole call. The solve stops once the span of its true residual, ``T_pi
    h - h - g``, is below the tolerance, and ``g`` plus the residual's
    midpoint is the policy's average cost. Evaluating a fixed
    ``action_table`` is that one solve, to ``_DP_TOL``.

    Without ``action_table``, policy iteration starts from the myopic table
    and improves it by one Bellman sweep on ``h``: the sweep computes ``cost
    + E[V(next)]`` for every schedule-exactly-M subset, sharing the partial
    expectation of each active/passive prefix across subsets. A state
    switches only if its best subset beats its current one by more than
    ``0.1 * _DP_TOL``. An improvement re-keys the product: only the states
    whose subset differs from the layout's get new successor rows, and a
    table that did not change keeps its product as it is. Policies are
    evaluated to a residual span of ``_DP_LOOSE_TOL`` until no state
    switches, then to ``_DP_TOL``. The result comes from the last sweep: its
    argmin (ties keep the earliest subset), and the midpoint and span of the
    bracket ``min/max(T h - h)`` of the optimal average cost, which must be
    below ``_DP_TOL``.

    ``sweeps`` counts kernel applications (gather products plus Bellman
    sweeps), at most ``_DP_MAX_KERNELS``. A policy whose chain has more
    than one closed class makes the equations singular: its solve raises
    ``ConvergenceError``, naming the residual span, once a restart no
    longer lowers that span or the budget is spent.
    """
    probs = np.asarray(probs, dtype=float)
    n = len(cost_tables)
    if probs.shape != (n,):
        raise ValueError(f"channel rates of shape {probs.shape} for {n} cost rows")
    cap = len(cost_tables[0]) - 1
    _check_size(n, m, cap)
    subsets = list(itertools.combinations(range(n), m))
    cost = sum((_along(tab[1 : cap + 1], i, n) for i, tab in enumerate(cost_tables)),
               np.zeros((cap,) * n))
    if action_table is None:
        table = _bellman(cost, cost, probs, m)[1]
        used = 1
    else:
        table = np.asarray(action_table).reshape(cost.size)
        used = 0
    product, order, rekey = _policy_product(_coordinate_rows(cost.shape), subsets, probs,
                                            table)
    origin = int(np.flatnonzero(order == 0)[0])  # AoI (1,...,1) is flat state 0

    def left() -> int:
        return _DP_MAX_KERNELS - used

    def apply(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        # y holds h in the layout's order, except at the origin, where h is
        # 0 and y carries the gain g
        nonlocal used
        used += 1
        gain = y[origin]
        y[origin] = 0.0  # y is h for the product
        product(y, out)
        np.subtract(y, out, out=out)
        out += gain
        y[origin] = gain
        return out

    x = np.zeros(cost.size)
    if action_table is not None:
        del rekey  # frees what re-keying keeps: the positions and coordinate rows
        x, r = _bicgstab(apply, cost.ravel()[order], x, _DP_TOL, left)
        lo, hi = float(r.min()), float(r.max())
        return DpSolution(action_table=table, subsets=subsets,
                          average_cost=float(x[origin]) + 0.5 * (lo + hi), delta_cap=cap,
                          n=n, span=hi - lo, sweeps=used)
    h = np.empty(cost.size)  # flat states
    tol = _DP_LOOSE_TOL
    while True:
        x, r = _bicgstab(apply, cost.ravel()[order], x, tol, left)
        h[order], r[order] = x, r  # to the flat states
        gain, h[0] = h[0], 0.0
        tv, best = _bellman(h.reshape(cost.shape), cost, probs, m)
        used += 1
        r += h
        r += gain  # r + h + g = cost + P h
        r -= 0.1 * _DP_TOL
        switch = tv < r
        tv -= h  # T h - h, whose min and max bracket the optimal average cost
        lo, hi = float(tv.min()), float(tv.max())
        del r, tv  # free before the next solve and sweep
        if switch.any():
            table = np.where(switch, best, table)
            rekey(table)
            continue
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
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters, strict=True)]
    tables = metric_cost_tables(cost, plants, filters, cps, delta_cap)
    return joint_value_iteration(tables, [pl.p for pl in plants], m)


def policy_action_table(policy: Policy, delta_cap: int) -> np.ndarray:
    """Evaluate a policy on every joint state and encode each chosen subset by
    its index in ``itertools.combinations(range(policy.n), policy.m)``.

    A key-ranked policy is asked for its keys once, on a ``(delta_cap, n)``
    AoI matrix whose column i holds AoI 1..delta_cap for sensor i; any other
    decides on every joint state, and each row must schedule exactly M. A
    key depends on its sensor's AoI alone and keys are distinct, so at each
    state the schedule is the unique M-subset with the largest sum of keys
    (or of mask columns), which one subset reduction finds for both.
    """
    n = policy.n
    shape = (delta_cap,) * n
    subsets = list(itertools.combinations(range(n), policy.m))
    keys = policy._keys(np.repeat(np.arange(1, delta_cap + 1)[:, None], n, axis=1))
    if keys is None:
        # np.indices is int64 on numpy 2, int32 on numpy 1 under Windows: cast only then
        grids = np.indices(shape).reshape(n, -1).T + 1
        mask = policy.decide_batch(grids.astype(np.int64, copy=False))
        if np.any(mask.sum(axis=1) != policy.m):
            raise ValueError("policy returned a subset outside the schedule-M catalogue")
        cols = -mask.T.astype(np.int8).reshape((n,) + shape)
    else:  # int64 key sums: M int32 keys may wrap
        cols = [_along(-keys[:, i].astype(np.int64), i, n) for i in range(n)]
    zero = np.zeros(shape, dtype=cols[0].dtype)
    return _argmin_subsets(sum((cols[i] for i in s), zero) for s in subsets)[1].ravel()


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
    larger, up to the DP tolerance ``_DP_TOL``). Sizes, and the policy's own
    sensor count and budget, are checked before the policy decides on every
    joint state; round-robin and randomized policies, which do not decide
    from the AoI state alone, raise ``ValueError``. A policy whose chain has
    more than one closed class has no single average cost: the evaluation
    then raises ``ConvergenceError`` with its residual span.
    """
    n = len(plants)
    _check_size(n, m, delta_cap)
    if (policy.n, policy.m) != (n, m):
        raise ValueError(f"policy schedules {policy.m} of {policy.n} sensors, "
                         f"but the chain has budget {m} and {n} sensors")
    if isinstance(policy, (RoundRobinPolicy, RandomizedStationaryPolicy)):
        raise ValueError(f"{policy.name} policy does not decide from the AoI state "
                         "alone, so it has no action table on the joint chain")
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters, strict=True)]
    tables = metric_cost_tables(cost, plants, filters, cps, delta_cap)
    table = policy_action_table(policy, delta_cap)
    probs = [pl.p for pl in plants]
    return joint_value_iteration(tables, probs, m, action_table=table).average_cost


class DpTablePolicy(Policy):
    """Table lookup into a solved joint-chain policy (AoI clipped at the cap)."""

    name = "dp"

    def __init__(self, solution: DpSolution):
        super().__init__(solution.n, len(solution.subsets[0]))
        self.solution = solution
        self._masks = np.zeros((len(solution.subsets), solution.n), dtype=bool)
        self._masks[np.arange(len(solution.subsets))[:, None], solution.subsets] = True

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
        sol = dp_optimal_policy(plants, m, self.delta_cap, filters, cost=self.dp_cost)
        return DpTablePolicy(sol)


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
