"""Plant models, steady-state Kalman filtering and characteristic parameters.

Each sensed plant is a discrete-time LTI system

    x(t+1) = A x(t) + w(t),      w ~ N(0, Q)
    y(t)   = C x(t) + v(t),      v ~ N(0, R)

observed by a smart sensor that runs a local Kalman filter and ships its
state estimate over a Bernoulli erasure channel with success probability p.
The remote estimator's error covariance depends on the state only through
the age of information (AoI): the number of steps since the last delivery.

This module provides the filter fixed point, the AoI-indexed error
covariances and cost tables, the scalar characteristic parameters (alpha,
beta) that bound the error trace by a geometric AoI function, and a seeded
random plant generator used by the experiment harness.

Everything plant-specific is worked out once per plant object: a
``PlantModel`` keeps rho(A) from its validation, and its Riccati iteration
is solved the first time a filter is asked of it and kept on it, so every
later caller (simulation, sweep point, DP, bounds) shares that one
read-only filter. ``generate_ensemble`` and ``filters_and_params`` solve
the unsolved plant objects of their list as one stacked iteration per
(n, m) shape, to the bits a one-plant iteration gives. Equal but distinct
plant objects are solved separately, and so is a copy or an unpickled
plant; a plant re-channeled by ``with_channel`` shares the original's
filter.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .aoi import aoi_cost_table
from .errors import ConvergenceError, GenerationError, PlantInvariantError

SCHEMA_VERSION = 1

# numeric rank: singular values above _RANK_RTOL * sigma_max count
_RANK_RTOL = 1e-8
# generated plants keep rho^2 (1 - p) at or below this unless p_range is given
_STABILITY_MARGIN = 0.95
_MAX_TRIES = 100  # draws per plant before generation gives up
_RICCATI_TOL = 1e-10  # max-abs posterior change at which the Riccati iteration stops
_RICCATI_MAX_ITERS = 100_000
COST_METRICS = ("aoi-function", "trace")  # metrics with an AoI cost table


def spectral_radius(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PlantInvariantError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PlantInvariantError("matrix has non-finite entries")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def numeric_rank(m: np.ndarray) -> int:
    """Rank by singular-value threshold (relative to the largest one)."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_RTOL * s[0]))


def observability_matrix(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def _check_spd(m: np.ndarray, name: str) -> None:
    # np.allclose(m, m.T, atol=1e-10, rtol=1e-8) on a finite matrix, without
    # its inf/nan handling
    if not np.all(np.abs(m - m.T) <= 1e-10 + 1e-8 * np.abs(m.T)):
        raise PlantInvariantError(f"{name} is not symmetric")
    if float(np.min(np.linalg.eigvalsh(m))) <= 0.0:
        raise PlantInvariantError(f"{name} is not positive definite")


@dataclass(frozen=True)
class PlantModel:
    """One LTI plant plus its channel success probability.

    Construction validates the standing assumptions: (A, C) observable,
    (A, sqrt(Q)) controllable, Q and R symmetric positive definite,
    rho(A) > 1 and p in (0, 1]. The validated ``rho`` = rho(A) is kept, and
    ``steady_state_filter`` keeps its solved filter in ``_filter``.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    p: float
    rho: float = field(init=False, repr=False, compare=False)
    _filter: SteadyStateFilter | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("A", "C", "Q", "R"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise PlantInvariantError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n, m = self.n, self.m
        if self.A.shape != (n, n):
            raise PlantInvariantError("A must be square")
        if self.C.shape != (m, n):
            raise PlantInvariantError(f"C shape {self.C.shape} incompatible with A")
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise PlantInvariantError("Q/R dimensions incompatible with A/C")
        for name in ("A", "C", "Q", "R"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise PlantInvariantError(f"{name} has non-finite entries")
        _check_spd(self.Q, "Q")
        _check_spd(self.R, "R")
        if not (0.0 < self.p <= 1.0):
            raise PlantInvariantError(f"p={self.p} outside (0, 1]")
        object.__setattr__(self, "rho", spectral_radius(self.A))
        if self.rho <= 1.0:
            raise PlantInvariantError("rho(A) <= 1; plants must be unstable")
        if numeric_rank(observability_matrix(self.A, self.C)) < n:
            raise PlantInvariantError("(A, C) is not observable")
        sq = np.linalg.cholesky(self.Q)
        if numeric_rank(controllability_matrix(self.A, sq)) < n:
            raise PlantInvariantError("(A, sqrt(Q)) is not controllable")

    def __reduce__(self):
        # copies and unpickled plants go through the constructor, which
        # validates and freezes them; each solves its own filter on demand
        return type(self), (self.A, self.C, self.Q, self.R, self.p)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "C": self.C.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "p": self.p,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlantModel":
        """The plant of a ``to_dict`` document; a missing or ill-typed field
        raises ``ValueError`` naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"a plant must be an object, got {type(d).__name__}")
        fields = {}
        for key in ("A", "C", "Q", "R", "p"):
            if key not in d:
                raise ValueError(f'plant has no "{key}" field')
            try:
                fields[key] = float(d[key]) if key == "p" else np.array(d[key], dtype=float)
            except (TypeError, ValueError):
                fields[key] = None
            if fields[key] is None or np.ndim(fields[key]) != (0 if key == "p" else 2):
                kind = "a number" if key == "p" else "a matrix (a list of rows) of numbers"
                raise ValueError(f'plant field "{key}" must be {kind}, got {d[key]!r}')
        return cls(**fields)


@dataclass(frozen=True)
class SteadyStateFilter:
    """Converged local Kalman filter: posterior/prior covariances and gain.

    One filter is solved per plant object and shared by every caller that
    asks for that plant, so its three arrays are read-only.
    """

    posterior_cov: np.ndarray
    prior_cov: np.ndarray
    gain: np.ndarray
    iterations: int


def steady_state_filter(plant: PlantModel) -> SteadyStateFilter:
    """The plant's steady-state filter, solved on the first call and kept.

    A frozen ``PlantModel`` with read-only arrays always has one fixed
    point, so later calls on the same object return the same filter object.
    """
    if plant._filter is None:
        # threads solving one plant at once only repeat deterministic work;
        # the last one's equal filter is kept
        _solve_filters([plant])
    return plant._filter


def with_channel(plant: PlantModel, p: float) -> PlantModel:
    """``plant`` with success probability ``p``, validated as a new plant.

    The filter does not depend on p, so the new plant shares ``plant``'s
    (solved first if it is not yet) instead of solving its own.
    """
    out = replace(plant, p=p)
    object.__setattr__(out, "_filter", steady_state_filter(plant))
    return out


def _solve_filters(plants: list[PlantModel]) -> None:
    """Solve and keep the filter of every distinct unsolved plant object in
    ``plants``, one ``_riccati_fixed_points`` stack per (n, m) shape.

    The shapes are grouped by a stable sort, so a one-shape list is solved
    in its own order. A plant whose iteration does not converge stays
    unsolved; once every other plant has kept its filter,
    ``ConvergenceError`` names the first such plant's position in ``plants``.
    """
    shape = operator.attrgetter("n", "m")
    todo = sorted({id(pl): pl for pl in plants if pl._filter is None}.values(), key=shape)
    for _, group in itertools.groupby(todo, key=shape):
        group = list(group)
        for pl, ss in zip(group, _riccati_fixed_points(group)):
            if ss is not None:
                object.__setattr__(pl, "_filter", ss)
    unsolved = [i for i, pl in enumerate(plants) if pl._filter is None]
    if unsolved:
        raise ConvergenceError(f"Riccati iteration of plant {unsolved[0]} did not converge "
                               f"within {_RICCATI_MAX_ITERS} iterations")


def _riccati_fixed_points(plants: list[PlantModel]) -> list[SteadyStateFilter | None]:
    """Fixed points of the Riccati recursions of plants of one (n, m) shape,
    by plain iteration from P = Q, stacked as ``(k, ., .)`` arrays.

    Each sweep runs predict / gain / update and re-symmetrizes the result.
    A plant leaves the stack at the sweep where its successive posteriors
    first differ by less than ``_RICCATI_TOL`` in max-abs norm; every slice
    takes a one-plant iteration's products, so its filter has that
    iteration's bits and ``iterations``. A plant still in the stack after
    ``_RICCATI_MAX_ITERS`` sweeps gets ``None``: non-convergence signals a
    plant whose detectability or stabilizability is numerically broken.
    """
    def gain_of(prior, c, r):
        c_t = c.transpose(0, 2, 1)
        return np.linalg.solve((c @ prior @ c_t + r).transpose(0, 2, 1),
                               (prior @ c_t).transpose(0, 2, 1)).transpose(0, 2, 1)

    out: list[SteadyStateFilter | None] = [None] * len(plants)
    live = np.arange(len(plants))
    a, c, q, r = (np.stack([getattr(pl, name) for pl in plants]) for name in "ACQR")
    post = q.copy()
    for it in range(1, _RICCATI_MAX_ITERS + 1):
        prior = a @ post @ a.transpose(0, 2, 1) + q
        gain = gain_of(prior, c, r)
        new_post = prior - gain @ c @ prior
        new_post = 0.5 * (new_post + new_post.transpose(0, 2, 1))
        done = np.max(np.abs(new_post - post), axis=(1, 2)) < _RICCATI_TOL
        post = new_post
        if not done.any():
            continue
        fin = np.flatnonzero(done)
        a_f, post_f = a[fin], post[fin]
        prior = a_f @ post_f @ a_f.transpose(0, 2, 1) + q[fin]
        prior = 0.5 * (prior + prior.transpose(0, 2, 1))
        gain = gain_of(prior, c[fin], r[fin])
        for arr in (post_f, prior, gain):
            arr.setflags(write=False)
        for j, i in enumerate(live[fin].tolist()):
            out[i] = SteadyStateFilter(post_f[j], prior[j], gain[j], it)
        keep = ~done
        live, a, c, q, r, post = live[keep], a[keep], c[keep], q[keep], r[keep], post[keep]
        if not live.size:
            break
    return out


@dataclass(frozen=True)
class CharParams:
    """Scalar pair (alpha, beta) of the geometric AoI error bound."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0):
            raise PlantInvariantError(f"alpha={self.alpha} must exceed 1")
        if not (self.beta > 0.0):
            raise PlantInvariantError(f"beta={self.beta} must be positive")


def characteristic_params(plant: PlantModel, ss: SteadyStateFilter) -> CharParams:
    """Tight characteristic parameters of a plant.

    alpha = rho(A)^2 and beta = max(Tr(A Pbar A^T) / alpha, Tr(Q)), the
    smallest scale for which both AoI trace inequalities hold with that rate.
    """
    alpha = plant.rho * plant.rho
    pbar = ss.posterior_cov
    beta = max(float(np.trace(plant.A @ pbar @ plant.A.T)) / alpha,
               float(np.trace(plant.Q)))
    return CharParams(alpha=alpha, beta=beta)


def filters_and_params(
    plants: list[PlantModel],
) -> tuple[list[SteadyStateFilter], list[CharParams]]:
    """Steady-state filter and characteristic parameters of every plant.

    The filters are each plant object's own (see ``steady_state_filter``);
    positions that hold one object share its filter and its parameters,
    which are worked out once per distinct object. The unsolved objects are
    solved together first (``_solve_filters``).
    """
    _solve_filters(plants)
    params: dict[int, CharParams] = {}  # per distinct object
    for pl in plants:
        if id(pl) not in params:
            params[id(pl)] = characteristic_params(pl, steady_state_filter(pl))
    return [pl._filter for pl in plants], [params[id(pl)] for pl in plants]


def trace_tables(
    plants: list[PlantModel], filters: list[SteadyStateFilter], max_delta: int,
    prediction: bool = False,
) -> np.ndarray:
    """``error_trace_table`` of each (plant, filter) pair, or with
    ``prediction`` its ``prediction_trace_table``, as the rows of one array.

    Each run of consecutive plants of one state dimension ages as one
    ``(k, n, n)`` stack, whose slices take the products and diagonal sums of
    a one-plant table, so every row has the same bits. Column 0 is unused
    (0); the first trace to overflow float64 and every later one read ``inf``.
    """
    if max_delta < 1:
        raise ValueError(f"AoI cap max_delta={max_delta} must be at least 1")
    rows = []
    for _, run in itertools.groupby(zip(plants, filters, strict=True),
                                    key=lambda pair: pair[0].n):
        run = list(run)
        a, q = np.stack([pl.A for pl, _ in run]), np.stack([pl.Q for pl, _ in run])
        a_t = a.transpose(0, 2, 1)
        cov = a @ np.stack([ss.posterior_cov for _, ss in run]) @ a_t
        if prediction:
            cov = cov + q
        tab = np.zeros((len(run), max_delta + 1))
        tab[:, 1] = cov.trace(axis1=1, axis2=2)
        with np.errstate(over="ignore", invalid="ignore"):
            for d in range(2, max_delta + 1):
                cov = a @ cov @ a_t + q
                tab[:, d] = cov.trace(axis1=1, axis2=2)
        rows.append(tab)
    out = np.vstack(rows)
    out[np.logical_or.accumulate(~np.isfinite(out), axis=1)] = np.inf
    return out


def metric_cost_tables(
    metric: str,
    plants: list[PlantModel],
    filters: list[SteadyStateFilter],
    char_params: list[CharParams],
    max_delta: int,
) -> np.ndarray:
    """Cost of ``metric`` at AoI 0..max_delta (slot 0 unused), one row per
    sensor: the AoI cost function, or the prediction-error trace. The
    covariance simulation and the joint-chain DP both read it, so they
    share one cost.
    """
    if metric == "aoi-function":
        return np.array([aoi_cost_table(cp.alpha, cp.beta, max_delta) for cp in char_params])
    if metric == "trace":
        return trace_tables(plants, filters, max_delta, prediction=True)
    raise ValueError(f"metric must be one of {', '.join(COST_METRICS)}, got {metric!r}")


def error_trace_table(
    plant: PlantModel, ss: SteadyStateFilter, max_delta: int
) -> np.ndarray:
    """Error trace for delta = 1..max_delta as a lookup table: the trace of
    the covariance seeded at A Pbar A^T for delta = 1 and aged by P -> A P
    A^T + Q per extra step, the cost behind the VoI-greedy and VoI-Whittle
    scores and the one the analytical layer (AoI bound, lower bounds) is
    built on."""
    return trace_tables([plant], [ss], max_delta)[0]


def prediction_trace_table(
    plant: PlantModel, ss: SteadyStateFilter, max_delta: int
) -> np.ndarray:
    """Prediction trace for delta = 1..max_delta as a lookup table: the error
    trace's recursion seeded at A Pbar A^T + Q, the error of the one-step
    prediction a remote estimator holds after a delivery. It is the
    ``trace`` cost of the covariance simulation and of the joint-chain DP,
    and what a trajectory-level simulation realizes."""
    return trace_tables([plant], [ss], max_delta, prediction=True)[0]


def scalar_error_bound(cp: CharParams, delta: int) -> float:
    """Cumulative geometric bound sum_{k=1..delta} beta * alpha^k.

    Upper-bounds the error trace (``error_trace_table``) at the same AoI.
    alpha^delta - 1 is ``expm1(delta log alpha)``, which does not cancel as
    alpha nears 1; ``inf`` where beta * alpha^delta overflows float64.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    a, b = cp.alpha, cp.beta
    try:
        growth = math.expm1(delta * math.log(a))
    except OverflowError:
        return math.inf
    return b * a * (growth / (a - 1.0))


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def generate_plant(
    n: int,
    m: int,
    rho_range: tuple[float, float],
    rng: np.random.Generator,
    p_range: tuple[float, float] | None = None,
    dynamics: str = "dense",
) -> PlantModel:
    """Random plant satisfying all PlantModel invariants.

    With ``dynamics="dense"`` (default), A has i.i.d. normal entries
    rescaled so rho(A) hits a uniform draw in ``rho_range``. With
    ``dynamics="normal"``, A is built on an orthonormal eigenbasis (a
    normal matrix), the family on which the geometric trace bounds hold
    with the spectral-radius rate at every step; dense matrices can
    overshoot those bounds transiently since their growth is governed by
    singular values. C is i.i.d. normal; Q and R are G G^T + 1e-3 I.
    Unless ``p_range`` is given, p is drawn uniformly above the smallest
    value keeping rho^2 (1 - p) <= _STABILITY_MARGIN, so every generated
    plant passes the necessary stability condition with margin.
    """
    lo, hi = rho_range
    if not (1.0 < lo <= hi):
        raise ValueError(f"rho_range must lie strictly above 1, got {rho_range}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if dynamics not in ("dense", "normal"):
        raise ValueError(f"unknown dynamics family {dynamics!r}")
    for _ in range(_MAX_TRIES):
        target = rng.uniform(lo, hi)
        if dynamics == "dense":
            a = rng.standard_normal((n, n))
            rho0 = spectral_radius(a)
            if rho0 < 1e-9:
                continue
            a *= target / rho0
        else:
            u = _haar_orthogonal(n, rng)
            lam = rng.uniform(0.3, 1.0, n) * rng.choice([-1.0, 1.0], n)
            lam[rng.integers(n)] = rng.choice([-1.0, 1.0])
            a = u @ np.diag(lam * target) @ u.T
        c = rng.standard_normal((m, n))
        gq = rng.standard_normal((n, n))
        gr = rng.standard_normal((m, m))
        q = gq @ gq.T + 1e-3 * np.eye(n)
        r = gr @ gr.T + 1e-3 * np.eye(m)
        alpha = target * target
        if p_range is None:
            p_lo = max(1e-3, 1.0 - _STABILITY_MARGIN / alpha)
            p_hi = 1.0
        else:
            p_lo, p_hi = p_range
            if not (0.0 < p_lo <= p_hi <= 1.0):
                raise ValueError(f"p_range must lie in (0, 1], got {p_range}")
        p = rng.uniform(p_lo, p_hi)
        try:
            return PlantModel(A=a, C=c, Q=q, R=r, p=p)
        except PlantInvariantError:
            continue
    raise GenerationError(f"no valid plant found in {_MAX_TRIES} tries")


def generate_ensemble(
    count: int,
    n: int,
    m: int,
    rho_range: tuple[float, float],
    seed: int | np.random.SeedSequence,
    p_range: tuple[float, float] | None = None,
) -> list[PlantModel]:
    """``count`` validated plants drawn by ``generate_plant`` from one
    seeded stream, with their steady-state filters already solved (one
    stacked iteration), so ``steady_state_filter`` on any of them returns
    at once. A plant whose iteration does not converge raises
    ``ConvergenceError`` here."""
    rng = np.random.default_rng(seed)
    plants = [generate_plant(n, m, rho_range, rng, p_range=p_range) for _ in range(count)]
    _solve_filters(plants)
    return plants


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    Readers see either the old file or the complete new one, never a
    partial write; a failed write or rename removes the temp file and
    re-raises. Every file the package writes goes through here.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.unlink(tmp)
        raise


def save_ensemble(path: str, plants: list[PlantModel]) -> None:
    """Write a plant ensemble as JSON (atomically: temp file then rename)."""
    doc = {"schema_version": SCHEMA_VERSION, "plants": [pl.to_dict() for pl in plants]}
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


def load_ensemble(path: str) -> list[PlantModel]:
    """The ensemble saved at ``path``, at least one plant; a file that is not
    one raises ``ValueError`` naming the file and what is wrong with it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            plants = doc.get("plants") if isinstance(doc, dict) else None
            if not isinstance(plants, list) or not plants:
                raise ValueError('an ensemble must be an object with a non-empty "plants" list')
            out = []
            for i, d in enumerate(plants):
                try:
                    out.append(PlantModel.from_dict(d))
                except ValueError as exc:
                    raise type(exc)(f"plant {i}: {exc}") from None
            return out
        except ValueError as exc:  # bad JSON or UTF-8 too
            raise ValueError(f"{path}: {exc}") from exc
