"""Seeded Monte Carlo engine: covariance/trajectory simulation and sweeps.

Runs are independent replications of the scheduled estimation system. The
engine is vectorized across runs in fixed-size blocks; each block owns
counter-based RNG streams keyed by (seed, block index), so results are
bit-identical for a given seed regardless of the thread count, and blocks
are reduced in fixed order.

Two simulation levels are provided. The covariance simulation drives only
the AoI chain and reads per-step costs from AoI-indexed tables (the AoI
cost function, or the trace of the remote prediction-error covariance).
The trajectory simulation additionally propagates noise realizations
through the plant, the local filter and the remote estimator, in error
coordinates (an exact linear change of variables that avoids the
overflow/cancellation of absolute states under unstable dynamics), and
reports the empirical squared estimation error. The two agree in the mean,
which is the cross-validation the test suite leans on.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .plants import (COST_METRICS, PlantModel, filters_and_params, metric_cost_tables,
                     with_channel, write_atomic)
from .policies import AoiGreedyPolicy, PolicySpec

METRICS = COST_METRICS + ("squared-error",)

DIVERGENCE_LIMIT = 1e12
_HIST_BINS = 128  # AoI histogram bins; the last one absorbs everything older
_DEFAULT_N_PER_M = 2.0  # N/M of a simulation not given M
_RUN_BLOCK = 2048  # runs per block (see SimConfig)
_FLUSH = 255  # measured steps per flush of the uint8 counters: no count wraps
# the phases of one Monte Carlo step that SimReport.timings splits its time by
_PHASES = ("decide", "channel", "aoi_update", "cost", "accounting")


@dataclass(frozen=True)
class SimConfig:
    """Replication layout and metric of one Monte Carlo experiment.

    Runs go in fixed blocks of ``_RUN_BLOCK`` (2048), whose streams are keyed
    on (seed, block index): the block size is part of what a seed means.
    """

    horizon: int = 1000
    runs: int = 10_000
    seed: int = 0
    metric: str = "aoi-function"
    warmup: int | None = None  # None -> 10% of the horizon
    threads: int = 1

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.runs < 1:
            raise ValueError("horizon and runs must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if not (0 <= self.warmup_steps < self.horizon):
            raise ValueError("warmup must leave at least one measured step")

    @property
    def warmup_steps(self) -> int:
        return self.warmup if self.warmup is not None else self.horizon // 10


@dataclass
class SimReport:
    """Aggregated outcome of one (ensemble, policy, config) experiment."""

    policy: str
    metric: str
    mean_J: float
    ci95: float
    per_sensor_attempt_rate: list[float]
    per_sensor_success_rate: list[float]
    aoi_histogram: list[int]
    wall_time_per_decision: float
    timings: dict[str, float]  # seconds per step phase, summed over blocks
    diverged_runs: int
    runs: int
    horizon: int
    warmup: int
    seed: int

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["schema_version"] = 1
        return d

    def stat_dict(self) -> dict:
        """Deterministic fields only: everything except wall-clock timing."""
        d = self.to_dict()
        d.pop("wall_time_per_decision")
        d.pop("timings")
        return d


def _philox(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), tag & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cycle(plants: list[PlantModel], n: int) -> list[PlantModel]:
    return [plants[i % len(plants)] for i in range(n)]


def _default_m(n: int) -> int:
    """M = N/2, rounded half to even and at least 1: the budget of a
    simulation or decision timing not given M."""
    return max(1, int(round(n / _DEFAULT_N_PER_M)))


@dataclass
class _BlockStats:
    run_means: np.ndarray
    diverged: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    histogram: np.ndarray
    phase_s: list[float]  # perf_counter totals, in _PHASES order


def _aggregate(blocks: list[_BlockStats], policy_name, config) -> SimReport:
    means = np.concatenate([b.run_means for b in blocks])
    diverged = np.concatenate([b.diverged for b in blocks])
    attempts = np.sum([b.attempts for b in blocks], axis=0)
    successes = np.sum([b.successes for b in blocks], axis=0)
    hist = np.sum([b.histogram for b in blocks], axis=0)
    phase_s = np.sum([b.phase_s for b in blocks], axis=0)
    ok = ~diverged
    if ok.any():
        mean_j = float(np.mean(means[ok]))
        sd = float(np.std(means[ok], ddof=1)) if ok.sum() > 1 else 0.0
        ci = 1.96 * sd / math.sqrt(ok.sum())
    else:
        mean_j, ci = math.inf, math.nan
    denom = (config.horizon - config.warmup_steps) * config.runs
    success_rate = np.where(attempts > 0, successes / np.maximum(attempts, 1), 0.0)
    return SimReport(
        policy=policy_name,
        metric=config.metric,
        mean_J=mean_j,
        ci95=ci,
        per_sensor_attempt_rate=(attempts / denom).tolist(),
        per_sensor_success_rate=success_rate.tolist(),
        aoi_histogram=hist.tolist(),
        wall_time_per_decision=float(phase_s[0]) / (config.runs * config.horizon),
        timings={f"{name}_s": float(v) for name, v in zip(_PHASES, phase_s)},
        diverged_runs=int(diverged.sum()),
        runs=config.runs,
        horizon=config.horizon,
        warmup=config.warmup_steps,
        seed=config.seed,
    )


def _age(deltas: np.ndarray, gamma: np.ndarray, lost: np.ndarray | None = None) -> None:
    """AoI update in place: 1 where ``gamma`` delivered, one older elsewhere;
    ``lost``, if given, is bool scratch of their shape."""
    # deltas = where(gamma, 1, deltas + 1); masked writes cost more
    deltas *= np.logical_not(gamma, out=lost)
    deltas += 1


def _run_blocks(plants, proto, config: SimConfig, stride: int, make_step) -> SimReport:
    """Run the replications block by block and reduce them in block order.

    Block ``bi`` draws its channel from Philox tag ``stride * bi`` and hands
    tag ``stride * bi + 1`` to its policy clone; a level may key further
    streams of its own above those. ``make_step(bi, b, diverged)`` builds the
    block's per-step cost kernel ``step(gamma, deltas, index, values)``,
    called after every AoI update and accumulated only on measured
    (post-warmup) steps; ``index`` (int64) and ``values`` (float64) are
    (b, n) scratch arrays it may overwrite. Runs whose instantaneous cost
    ever exceeds 1e12 (or overflows), warm-up included, are set in
    ``diverged``: they stop accumulating and are left out of the mean.

    Outside the trajectory kernel, a step allocates no (b, n) array but the
    policy's mask: the channel draw, the cost gather and the policy clone's
    scratch share two block buffers, and the AoI vector is updated in place.
    The histogram counts the AoI matrix as it is, and folds the counts past
    its last bin into that bin only on a step whose AoI reaches past it.
    Attempts and successes are counted per (run, sensor) by in-place adds of
    the bool masks into uint8 counters, which are summed into the block's
    int64 totals every ``_FLUSH`` (255) measured steps, before they can
    wrap, and at the horizon.
    """
    n = len(plants)
    if proto.n != n:
        raise ValueError(f"{proto.name} policy is sized for {proto.n} sensors, not {n}")
    probs = np.array([pl.p for pl in plants])
    warm = config.warmup_steps
    measured = config.horizon - warm
    tick = time.perf_counter

    def one_block(args) -> _BlockStats:
        bi, b = args
        values = np.empty((b, n))  # the channel draw, then the step's costs
        index = np.empty((b, n), dtype=np.int64)  # cost-gather index
        # the policy clone's scratch too: decide_batch runs while neither is in use
        policy = proto.clone(scratch=(values, index))
        policy.rng = _philox(config.seed, stride * bi + 1)
        ch = _philox(config.seed, stride * bi)
        deltas = np.ones((b, n), dtype=np.int64)
        gamma = np.empty((b, n), dtype=bool)
        lost = np.empty((b, n), dtype=bool)
        cost_acc = np.zeros(b)
        diverged = np.zeros(b, dtype=bool)
        step = make_step(bi, b, diverged)
        attempts = np.zeros(n, dtype=np.int64)
        successes = np.zeros(n, dtype=np.int64)
        tried = np.zeros((b, n), dtype=np.uint8)  # since the last flush
        won = np.zeros((b, n), dtype=np.uint8)
        hist = np.zeros(_HIST_BINS + 1, dtype=np.int64)
        phase_s = [0.0] * len(_PHASES)
        for t in range(1, config.horizon + 1):
            t0 = tick()
            mask = policy.decide_batch(deltas)
            t1 = tick()
            np.less(ch.random(out=values), probs, out=gamma)
            gamma &= mask
            t2 = tick()
            _age(deltas, gamma, lost)
            t3 = tick()
            step_cost = step(gamma, deltas, index, values)
            diverged |= ~(step_cost <= DIVERGENCE_LIMIT)  # NaN and inf fail it too
            t4 = tick()
            if t > warm:
                tried += mask.view(np.uint8)
                won += gamma.view(np.uint8)
                if (t - warm) % _FLUSH == 0 or t == config.horizon:
                    attempts += tried.sum(axis=0, dtype=np.int64)
                    successes += won.sum(axis=0, dtype=np.int64)
                    tried.fill(0)
                    won.fill(0)
                cost_acc += np.where(diverged, 0.0, step_cost)
                counts = np.bincount(deltas.ravel(), minlength=_HIST_BINS + 1)
                if counts.size > _HIST_BINS + 1:  # some AoI passed the last bin
                    counts[_HIST_BINS] = counts[_HIST_BINS:].sum()
                hist += counts[:_HIST_BINS + 1]
            t5 = tick()
            phase_s[0] += t1 - t0
            phase_s[1] += t2 - t1
            phase_s[2] += t3 - t2
            phase_s[3] += t4 - t3
            phase_s[4] += t5 - t4
        return _BlockStats(
            run_means=cost_acc / measured,
            diverged=diverged,
            attempts=attempts,
            successes=successes,
            histogram=hist,
            phase_s=phase_s,
        )

    sizes = [min(_RUN_BLOCK, config.runs - s) for s in range(0, config.runs, _RUN_BLOCK)]
    jobs = list(enumerate(sizes))
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            blocks = list(pool.map(one_block, jobs))
    else:
        blocks = [one_block(j) for j in jobs]
    return _aggregate(blocks, proto.name, config)


def run_covariance_sim(
    plants: list[PlantModel],
    policy_spec: PolicySpec,
    m: int,
    config: SimConfig,
) -> SimReport:
    """Simulate the AoI chain and read costs from covariance tables.

    Per step: the policy schedules up to M sensors on the current AoI
    vector, scheduled deliveries succeed i.i.d. with probability p_i, AoI
    resets on delivery and ages otherwise, and the post-update cost is
    accumulated after warmup. The ``squared-error`` metric has no cost
    table: it raises ``ValueError``, pointing to ``run_trajectory_sim``.
    """
    if config.metric not in COST_METRICS:
        raise ValueError(f"metric {config.metric!r} has no covariance cost table; "
                         "run_trajectory_sim (or run_sim, which picks it) simulates it")
    filters, cps = filters_and_params(plants)
    # one row per sensor, over AoI 0..horizon + 1
    tabs = metric_cost_tables(config.metric, plants, filters, cps, config.horizon + 1)
    proto = policy_spec.make(plants, filters, cps, m)
    flat, offsets = tabs.ravel(), np.arange(len(plants)) * tabs.shape[1]

    def step(gamma, deltas, index, values):
        # AoI never passes the horizon, so no index is clipped
        np.add(deltas, offsets, out=index)
        return np.take(flat, index, out=values, mode="clip").sum(axis=1)

    return _run_blocks(plants, proto, config, 2, lambda bi, b, diverged: step)


def run_trajectory_sim(
    plants: list[PlantModel],
    policy_spec: PolicySpec,
    m: int,
    config: SimConfig,
) -> SimReport:
    """Full-noise simulation of plant, local filter and remote estimator.

    Propagates the local posterior error e and the remote error d exactly:

        e' = (I - K C)(A e + w) - K v
        d' = A e + w          on a delivery (the remote adopts the one-step
                               prediction of the last local posterior)
        d' = A d + w          otherwise

    and reports the empirical squared error ||d||^2 summed over sensors.
    The local filter runs at its converged gain throughout, matching the
    steady-state assumption of the covariance model. Each block draws its
    noise from a third Philox stream: per step one flat draw holding w_i
    then v_i for each plant in turn. Each run of consecutive plants of one
    (n, m) shape (a uniform ensemble is one run) steps as one stack, so its
    noise blocks are views of that draw and each product is one ``matmul``.
    The remote error of a diverged run stays frozen (its noise is still
    drawn), so it cannot overflow.
    """
    cfg = replace(config, metric="squared-error")
    filters, cps = filters_and_params(plants)
    proto = policy_spec.make(plants, filters, cps, m)

    def stack_t(mats):  # contiguous transposes: matmul reads them faster than views
        return np.ascontiguousarray(np.stack(mats).transpose(0, 2, 1))

    groups = []  # (lo, hi, A^T, C^T, K^T, chol(Q)^T, chol(R)^T, chol(Pbar)^T) per run
    lo = 0
    for _, run in itertools.groupby(plants, key=lambda pl: (pl.n, pl.m)):
        run = list(run)
        hi = lo + len(run)
        groups.append((lo, hi, stack_t([pl.A for pl in run]), stack_t([pl.C for pl in run]),
                       stack_t([ss.gain for ss in filters[lo:hi]]),
                       stack_t([np.linalg.cholesky(pl.Q) for pl in run]),
                       stack_t([np.linalg.cholesky(pl.R) for pl in run]),
                       stack_t([np.linalg.cholesky(ss.posterior_cov) for ss in filters[lo:hi]])))
        lo = hi

    def make_step(bi, b, diverged):
        noise = _philox(cfg.seed, 3 * bi + 2)
        # the local start errors of every stack, then the remote ones
        e_loc, d_rem = [[noise.standard_normal((hi - lo, b, a_t.shape[1])) @ lp_t
                         for lo, hi, a_t, *_, lp_t in groups] for _ in range(2)]
        draw = np.empty(b * sum(pl.n + pl.m for pl in plants))
        views = []  # per group: its w and v blocks in ``draw``, and a row record
        at = 0
        for lo, hi, _, c_t, *_ in groups:
            nx, ny = c_t.shape[1:]
            seg = draw[at:at + b * (hi - lo) * (nx + ny)].reshape(hi - lo, -1)
            views.append((seg[:, :b * nx].reshape(hi - lo, b, nx),
                          seg[:, b * nx:].reshape(hi - lo, b, ny),
                          np.dtype((np.void, 8 * nx))))
            at += seg.size
        sq = np.empty((len(plants), b))  # per-plant squared errors, plant order

        def step(gamma, deltas, index, values):
            frozen = diverged.any()
            noise.standard_normal(out=draw)
            for g, (lo, hi, a_t, c_t, k_t, lq_t, lr_t, _) in enumerate(groups):
                w_raw, v_raw, row = views[g]
                w = w_raw @ lq_t
                pred = e_loc[g] @ a_t
                pred += w
                d_new = d_rem[g] @ a_t
                d_new += w
                # a delivery replaces whole rows: copying them as opaque
                # records is about 3x faster than a mask broadcast along rows
                np.copyto(d_new.view(row)[..., 0], pred.view(row)[..., 0],
                          where=gamma[:, lo:hi].T)
                if frozen:
                    d_new[:, diverged] = d_rem[g][:, diverged]
                d_rem[g] = d_new
                y = pred @ c_t
                y += v_raw @ lr_t
                e_loc[g] = pred - y @ k_t
                np.einsum("pij,pij->pi", d_new, d_new, out=sq[lo:hi])
            return sq.sum(axis=0)

        return step

    return _run_blocks(plants, proto, cfg, 3, make_step)


def run_sim(
    plants: list[PlantModel],
    policy_spec: PolicySpec,
    m: int | None,
    config: SimConfig,
) -> SimReport:
    """Trajectory level for the ``squared-error`` metric, covariance otherwise.

    ``m`` None takes M = N/2, rounded half to even and at least 1.
    """
    if m is None:
        m = _default_m(len(plants))
    runner = (run_trajectory_sim if config.metric == "squared-error"
              else run_covariance_sim)
    return runner(plants, policy_spec, m, config)


# ---------------------------------------------------------------------------
# decision timing
# ---------------------------------------------------------------------------


def measure_decision_time(
    plants: list[PlantModel],
    policy_specs: list[PolicySpec],
    n_list: list[int],
    decisions: int = 10_000,
    time_budget_s: float = 2.0,
    seed: int = 0,
) -> list[dict]:
    """Median per-decision wall time for each (policy, N) at the default M.

    M is N/2, rounded half to even and at least 1, as in :func:`run_sim`.

    Each decision is one ``policy.decide`` call on one AoI vector from a
    pool of warm AoI states (the deployed call pattern, not the vectorized
    batch path). Policies slower than the per-cell time budget are measured
    on fewer decisions, but on at least one batch; the count actually timed
    is reported alongside the median. ``decisions < 1`` or a budget that is
    not positive raises ``ValueError``.
    """
    if decisions < 1:
        raise ValueError(f"decisions={decisions} must be at least 1")
    if not time_budget_s > 0.0:
        raise ValueError(f"time_budget_s={time_budget_s} must be positive")
    rows: list[dict] = []
    for n in n_list:
        ens = _cycle(plants, n)
        filters, cps = filters_and_params(ens)
        probs = np.array([pl.p for pl in ens])
        m = _default_m(n)
        # warm state pool from a short greedy-scheduled chain
        rng = _philox(seed, 7)
        pool = np.ones((128, n), dtype=np.int64)
        warm_pol = AoiGreedyPolicy(n, m)
        for _ in range(256):
            mask = warm_pol.decide_batch(pool)
            _age(pool, mask & (rng.random((128, n)) < probs[None, :]))
        for spec in policy_specs:
            policy = spec.make(ens, filters, cps, m)
            policy.rng = _philox(seed, 11)
            policy.decide(pool[0])  # warm tables/caches once
            batch = 16
            samples: list[float] = []
            done = 0
            start = time.perf_counter()
            while not samples or (done < decisions
                                  and time.perf_counter() - start < time_budget_s):
                t0 = time.perf_counter()
                for k in range(batch):
                    policy.decide(pool[(done + k) % 128])
                samples.append((time.perf_counter() - t0) / batch)
                done += batch
            rows.append({"policy": spec.kind, "n": n, "m": m,
                         "median_s": float(np.median(samples)), "decisions": done})
    return rows


# ---------------------------------------------------------------------------
# experiment sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    sweep: str
    sweep_value: float
    report: SimReport


def run_sweep(
    kind: str,
    values,
    plants: list[PlantModel],
    policy_specs: list[PolicySpec],
    config: SimConfig,
    m: int | None = None,
) -> list[SweepRow]:
    """One SimReport per (sweep point, policy).

    Kinds: ``scale`` grows N and takes no ``m``, as each point needs its own
    M = N/2; ``heterogeneity`` varies the fraction (in [0, 1]) of distinct
    plants in the ensemble; ``channel`` forces a common success probability
    p on every sensor. Each point runs :func:`run_sim` with ``m``.
    """
    values = [float(v) for v in values]
    if kind not in ("scale", "heterogeneity", "channel"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    if kind == "scale" and m is not None:
        raise ValueError(f"a scale sweep takes M = N/2 at each point, not m={m}")
    bad = [v for v in values if not (v >= 1 and v.is_integer())] if kind == "scale" else []
    if bad:  # N is a whole number of sensors: 2.5 would run N = 2
        raise ValueError(f"a scale sweep point is a sensor count N >= 1, got N={bad[0]:g}")
    if kind == "heterogeneity" and not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"heterogeneity fractions must lie in [0, 1], got {values}")
    rows: list[SweepRow] = []
    for value in values:
        if kind == "scale":
            ens = _cycle(plants, int(value))
        elif kind == "heterogeneity":
            distinct = max(1, int(round(value * len(plants))))
            ens = [plants[i % distinct] for i in range(len(plants))]
        else:
            ens = [with_channel(pl, value) for pl in plants]
        for spec in policy_specs:
            rep = run_sim(ens, spec, m, config)
            rows.append(SweepRow(sweep=kind, sweep_value=value, report=rep))
    return rows


def write_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    lines = ["sweep_value,policy,mean_J,ci95,time_per_decision_ns,diverged_runs\n"]
    for r in rows:
        lines.append(
            f"{r.sweep_value!r},{r.report.policy},{r.report.mean_J!r},"
            f"{r.report.ci95!r},{r.report.wall_time_per_decision * 1e9!r},"
            f"{r.report.diverged_runs}\n"
        )
    write_atomic(path, "".join(lines))


def write_sweep_json(path: str, rows: list[SweepRow]) -> None:
    doc = {
        "schema_version": 1,
        "rows": [
            {
                "sweep": r.sweep,
                "sweep_value": r.sweep_value,
                "time_per_decision_ns": r.report.wall_time_per_decision * 1e9,
                **r.report.to_dict(),
            }
            for r in rows
        ],
    }
    write_atomic(path, json.dumps(doc, indent=1) + "\n")
