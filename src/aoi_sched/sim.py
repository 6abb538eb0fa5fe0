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

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .plants import PlantModel, filters_and_params, write_atomic
from .policies import COST_METRICS, AoiGreedyPolicy, PolicySpec, metric_cost_tables

METRICS = COST_METRICS + ("squared-error",)

DIVERGENCE_LIMIT = 1e12
_HIST_BINS = 128  # AoI histogram bins; the last one absorbs everything older
_SWEEP_N_PER_M = 2.0  # N/M of sweep points that are not given M
_RUN_BLOCK = 2048  # runs per block (see SimConfig)


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
        return d


def _philox(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), tag & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cycle(plants: list[PlantModel], n: int) -> list[PlantModel]:
    return [plants[i % len(plants)] for i in range(n)]


@dataclass
class _BlockStats:
    run_means: np.ndarray
    diverged: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    histogram: np.ndarray
    decision_time: float


def _aggregate(blocks: list[_BlockStats], policy_name, config) -> SimReport:
    means = np.concatenate([b.run_means for b in blocks])
    diverged = np.concatenate([b.diverged for b in blocks])
    attempts = np.sum([b.attempts for b in blocks], axis=0)
    successes = np.sum([b.successes for b in blocks], axis=0)
    hist = np.sum([b.histogram for b in blocks], axis=0)
    time_total = sum(b.decision_time for b in blocks)
    ok = ~diverged
    if ok.any():
        mean_j = float(np.mean(means[ok]))
        sd = float(np.std(means[ok], ddof=1)) if ok.sum() > 1 else 0.0
        ci = 1.96 * sd / math.sqrt(ok.sum())
    else:
        mean_j, ci = math.inf, math.nan
    denom = (config.horizon - config.warmup_steps) * config.runs
    with np.errstate(invalid="ignore", divide="ignore"):
        success_rate = np.where(attempts > 0, successes / np.maximum(attempts, 1), 0.0)
    return SimReport(
        policy=policy_name,
        metric=config.metric,
        mean_J=mean_j,
        ci95=ci,
        per_sensor_attempt_rate=(attempts / denom).tolist(),
        per_sensor_success_rate=success_rate.tolist(),
        aoi_histogram=hist.tolist(),
        wall_time_per_decision=time_total / (config.runs * config.horizon),
        diverged_runs=int(diverged.sum()),
        runs=config.runs,
        horizon=config.horizon,
        warmup=config.warmup_steps,
        seed=config.seed,
    )


def _run_blocks(plants, proto, config: SimConfig, stride: int, make_step) -> SimReport:
    """Run the replications block by block and reduce them in block order.

    Block ``bi`` draws its channel from Philox tag ``stride * bi`` and hands
    tag ``stride * bi + 1`` to its policy clone; a level may key further
    streams of its own above those. ``make_step(bi, b, diverged)`` builds the
    block's per-step cost kernel ``step(gamma, deltas, measured)``, called
    after every AoI update and read only on measured (post-warmup) steps.
    Runs whose instantaneous cost ever exceeds 1e12 (or overflows) are set in
    ``diverged``: they stop accumulating and are left out of the mean.
    """
    n = len(plants)
    if proto.n != n:
        raise ValueError(f"{proto.name} policy is sized for {proto.n} sensors, not {n}")
    probs = np.array([pl.p for pl in plants])
    warm = config.warmup_steps
    measured = config.horizon - warm

    def one_block(args) -> _BlockStats:
        bi, b = args
        policy = proto.clone()
        policy.rng = _philox(config.seed, stride * bi + 1)
        ch = _philox(config.seed, stride * bi)
        deltas = np.ones((b, n), dtype=np.int64)
        cost_acc = np.zeros(b)
        diverged = np.zeros(b, dtype=bool)
        step = make_step(bi, b, diverged)
        attempts = np.zeros(n, dtype=np.int64)
        successes = np.zeros(n, dtype=np.int64)
        hist = np.zeros(_HIST_BINS + 1, dtype=np.int64)
        t_policy = 0.0
        for t in range(1, config.horizon + 1):
            t0 = time.perf_counter()
            mask = policy.decide_batch(deltas)
            t_policy += time.perf_counter() - t0
            gamma = mask & (ch.random((b, n)) < probs[None, :])
            deltas = np.where(gamma, 1, deltas + 1)
            step_cost = step(gamma, deltas, t > warm)
            if t > warm:
                attempts += mask.sum(axis=0)
                successes += gamma.sum(axis=0)
                diverged |= ~np.isfinite(step_cost) | (step_cost > DIVERGENCE_LIMIT)
                cost_acc += np.where(diverged, 0.0, step_cost)
                hist += np.bincount(
                    np.minimum(deltas, _HIST_BINS).ravel(), minlength=_HIST_BINS + 1
                )
        return _BlockStats(
            run_means=cost_acc / measured,
            diverged=diverged,
            attempts=attempts,
            successes=successes,
            histogram=hist,
            decision_time=t_policy,
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
    accumulated after warmup.
    """
    filters, cps = filters_and_params(plants)
    tabs = np.column_stack(
        metric_cost_tables(config.metric, plants, filters, cps, config.horizon + 1))
    proto = policy_spec.make(plants, filters, cps, m)
    sensor_cols = np.arange(len(plants))[None, :]

    def step(gamma, deltas, measured):
        return tabs[deltas, sensor_cols].sum(axis=1) if measured else None

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
    noise from a third Philox stream. The remote error of a diverged run
    stays frozen (its noise is still drawn), so it cannot overflow.
    """
    cfg = replace(config, metric="squared-error")
    filters, cps = filters_and_params(plants)
    proto = policy_spec.make(plants, filters, cps, m)
    chol_q = [np.linalg.cholesky(pl.Q) for pl in plants]
    chol_r = [np.linalg.cholesky(pl.R) for pl in plants]
    chol_p = [np.linalg.cholesky(ss.posterior_cov) for ss in filters]

    def make_step(bi, b, diverged):
        noise = _philox(cfg.seed, 3 * bi + 2)
        e_loc = [noise.standard_normal((b, pl.n)) @ chol_p[i].T
                 for i, pl in enumerate(plants)]
        d_rem = [noise.standard_normal((b, pl.n)) @ chol_p[i].T
                 for i, pl in enumerate(plants)]

        def step(gamma, deltas, measured):
            live = np.flatnonzero(~diverged) if diverged.any() else slice(None)
            step_cost = np.zeros(b)
            for i, pl in enumerate(plants):
                w = noise.standard_normal((b, pl.n)) @ chol_q[i].T
                v = noise.standard_normal((b, pl.m)) @ chol_r[i].T
                pred = e_loc[i] @ pl.A.T + w
                d_rem[i][live] = np.where(gamma[live, i : i + 1], pred[live],
                                          d_rem[i][live] @ pl.A.T + w[live])
                e_loc[i] = pred - (pred @ pl.C.T + v) @ filters[i].gain.T
                step_cost += np.einsum("ij,ij->i", d_rem[i], d_rem[i])
            return step_cost

        return step

    return _run_blocks(plants, proto, cfg, 3, make_step)


def run_sim(
    plants: list[PlantModel],
    policy_spec: PolicySpec,
    m: int,
    config: SimConfig,
) -> SimReport:
    """Trajectory level for the ``squared-error`` metric, covariance otherwise."""
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
    """Median per-decision wall time for each (policy, N) at M = max(1, N // 2).

    Decisions are timed one at a time on a pool of warm AoI states (the
    deployed call pattern, not the vectorized batch path). Policies slower
    than the per-cell time budget are measured on fewer decisions; the
    count actually timed is reported alongside the median.
    """
    rows: list[dict] = []
    for n in n_list:
        ens = _cycle(plants, n)
        filters, cps = filters_and_params(ens)
        probs = np.array([pl.p for pl in ens])
        m = max(1, n // 2)
        # warm state pool from a short greedy-scheduled chain
        rng = _philox(seed, 7)
        deltas = np.ones((128, n), dtype=np.int64)
        warm_pol = AoiGreedyPolicy(n, m)
        for _ in range(256):
            mask = warm_pol.decide_batch(deltas)
            gamma = mask & (rng.random((128, n)) < probs[None, :])
            deltas = np.where(gamma, 1, deltas + 1)
        pool = deltas
        for spec in policy_specs:
            policy = spec.make(ens, filters, cps, m)
            policy.rng = _philox(seed, 11)
            policy.decide_batch(pool[:1])  # warm tables/caches once
            batch = 16
            samples: list[float] = []
            done = 0
            start = time.perf_counter()
            while done < decisions and time.perf_counter() - start < time_budget_s:
                t0 = time.perf_counter()
                for k in range(batch):
                    policy.decide_batch(pool[(done + k) % 128 : (done + k) % 128 + 1])
                samples.append((time.perf_counter() - t0) / batch)
                done += batch
            rows.append(
                {
                    "policy": spec.kind,
                    "n": n,
                    "m": m,
                    "median_s": float(np.median(samples)),
                    "decisions": done,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# experiment sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    sweep: str
    sweep_value: float
    report: SimReport
    time_per_decision_ns: float = field(init=False)

    def __post_init__(self) -> None:
        self.time_per_decision_ns = self.report.wall_time_per_decision * 1e9


def run_sweep(
    kind: str,
    values,
    plants: list[PlantModel],
    policy_specs: list[PolicySpec],
    config: SimConfig,
    m: int | None = None,
) -> list[SweepRow]:
    """One SimReport per (sweep point, policy).

    Kinds: ``scale`` grows N at N/M = 2; ``heterogeneity`` varies the
    fraction of distinct plants in the ensemble; ``channel`` forces a common
    success probability p on every sensor. The last two take M = ``m``, or
    N/2 when ``m`` is None. Each point runs the level of :func:`run_sim`.
    """
    rows: list[SweepRow] = []
    for value in values:
        if kind == "scale":
            n = int(value)
            ens = _cycle(plants, n)
            mm = max(1, int(round(n / _SWEEP_N_PER_M)))
        elif kind == "heterogeneity":
            n = len(plants)
            distinct = max(1, int(round(float(value) * n)))
            ens = [plants[i % distinct] for i in range(n)]
            mm = m if m is not None else max(1, int(round(n / _SWEEP_N_PER_M)))
        elif kind == "channel":
            p = float(value)
            ens = [replace(pl, p=p) for pl in plants]
            mm = m if m is not None else max(1, int(round(len(ens) / _SWEEP_N_PER_M)))
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
        for spec in policy_specs:
            rep = run_sim(ens, spec, mm, config)
            rows.append(SweepRow(sweep=kind, sweep_value=float(value), report=rep))
    return rows


def write_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    lines = ["sweep_value,policy,mean_J,ci95,time_per_decision_ns,diverged_runs\n"]
    for r in rows:
        lines.append(
            f"{r.sweep_value!r},{r.report.policy},{r.report.mean_J!r},"
            f"{r.report.ci95!r},{r.time_per_decision_ns!r},"
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
                "time_per_decision_ns": r.time_per_decision_ns,
                **r.report.to_dict(),
            }
            for r in rows
        ],
    }
    write_atomic(path, json.dumps(doc, indent=1) + "\n")
