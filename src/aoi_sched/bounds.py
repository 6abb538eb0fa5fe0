"""Closed-form performance bounds and stability verdicts.

The long-run AoI cost of any feasible scheduler is sandwiched between

  * a lower bound from the budget-relaxed problem: each sensor then runs an
    optimal threshold policy, and the bound is the constrained minimum of
    the resulting stationary average over integer thresholds; and
  * an upper bound from a Lyapunov drift argument, driven by the optimal
    randomized stationary policy (schedule sensor i w.p. q_i each step).

Stability splits the same way: delivering at the full channel rate p is
necessary (rho^2 (1-p) < 1), delivering at the randomized rate q* p is
sufficient (rho^2 (1 - q* p) < 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, StabilityError, UnsupportedPlantError
from .plants import PlantModel, SteadyStateFilter, spectral_radius, write_atomic

_DEFECTIVE_COND = 1e8  # eigenvector basis above this condition number is treated as defective
_DELTA_TILDE_CAP = 10**6
_Q_EPS = 1e-9  # smallest margin of a randomized rate above its stabilizing minimum
_WATERFILL_TOL = 1e-13  # relative width at which the multiplier bisection stops
_EXACT_N_LIMIT = 6  # largest ensemble whose integer thresholds are searched exactly
_GAP_SEARCH_CAP = 512  # largest threshold tried per sensor by min_budget_gap


def necessary_stability(plant: PlantModel) -> bool:
    """Mean-square stability is impossible unless rho(A)^2 (1 - p) < 1."""
    rho = spectral_radius(plant.A)
    return rho * rho * (1.0 - plant.p) < 1.0


def sufficient_stability(plant: PlantModel, q_star_i: float) -> bool:
    """rho(A)^2 (1 - q* p) < 1 guarantees mean-square stability."""
    rho = spectral_radius(plant.A)
    return rho * rho * (1.0 - q_star_i * plant.p) < 1.0


# ---------------------------------------------------------------------------
# randomized stationary policy optimization (water-filling)
# ---------------------------------------------------------------------------


def optimize_randomized_q(alphas, betas, probs, m: int) -> tuple[np.ndarray, float]:
    """Optimal per-sensor scheduling marginals of the randomized policy.

    Minimizes sum_i beta_i (alpha_i - 1) / (1 - alpha_i + alpha_i p_i q_i)
    subject to sum q <= M and the per-sensor convergence requirement
    alpha (1 - p q) < 1. Every term is convex and decreasing in its q, so
    the optimum saturates sum q = min(M, N) and KKT water-filling applies:
    q_i(lam) clamps the unconstrained stationarity point into
    [q_i^min + _Q_EPS, 1] and a bisection on lam matches the budget.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = alphas.shape[0]
    q_min = (1.0 - 1.0 / alphas) / probs
    if np.any(q_min + _Q_EPS >= 1.0):
        bad = int(np.argmax(q_min))
        raise FeasibilityError(
            f"sensor {bad}: alpha (1 - p) >= 1, no scheduling rate in (0, 1] "
            "stabilizes it"
        )
    if float(np.sum(q_min)) >= m:
        raise FeasibilityError(
            f"sum of minimum rates {np.sum(q_min):.6g} >= M={m}; no stabilizing "
            "randomized policy exists"
        )
    lo_clip = q_min + _Q_EPS

    def objective(q: np.ndarray) -> float:
        return float(np.sum(betas * (alphas - 1.0) / (1.0 - alphas + alphas * probs * q)))

    if n <= m:
        q = np.ones(n)
        return q, objective(q)

    def q_of(lam: float) -> np.ndarray:
        raw = (np.sqrt(betas * (alphas - 1.0) * alphas * probs / lam) - 1.0 + alphas) / (
            alphas * probs
        )
        return np.clip(raw, lo_clip, 1.0)

    lam_lo, lam_hi = 1e-12, 1.0
    while np.sum(q_of(lam_hi)) > m:
        lam_hi *= 4.0
        if lam_hi > 1e300:
            raise FeasibilityError("water-filling failed to bracket the multiplier")
    for _ in range(200):
        lam = math.sqrt(lam_lo * lam_hi)
        if np.sum(q_of(lam)) > m:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo <= _WATERFILL_TOL * lam_hi:
            break
    q = q_of(math.sqrt(lam_lo * lam_hi))
    # tiny residual from clamping: rescale the interior coordinates onto the budget
    interior = (q > lo_clip + 1e-12) & (q < 1.0 - 1e-12)
    slack = m - float(q.sum())
    if abs(slack) > 0 and interior.any():
        q[interior] += slack / interior.sum()
        q = np.clip(q, lo_clip, 1.0)
    return q, objective(q)


# ---------------------------------------------------------------------------
# lower bound: threshold search over the relaxed per-sensor problem
# ---------------------------------------------------------------------------


def _term_factory(alpha: float, beta: float, p: float):
    k = p * alpha * beta / ((alpha - 1.0) * (1.0 - alpha + alpha * p))

    def term(d: int) -> float:
        with np.errstate(over="ignore"):
            num = p * alpha**d - alpha * p + alpha - 1.0
        return k * num / (d * p + 1.0 - p)

    return term


def _rate(p: float, d: int) -> float:
    return 1.0 / (d * p + 1.0 - p)


def _exact_threshold_search(
    alphas: np.ndarray, betas: np.ndarray, probs: np.ndarray, m: int
) -> tuple[float, list[int]]:
    """Exact integer minimization of the relaxed objective under the budget.

    Valid because each per-sensor term strictly increases with its integer
    threshold while its budget usage strictly decreases, so a depth-first
    search with a running-incumbent prune is exhaustive.
    """
    n = alphas.shape[0]
    terms = [_term_factory(a, b, p) for a, b, p in zip(alphas, betas, probs)]
    base = [t(1) for t in terms]

    # incumbent: lift thresholds greedily (cheapest cost per unit of relief)
    thr = [1] * n
    for _ in range(1_000_000):
        load = sum(_rate(probs[i], thr[i]) for i in range(n))
        if load <= m:
            break
        ratios = [
            (terms[i](thr[i] + 1) - terms[i](thr[i]))
            / (_rate(probs[i], thr[i]) - _rate(probs[i], thr[i] + 1))
            for i in range(n)
        ]
        thr[int(np.argmin(ratios))] += 1
    else:
        raise FeasibilityError("could not find a feasible threshold vector")
    best_val = sum(terms[i](thr[i]) for i in range(n))
    best_thr = list(thr)

    suffix_min = np.concatenate([np.cumsum(base[::-1])[::-1], [0.0]])

    def dfs(i: int, partial: float, load: float, chosen: list[int]) -> None:
        nonlocal best_val, best_thr
        if i == n:
            if load <= m and partial < best_val:
                best_val = partial
                best_thr = list(chosen)
            return
        d = 1
        while True:
            val = partial + terms[i](d)
            if val + suffix_min[i + 1] >= best_val:
                break  # terms increase with d: no larger threshold can win
            chosen.append(d)
            dfs(i + 1, val, load + _rate(probs[i], d), chosen)
            chosen.pop()
            d += 1

    dfs(0, 0.0, 0.0, [])
    return best_val, best_thr


def _dual_threshold_search(
    alphas: np.ndarray, betas: np.ndarray, probs: np.ndarray, m: int
) -> tuple[float, list[int]]:
    """Lagrangian-dual bound for larger ensembles.

    Bisects the budget multiplier; each inner problem is a one-dimensional
    integer minimization per sensor. The returned value is the dual optimum,
    a (possibly slightly loose) valid lower bound on the relaxed problem.
    """
    n = alphas.shape[0]
    terms = [_term_factory(a, b, p) for a, b, p in zip(alphas, betas, probs)]

    def per_sensor(i: int, lam: float) -> tuple[float, int]:
        best, best_d = math.inf, 1
        d = 1
        while True:
            t = terms[i](d)
            val = t + lam * _rate(probs[i], d)
            if val < best:
                best, best_d = val, d
            if t >= best:  # the lam-free part alone already exceeds the incumbent
                return best, best_d
            d += 1

    def dual(lam: float) -> tuple[float, float, list[int]]:
        vals, ds = zip(*(per_sensor(i, lam) for i in range(n)))
        load = sum(_rate(probs[i], ds[i]) for i in range(n))
        return sum(vals) - lam * m, load, list(ds)

    lam_lo, lam_hi = 0.0, 1.0
    while dual(lam_hi)[1] > m:
        lam_hi *= 4.0
        if lam_hi > 1e300:
            raise FeasibilityError("dual search failed to bracket the multiplier")
    best_value = dual(0.0)[0]
    best_thr = dual(lam_hi)[2]
    for _ in range(100):
        lam = 0.5 * (lam_lo + lam_hi)
        value, load, ds = dual(lam)
        best_value = max(best_value, value)
        if load > m:
            lam_lo = lam
        else:
            lam_hi = lam
            best_thr = ds
    return best_value, best_thr


def lower_bound_J(alphas, betas, probs, m: int) -> tuple[float, list[int]]:
    """Lower bound on the AoI-function cost of any feasible scheduler.

    The bound is the Lagrangian-dual value of the per-sensor threshold
    problem, which equals the true budget-relaxed optimum: the relaxed
    problem's optimal policy may randomize between two adjacent integer
    thresholds to meet the budget exactly, so the minimum over pure integer
    thresholds sits slightly above the relaxed optimum and is NOT a valid
    lower bound on scheduler performance (simulation exceeds it by up to a
    couple of percent on tight instances). The reported thresholds are the
    integer minimizers (the deterministic DMDP solution) when the ensemble
    is small enough to search exactly (N <= 6).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    probs = np.asarray(probs, dtype=float)
    unstable = alphas * (1.0 - probs) >= 1.0
    if np.any(unstable):
        raise StabilityError(
            f"sensors {np.flatnonzero(unstable).tolist()} violate alpha (1-p) < 1"
        )
    dual_value, dual_thr = _dual_threshold_search(alphas, betas, probs, m)
    if alphas.shape[0] <= _EXACT_N_LIMIT:
        primal_value, thresholds = _exact_threshold_search(alphas, betas, probs, m)
        if dual_value > primal_value + 1e-9 * max(1.0, abs(primal_value)):
            raise RuntimeError("dual bound exceeded the integer primal")
        return min(dual_value, primal_value), thresholds
    return dual_value, dual_thr


def optimal_threshold_cap(p: float, g_min: float) -> float:
    """Upper bound on an optimal threshold given the smallest budget gap."""
    if g_min <= 0.0:
        raise ValueError("g_min must be positive")
    return (1.0 / p) * (1.0 / g_min + 2.0 * p - 1.0)


def min_budget_gap(probs, m: int, i: int) -> float:
    """Smallest positive budget gap left for sensor i by the other sensors.

    Exact when the other sensors at threshold 1 fit under the budget
    (their load is then maximal at N-1); otherwise a bounded search over
    the remaining threshold vectors, reported as a best-effort estimate.
    """
    probs = np.asarray(probs, dtype=float)
    others = [j for j in range(probs.shape[0]) if j != i]
    if len(others) < m:
        return float(m - len(others))
    best = 0.0
    budget = [200_000]  # node cap: beyond it the estimate is best-effort

    def dfs(idx: int, load: float) -> None:
        nonlocal best
        if load >= m or budget[0] <= 0:
            return
        budget[0] -= 1
        if idx == len(others):
            best = max(best, load)
            return
        remaining = len(others) - idx
        j = others[idx]
        for d in range(1, _GAP_SEARCH_CAP + 1):
            g = _rate(probs[j], d)
            if load + g + (remaining - 1) <= best:
                break  # contributions only shrink with larger thresholds
            dfs(idx + 1, load + g)

    dfs(0, 0.0)
    if best <= 0.0:
        return float(m)
    return float(m - best)


def lower_bound_J_origin(
    plants: list[PlantModel],
    filters: list[SteadyStateFilter],
    m: int,
) -> tuple[float, list[int], list[float]]:
    """Lower bound on the true trace-of-covariance cost.

    Uses the reverse-direction trace inequalities: with U the (unit-column)
    eigenvector basis of A, zeta = lambda_min(U U^H) lambda_min(U^-1 U^-H)
    scales the smallest eigenvalue of Q and the filter posterior into a
    geometric lower envelope, and the threshold search runs on those
    pessimistic parameters. Only diagonalizable A is supported; complex
    eigenvector bases use the conjugate transpose.
    """
    alphas, betas, zetas = [], [], []
    for idx, (pl, ss) in enumerate(zip(plants, filters)):
        rho = spectral_radius(pl.A)
        alpha = rho * rho
        if alpha * (1.0 - pl.p) >= 1.0:
            raise StabilityError(f"sensor {idx} violates rho^2 (1-p) < 1")
        eigvals, u = np.linalg.eig(pl.A)
        if np.linalg.cond(u) > _DEFECTIVE_COND:
            raise UnsupportedPlantError(
                f"sensor {idx}: A is numerically defective; the Jordan-basis "
                "bound is not supported"
            )
        uinv = np.linalg.inv(u)
        zeta = float(
            np.min(np.linalg.eigvalsh(u @ u.conj().T)).real
            * np.min(np.linalg.eigvalsh(uinv @ uinv.conj().T)).real
        )
        lam_q = float(np.min(np.linalg.eigvalsh(pl.Q)))
        lam_p = float(np.min(np.linalg.eigvalsh(ss.posterior_cov)))
        alphas.append(alpha)
        betas.append(zeta * min(lam_q, lam_p))
        zetas.append(zeta)
    probs = [pl.p for pl in plants]
    value, thr = lower_bound_J(alphas, betas, probs, m)
    return value, thr, zetas


# ---------------------------------------------------------------------------
# upper bound: Lyapunov drift of the index policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpperBoundParts:
    """Per-sensor pieces of the drift-based upper bound."""

    l1: np.ndarray
    l2: np.ndarray
    eta: np.ndarray
    s: np.ndarray
    delta_tilde: np.ndarray
    c_terms: np.ndarray
    value: float


def upper_bound_J(alphas, betas, probs, m: int, q_star) -> UpperBoundParts:
    """Drift-based upper bound on the index policy's AoI-function cost.

    Exists only under sum_i (1/p_i)(1 - 1/alpha_i) < M; the Lyapunov
    coefficients l1, l2 are chosen so that minimizing the drift reproduces
    the index policy, and the randomized marginals q* bound the drift.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    probs = np.asarray(probs, dtype=float)
    q_star = np.asarray(q_star, dtype=float)
    if float(np.sum((1.0 / probs) * (1.0 - 1.0 / alphas))) >= m:
        raise FeasibilityError(
            "existence condition fails: no randomized policy stabilizes the "
            "system, so the drift bound is unavailable"
        )
    if np.any(alphas * (1.0 - probs * q_star) >= 1.0):
        raise StabilityError("q* does not satisfy alpha (1 - p q*) < 1")
    l1 = probs / (1.0 - (1.0 - probs) * alphas)
    l2 = (alphas - 1.0 + probs - 2.0 * alphas * probs) / (
        (alphas - 1.0) * (1.0 - alphas * (1.0 - probs))
    )
    eta = l1 * (1.0 - alphas * (1.0 - probs * q_star))
    s = alphas * (l1 + l2) * (1.0 - probs * q_star) - l2
    # smallest integer with eta*delta - s strictly positive
    delta_tilde = np.maximum(1.0, np.floor(s / eta) + 1.0)
    if np.any(delta_tilde > _DELTA_TILDE_CAP):
        raise FeasibilityError("drift margin too small: threshold search cap exceeded")
    delta_tilde = delta_tilde.astype(np.int64)
    with np.errstate(over="ignore"):
        c_terms = np.where(
            delta_tilde > 1,
            eta * delta_tilde * betas * np.power(alphas, delta_tilde.astype(float)),
            0.0,
        )
    denom = float(np.min(eta * delta_tilde - s))
    value = (float(np.sum(c_terms)) + float(
        np.sum(probs * q_star * betas * alphas * (l1 + l2))
    )) / denom
    return UpperBoundParts(
        l1=l1, l2=l2, eta=eta, s=s, delta_tilde=delta_tilde, c_terms=c_terms,
        value=value,
    )


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------


@dataclass
class BoundsReport:
    """Bounds, optimal marginals, thresholds and stability verdicts."""

    m: int
    alphas: list[float]
    betas: list[float]
    probs: list[float]
    necessary_stable: list[bool]
    sufficient_stable: list[bool] | None
    lower_J: float | None
    thresholds_star: list[int] | None
    lower_J_origin: float | None
    origin_thresholds: list[int] | None
    zetas: list[float] | None
    upper_J: float | None
    q_star: list[float] | None
    q_objective: float | None
    l1: list[float] | None
    l2: list[float] | None
    eta: list[float] | None
    s_const: list[float] | None
    delta_tilde: list[int] | None
    c_const: list[float] | None
    notes: list[str]

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["schema_version"] = 1
        return d

    def to_json(self, path: str) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=1) + "\n")


def compute_bounds_report(
    plants: list[PlantModel],
    filters: list[SteadyStateFilter],
    char_params,
    m: int,
) -> BoundsReport:
    """Evaluate every bound that exists for this ensemble, with reasons."""
    alphas = [cp.alpha for cp in char_params]
    betas = [cp.beta for cp in char_params]
    probs = [pl.p for pl in plants]
    notes: list[str] = []
    necessary = [necessary_stability(pl) for pl in plants]

    report = BoundsReport(
        m=m, alphas=alphas, betas=betas, probs=probs,
        necessary_stable=necessary, sufficient_stable=None,
        lower_J=None, thresholds_star=None,
        lower_J_origin=None, origin_thresholds=None, zetas=None,
        upper_J=None, q_star=None, q_objective=None,
        l1=None, l2=None, eta=None, s_const=None, delta_tilde=None,
        c_const=None, notes=notes,
    )

    if not all(necessary):
        bad = [i for i, ok in enumerate(necessary) if not ok]
        notes.append(
            f"sensors {bad} fail the necessary stability condition "
            "rho^2 (1-p) < 1: estimation error diverges under every policy, "
            "so the bounds are not computed"
        )
        return report

    lo, thr = lower_bound_J(alphas, betas, probs, m)
    report.lower_J = lo
    report.thresholds_star = [int(d) for d in thr]

    try:
        lo_origin, thr_origin, zetas = lower_bound_J_origin(plants, filters, m)
        report.lower_J_origin = lo_origin
        report.origin_thresholds = [int(d) for d in thr_origin]
        report.zetas = zetas
    except UnsupportedPlantError as exc:
        notes.append(str(exc))

    try:
        q_star, q_obj = optimize_randomized_q(alphas, betas, probs, m)
        report.q_star = [float(q) for q in q_star]
        report.q_objective = q_obj
        report.sufficient_stable = [
            sufficient_stability(pl, float(q)) for pl, q in zip(plants, q_star)
        ]
        parts = upper_bound_J(alphas, betas, probs, m, q_star)
        report.upper_J = parts.value
        report.l1 = parts.l1.tolist()
        report.l2 = parts.l2.tolist()
        report.eta = parts.eta.tolist()
        report.s_const = parts.s.tolist()
        report.delta_tilde = [int(d) for d in parts.delta_tilde]
        report.c_const = parts.c_terms.tolist()
    except FeasibilityError as exc:
        notes.append(str(exc))
    return report
