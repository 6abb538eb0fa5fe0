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
from dataclasses import dataclass, field

import numpy as np

from .aoi import (AoiFunction, ThresholdPolicy, threshold_average_cost,
                  threshold_transmission_rate)
from .errors import FeasibilityError, StabilityError, UnsupportedPlantError
from .plants import PlantModel, SteadyStateFilter, write_atomic

_DEFECTIVE_COND = 1e8  # eigenvector basis above this condition number is treated as defective
_DELTA_TILDE_CAP = 10**6
_Q_EPS = 1e-9  # smallest margin of a randomized rate above its stabilizing minimum
_WATERFILL_TOL = 1e-13  # relative width at which the multiplier bisection stops
_EXACT_N_LIMIT = 6  # largest ensemble whose integer thresholds are searched exactly


def necessary_stability(plant: PlantModel) -> bool:
    """Mean-square stability is impossible unless rho(A)^2 (1 - p) < 1."""
    rho = plant.rho
    return rho * rho * (1.0 - plant.p) < 1.0


def sufficient_stability(plant: PlantModel, q_star_i: float) -> bool:
    """rho(A)^2 (1 - q* p) < 1 guarantees mean-square stability."""
    rho = plant.rho
    return rho * rho * (1.0 - q_star_i * plant.p) < 1.0


def _sensor_arrays(m: int, *columns) -> list[np.ndarray]:
    """Per-sensor inputs as float arrays of one length N >= 1, budget m >= 1."""
    arrays = [np.asarray(c, dtype=float) for c in columns]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1 or not arrays[0].size:
        raise ValueError(f"per-sensor inputs of shapes {[a.shape for a in arrays]} are not "
                         "non-empty 1-D sequences of one length")
    if not m >= 1:
        raise ValueError(f"budget m={m} must be at least 1")
    return arrays


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
    alphas, betas, probs = _sensor_arrays(m, alphas, betas, probs)
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


class _RelaxedTerms:
    """Each sensor's average cost (at zero price) and attempt rate at the
    thresholds 1..D: rows of two (N, D) tables of the scalar closed forms,
    Python floats, since numpy's ``power`` can differ in the last bit."""

    def __init__(self, alphas, betas, probs):
        self.fns = [AoiFunction(*map(float, abp))
                    for abp in zip(alphas, betas, probs, strict=True)]
        self.cost = self.rate = np.empty((len(self.fns), 0))
        self.grow()

    def grow(self) -> None:
        """Double D (to 16 from empty), for a search that walks past it."""
        pols = [ThresholdPolicy(d) for d in
                range(self.cost.shape[1] + 1, max(16, 2 * self.cost.shape[1]) + 1)]
        self.cost = np.hstack([self.cost, [[threshold_average_cost(fn, tp, 0.0)
                                            for tp in pols] for fn in self.fns]])
        self.rate = np.hstack([self.rate, [[threshold_transmission_rate(fn.p, tp)
                                            for tp in pols] for fn in self.fns]])

    def at(self, i: int, d: int) -> tuple[float, float]:
        while d > self.cost.shape[1]:
            self.grow()
        return self.cost.item(i, d - 1), self.rate.item(i, d - 1)

    def minima(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Per sensor, the least cost + lam * rate over all thresholds and the
        first threshold that reaches it: walk d up while tracking the best,
        and stop at the first d whose lam-free part alone reaches that best."""
        while True:
            vals = self.cost + lam * self.rate
            best = np.minimum.accumulate(vals, axis=1)
            stops = self.cost >= best
            if stops.any(axis=1).all():
                break
            self.grow()
        best = best[np.arange(len(self.fns)), stops.argmax(axis=1)]
        return best, (vals == best[:, None]).argmax(axis=1) + 1


def _exact_threshold_search(
    terms: _RelaxedTerms, m: int, incumbent: list[int], lam: float,
) -> tuple[float, list[int]]:
    """Exact integer minimization of the relaxed objective under the budget.

    Starts from the feasible threshold vector ``incumbent``. Valid because
    each per-sensor term strictly increases with its integer threshold while
    its budget usage strictly decreases, so a depth-first search is
    exhaustive under two branch-and-bound prunes: at any price mu >= 0, the
    completions of a node at sensor i with running cost c and load l cost
    at least c + S_mu[i] - mu (M - l), S_mu the suffix sums of
    ``terms.minima(mu)``. Both mu = 0 and the dual's multiplier ``lam``
    prune, the latter less a rounding margin, so results keep their bits. A
    threshold whose running load already exceeds M is skipped, not its
    larger ones: every later sensor adds positive load, so no completion of
    it fits the budget, but a larger threshold has a lower rate and may.
    """
    n = len(incumbent)
    best_thr = list(incumbent)
    best_val = sum(terms.at(i, best_thr[i])[0] for i in range(n))
    mins = [terms.minima(mu)[0].tolist() + [0.0] for mu in (0.0, lam)]
    with np.errstate(over="ignore"):  # sums past float64's range prune as inf
        suffix_min, suffix_lam = np.cumsum(np.array(mins)[:, ::-1], axis=1)[:, ::-1].tolist()

    def beaten(val: float, load: float, i: int) -> bool:
        # the price-lam bound reaches best_val (never where inf makes it nan)
        s = suffix_lam[i]
        return val + s - lam * (m - load) - 1e-12 * (val + s + lam * m) >= best_val

    def dfs(i: int, partial: float, load: float, chosen: list[int]) -> None:
        nonlocal best_val, best_thr
        if i == n:
            if load <= m and partial < best_val:
                best_val = partial
                best_thr = list(chosen)
            return
        d = 1
        while True:
            cost, rate = terms.at(i, d)
            val = partial + cost
            if val + suffix_min[i + 1] >= best_val or beaten(val, load, i + 1):
                break  # terms increase with d: no larger threshold can win
            if load + rate <= m and not beaten(val, load + rate, i + 1):
                chosen.append(d)
                dfs(i + 1, val, load + rate, chosen)
                chosen.pop()
            d += 1

    dfs(0, 0.0, 0.0, [])
    return best_val, best_thr


def _dual_threshold_search(terms: _RelaxedTerms, m: int) -> tuple[float, list[int], float]:
    """Lagrangian-dual bound for larger ensembles.

    Bisects the budget multiplier; each inner problem is a one-dimensional
    integer minimization per sensor. The returned value is the dual optimum,
    a (possibly slightly loose) valid lower bound on the relaxed problem,
    with the multiplier that reached it; the thresholds are the minimizers
    at the smallest multiplier seen whose load fits the budget, so they are
    always feasible.
    """
    sensors = np.arange(len(terms.fns))

    def dual(lam: float) -> tuple[float, float, list[int]]:
        best, ds = terms.minima(lam)
        # sums in sensor order over Python floats: numpy's pairwise sum rounds otherwise
        load = sum(terms.rate[sensors, ds - 1].tolist())
        return sum(best.tolist()) - lam * m, load, ds.tolist()

    lam_lo, lam_hi = 0.0, 1.0
    while (hi := dual(lam_hi))[1] > m:
        lam_hi *= 4.0
        if lam_hi > 1e300:
            raise FeasibilityError("dual search failed to bracket the multiplier")
    best_value, best_lam = dual(0.0)[0], 0.0
    best_thr = hi[2]
    for _ in range(100):
        lam = 0.5 * (lam_lo + lam_hi)
        value, load, ds = dual(lam)
        if value > best_value:
            best_value, best_lam = value, lam
        if load > m:
            lam_lo = lam
        else:
            lam_hi = lam
            best_thr = ds
    return best_value, best_thr, best_lam


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
    alphas, betas, probs = _sensor_arrays(m, alphas, betas, probs)
    unstable = alphas * (1.0 - probs) >= 1.0
    if np.any(unstable):
        raise StabilityError(
            f"sensors {np.flatnonzero(unstable).tolist()} violate alpha (1-p) < 1"
        )
    terms = _RelaxedTerms(alphas, betas, probs)
    dual_value, dual_thr, lam = _dual_threshold_search(terms, m)
    if alphas.shape[0] <= _EXACT_N_LIMIT:
        primal_value, thresholds = _exact_threshold_search(terms, m, dual_thr, lam)
        if dual_value > primal_value + 1e-9 * max(1.0, abs(primal_value)):
            raise RuntimeError("dual bound exceeded the integer primal")
        return min(dual_value, primal_value), thresholds
    return dual_value, dual_thr


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
    for idx, (pl, ss) in enumerate(zip(plants, filters, strict=True)):
        rho = pl.rho
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
    alphas, betas, probs, q_star = _sensor_arrays(m, alphas, betas, probs, q_star)
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
    """Bounds, optimal marginals, thresholds and stability verdicts; a bound
    that does not exist for the ensemble stays None, and ``notes`` says why."""

    m: int
    alphas: list[float]
    betas: list[float]
    probs: list[float]
    necessary_stable: list[bool]
    sufficient_stable: list[bool] | None = None
    lower_J: float | None = None
    thresholds_star: list[int] | None = None
    lower_J_origin: float | None = None
    origin_thresholds: list[int] | None = None
    zetas: list[float] | None = None
    upper_J: float | None = None
    q_star: list[float] | None = None
    q_objective: float | None = None
    l1: list[float] | None = None
    l2: list[float] | None = None
    eta: list[float] | None = None
    s_const: list[float] | None = None
    delta_tilde: list[int] | None = None
    c_const: list[float] | None = None
    notes: list[str] = field(default_factory=list)

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
    if not 1 <= m <= len(plants):
        raise ValueError(f"budget m={m} outside 1..{len(plants)}")
    if not len(plants) == len(filters) == len(char_params):  # before any verdict
        raise ValueError(f"{len(filters)} filters and {len(char_params)} parameter pairs "
                         f"for {len(plants)} plants")
    alphas = [cp.alpha for cp in char_params]
    betas = [cp.beta for cp in char_params]
    probs = [pl.p for pl in plants]
    necessary = [necessary_stability(pl) for pl in plants]
    report = BoundsReport(m=m, alphas=alphas, betas=betas, probs=probs,
                          necessary_stable=necessary)

    if not all(necessary):
        bad = [i for i, ok in enumerate(necessary) if not ok]
        report.notes.append(
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
        report.notes.append(str(exc))

    try:
        q_star, q_obj = optimize_randomized_q(alphas, betas, probs, m)
        report.q_star = [float(q) for q in q_star]
        report.q_objective = q_obj
        report.sufficient_stable = [
            sufficient_stability(pl, float(q)) for pl, q in zip(plants, q_star, strict=True)
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
        report.notes.append(str(exc))
    return report
