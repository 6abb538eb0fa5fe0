"""Closed-form performance bounds and stability verdicts.

The long-run AoI cost of any feasible scheduler is sandwiched between

  * a lower bound from the budget-relaxed problem: with the budget priced by
    a Lagrange multiplier, each sensor runs its own optimal threshold
    policy, and the bound is the Lagrangian dual's value, the relaxed
    optimum (the least cost over integer thresholds can sit above it); and
  * an upper bound from a Lyapunov drift argument, driven by the optimal
    randomized stationary policy (schedule sensor i w.p. q_i each step).

Stability splits the same way: delivering at the full channel rate p is
necessary (rho^2 (1-p) < 1), delivering at the randomized rate q* p is
sufficient (rho^2 (1 - q* p) < 1).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .aoi import AoiFunction, ThresholdPolicy, threshold_average_cost, whittle_index_table
from .errors import FeasibilityError, StabilityError, UnsupportedPlantError
from .plants import PlantModel, SteadyStateFilter, write_atomic

_DEFECTIVE_COND = 1e8  # eigenvector basis above this condition number is treated as defective
_DELTA_TILDE_CAP = 10**6
_Q_EPS = 1e-9  # smallest margin of a randomized rate above its stabilizing minimum


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
    the optimum saturates sum q = min(M, N) and KKT water-filling applies.
    With s = lam^(-1/2) for the multiplier lam, each q_i(s) clamps its
    stationarity point q_i^min + g_i s, g_i = sqrt(beta_i (alpha_i - 1)
    alpha_i p_i) / (alpha_i p_i), into [q_i^min + _Q_EPS, 1]. So sum q is
    piecewise linear and increasing in s, with a kink where each sensor
    leaves its lower clamp and where it reaches 1. The kinks are sorted
    once, a binary search finds the segment on which sum q reaches M, and
    that segment's linear equation gives s exactly.
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
    lo_clip = q_min + _Q_EPS
    if float(np.sum(lo_clip)) >= m:
        raise FeasibilityError(
            f"sum of minimum rates {np.sum(lo_clip):.6g} >= M={m}; no stabilizing "
            "randomized policy exists"
        )

    def objective(q: np.ndarray) -> float:
        return float(np.sum(betas * (alphas - 1.0) / (1.0 - alphas + alphas * probs * q)))

    if n <= m:
        q = np.ones(n)
        return q, objective(q)

    g = np.sqrt(betas * (alphas - 1.0) * alphas * probs) / (alphas * probs)

    def total(s: float) -> float:
        return float(np.sum(np.clip(q_min + g * s, lo_clip, 1.0)))

    # the load at s = 0 is sum lo_clip < M, and past the last kink it is N > M
    kinks = [0.0, *np.sort(np.concatenate([_Q_EPS / g, (1.0 - q_min) / g])).tolist()]
    k = bisect.bisect_left(kinks, True, key=lambda s: total(s) >= m)
    left, right = kinks[k - 1], kinks[k]
    s = left + (right - left) * (m - total(left)) / (total(right) - total(left))
    q = np.clip(q_min + g * s, lo_clip, 1.0)
    return q, objective(q)


# ---------------------------------------------------------------------------
# lower bound: Lagrangian dual of the relaxed per-sensor threshold problem
# ---------------------------------------------------------------------------


def _cost(fn: AoiFunction, d: int) -> float:
    """A sensor's average cost at zero price under threshold d."""
    return threshold_average_cost(fn, ThresholdPolicy(d), 0.0)


def _kinks(fn: AoiFunction, width: int) -> np.ndarray:
    """The prices at which a sensor's best threshold moves from d to d + 1,
    for d = 1..width: its lightweight index at d, or +inf where it never
    moves on. Every move on to a threshold whose cost overflows reads +inf
    too (costs rise with the threshold)."""
    row = whittle_index_table(fn, width)[1:]
    if _cost(fn, width + 1) == math.inf:
        first = bisect.bisect_left(range(1, width + 1), math.inf, key=lambda d: _cost(fn, d))
        row[max(first - 1, 0):] = np.inf
    return row


def _dual_threshold_search(fns: list[AoiFunction], m: int) -> tuple[float, list[int], float]:
    """Lagrangian-dual bound of the relaxed threshold problem, at every N.

    Adjacent thresholds d and d + 1 of a sensor tie at the price lam equal
    to its closed-form Whittle index at d, the lightweight index: as lam
    rises past it, the sensor's best threshold moves from d to d + 1. So
    the dual is concave and piecewise linear in lam, and its maximum lam* is
    0 if the thresholds 1 fit the budget, else the first kink at which the
    load fits. The kinks over AoI 1..D (``_kinks``) below the least last
    kink are sorted once, and the first that fits is found among them; D
    doubles while none fits. Returns the dual value at lam*, the thresholds
    one past each sensor's kinks <= lam*, and lam*. Loads and the value are
    summed in sensor order over Python floats (numpy's pairwise sum rounds
    otherwise), so the load is monotone in lam and the returned thresholds
    fit M summed that way. The attempt rate 1 / (1 + p (d - 1)) is
    ``threshold_transmission_rate``'s expression, elementwise.
    """
    probs = np.array([fn.p for fn in fns])

    def at(lam: float) -> tuple[list[int], float]:
        ds = 1 + np.count_nonzero(kinks <= lam, axis=1)
        return ds.tolist(), sum((1.0 / (1.0 + probs * (ds - 1))).tolist())

    width = 16
    while True:
        kinks = np.vstack([_kinks(fn, width) for fn in fns])
        top = kinks[:, -1].min()
        prices = np.concatenate([[0.0], np.sort(kinks[kinks < top])]).tolist()
        k = bisect.bisect_left(prices, True, key=lambda lam: at(lam)[1] <= m)
        if k < len(prices):
            ds, load = at(prices[k])
            cost = sum(_cost(fn, d) for fn, d in zip(fns, ds, strict=True))
            return cost + prices[k] * (load - m), ds, prices[k]
        if top == np.inf:
            raise FeasibilityError(f"no thresholds fit M={m}: the load exceeds it at every price")
        width *= 2


def lower_bound_J(alphas, betas, probs, m: int) -> tuple[float, list[int], float]:
    """Lower bound on the AoI-function cost of any feasible scheduler.

    Returns the Lagrangian-dual value of the per-sensor threshold problem,
    which equals the true budget-relaxed optimum, the dual's feasible
    thresholds, and its multiplier lam*. The relaxed problem's optimal
    policy may randomize between two adjacent integer thresholds to meet
    the budget exactly, so the minimum over pure integer thresholds sits
    slightly above the relaxed optimum and is NOT a valid lower bound on
    scheduler performance (simulation exceeds it by up to a couple of
    percent on tight instances). lam* is the price of the budget in the
    units of the lightweight index, 0 or one sensor's index: at lam* each
    sensor's threshold is the first AoI whose index exceeds lam*.
    """
    alphas, betas, probs = _sensor_arrays(m, alphas, betas, probs)
    unstable = alphas * (1.0 - probs) >= 1.0
    if np.any(unstable):
        raise StabilityError(
            f"sensors {np.flatnonzero(unstable).tolist()} violate alpha (1-p) < 1"
        )
    fns = [AoiFunction(*map(float, abp)) for abp in zip(alphas, betas, probs, strict=True)]
    value, thresholds, lam = _dual_threshold_search(fns, m)
    # weak duality: no dual value exceeds the cost of feasible thresholds
    primal = sum(_cost(fn, d) for fn, d in zip(fns, thresholds, strict=True))
    if value > primal + 1e-9 * max(1.0, abs(primal)):
        raise RuntimeError("dual bound exceeded the integer primal")
    return value, thresholds, lam


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
    eigenvector bases use the conjugate transpose. beta and zeta are worked
    out once per distinct (plant, filter) pair of objects.
    """
    pairs: dict[tuple[int, int], tuple[float, float]] = {}  # (beta, zeta) per pair
    alphas, betas, zetas = [], [], []
    for idx, (pl, ss) in enumerate(zip(plants, filters, strict=True)):
        rho = pl.rho
        alpha = rho * rho
        if alpha * (1.0 - pl.p) >= 1.0:
            raise StabilityError(f"sensor {idx} violates rho^2 (1-p) < 1")
        key = (id(pl), id(ss))
        if key not in pairs:
            _, u = np.linalg.eig(pl.A)
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
            pairs[key] = zeta * min(lam_q, lam_p), zeta
        beta, zeta = pairs[key]
        alphas.append(alpha)
        betas.append(beta)
        zetas.append(zeta)
    probs = [pl.p for pl in plants]
    value, thr, _ = lower_bound_J(alphas, betas, probs, m)
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
    lower_lambda: float | None = None
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

    lo, thr, lam = lower_bound_J(alphas, betas, probs, m)
    report.lower_J = lo
    report.thresholds_star = [int(d) for d in thr]
    report.lower_lambda = lam

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
