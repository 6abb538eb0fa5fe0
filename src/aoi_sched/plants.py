"""Plant models, steady-state Kalman filtering and characteristic parameters.

Each sensed plant is a discrete-time LTI system

    x(t+1) = A x(t) + w(t),      w ~ N(0, Q)
    y(t)   = C x(t) + v(t),      v ~ N(0, R)

observed by a smart sensor that runs a local Kalman filter and ships its
state estimate over a Bernoulli erasure channel with success probability p.
The remote estimator's error covariance depends on the state only through
the age of information (AoI): the number of steps since the last delivery.

This module provides the filter fixed point, the AoI-indexed error
covariances, the scalar characteristic parameters (alpha, beta) that bound
the error trace by a geometric AoI function, and a seeded random plant
generator used by the experiment harness.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GenerationError, PlantInvariantError

SCHEMA_VERSION = 1

# numeric rank: singular values above _RANK_RTOL * sigma_max count
_RANK_RTOL = 1e-8
# generated plants keep rho^2 (1 - p) at or below this unless p_range is given
_STABILITY_MARGIN = 0.95
_MAX_TRIES = 100  # draws per plant before generation gives up
_RICCATI_TOL = 1e-10  # max-abs posterior change at which the Riccati iteration stops
_RICCATI_MAX_ITERS = 100_000


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
    if not np.allclose(m, m.T, atol=1e-10, rtol=1e-8):
        raise PlantInvariantError(f"{name} is not symmetric")
    if float(np.min(np.linalg.eigvalsh(m))) <= 0.0:
        raise PlantInvariantError(f"{name} is not positive definite")


@dataclass(frozen=True)
class PlantModel:
    """One LTI plant plus its channel success probability.

    Construction validates the standing assumptions: (A, C) observable,
    (A, sqrt(Q)) controllable, Q and R symmetric positive definite,
    rho(A) > 1 and p in (0, 1].
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    p: float

    def __post_init__(self) -> None:
        for name in ("A", "C", "Q", "R"):
            arr = np.array(getattr(self, name), dtype=float)
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
        if spectral_radius(self.A) <= 1.0:
            raise PlantInvariantError("rho(A) <= 1; plants must be unstable")
        if numeric_rank(observability_matrix(self.A, self.C)) < n:
            raise PlantInvariantError("(A, C) is not observable")
        sq = np.linalg.cholesky(self.Q)
        if numeric_rank(controllability_matrix(self.A, sq)) < n:
            raise PlantInvariantError("(A, sqrt(Q)) is not controllable")

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
        return cls(
            A=np.array(d["A"], dtype=float),
            C=np.array(d["C"], dtype=float),
            Q=np.array(d["Q"], dtype=float),
            R=np.array(d["R"], dtype=float),
            p=float(d["p"]),
        )


@dataclass(frozen=True)
class SteadyStateFilter:
    """Converged local Kalman filter: posterior/prior covariances and gain."""

    posterior_cov: np.ndarray
    prior_cov: np.ndarray
    gain: np.ndarray
    iterations: int


def steady_state_filter(plant: PlantModel) -> SteadyStateFilter:
    """Fixed point of the Riccati recursion by plain iteration from P = Q.

    Each sweep runs predict / gain / update and re-symmetrizes the result;
    iteration stops once successive posteriors differ by less than
    ``_RICCATI_TOL`` in max-abs norm, or fails after ``_RICCATI_MAX_ITERS``.
    Non-convergence signals a plant whose detectability or stabilizability
    is numerically broken.
    """
    a, c, q, r = plant.A, plant.C, plant.Q, plant.R
    post = q.copy()
    for it in range(1, _RICCATI_MAX_ITERS + 1):
        prior = a @ post @ a.T + q
        gain = np.linalg.solve((c @ prior @ c.T + r).T, (prior @ c.T).T).T
        new_post = prior - gain @ c @ prior
        new_post = 0.5 * (new_post + new_post.T)
        if float(np.max(np.abs(new_post - post))) < _RICCATI_TOL:
            prior = a @ new_post @ a.T + q
            prior = 0.5 * (prior + prior.T)
            gain = np.linalg.solve((c @ prior @ c.T + r).T, (prior @ c.T).T).T
            return SteadyStateFilter(new_post, prior, gain, it)
        post = new_post
    raise ConvergenceError(
        f"Riccati iteration did not converge within {_RICCATI_MAX_ITERS} iterations"
    )


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
    rho = spectral_radius(plant.A)
    if rho <= 1.0:
        raise PlantInvariantError("characteristic parameters need rho(A) > 1")
    alpha = rho * rho
    pbar = ss.posterior_cov
    beta = max(float(np.trace(plant.A @ pbar @ plant.A.T)) / alpha,
               float(np.trace(plant.Q)))
    return CharParams(alpha=alpha, beta=beta)


def filters_and_params(
    plants: list[PlantModel],
) -> tuple[list[SteadyStateFilter], list[CharParams]]:
    """Steady-state filter and characteristic parameters of every plant.

    Solved once per distinct plant object and shared by every position that
    holds it (a frozen ``PlantModel`` with read-only arrays always gives one
    answer); equal but distinct objects are solved separately.
    """
    distinct = {id(pl): pl for pl in plants}
    filters = {k: steady_state_filter(pl) for k, pl in distinct.items()}
    cps = {k: characteristic_params(distinct[k], ss) for k, ss in filters.items()}
    return [filters[id(pl)] for pl in plants], [cps[id(pl)] for pl in plants]


def _aged_cov(p1: np.ndarray, a: np.ndarray, q: np.ndarray, delta: int) -> np.ndarray:
    cov = p1
    for _ in range(delta - 1):
        cov = a @ cov @ a.T + q
    return 0.5 * (cov + cov.T)


def error_cov_from_aoi(
    plant: PlantModel, ss: SteadyStateFilter, delta: int
) -> np.ndarray:
    """Remote error covariance at AoI ``delta`` under the model recursion.

    Seeds at A Pbar A^T for delta = 1 and ages by P -> A P A^T + Q per extra
    step of staleness. This is the covariance the analytical layer (AoI
    bound, VoI scores, lower bounds) is built on.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    p1 = plant.A @ ss.posterior_cov @ plant.A.T
    return _aged_cov(p1, plant.A, plant.Q, delta)


def prediction_error_cov(
    plant: PlantModel, ss: SteadyStateFilter, delta: int
) -> np.ndarray:
    """Error covariance of the one-step-prediction remote estimator.

    On a delivery the estimator holds A xhat_local(t-1|t-1), whose error is
    A e_post A^T + Q; aging adds one A (.) A^T + Q layer per missed step.
    This is what a trajectory-level simulation of the estimator realizes,
    and what the simulator's trace metric reports.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    p1 = plant.A @ ss.posterior_cov @ plant.A.T + plant.Q
    return _aged_cov(p1, plant.A, plant.Q, delta)


def _trace_table(p1: np.ndarray, a: np.ndarray, q: np.ndarray, max_delta: int) -> np.ndarray:
    """Traces for delta = 1..max_delta; index 0 is unused (set to 0). The
    first trace to overflow float64 and every later one read ``inf``."""
    out = np.zeros(max_delta + 1)
    cov = p1
    out[1] = np.trace(cov)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, max_delta + 1):
            cov = a @ cov @ a.T + q
            out[d] = np.trace(cov)
    out[np.logical_or.accumulate(~np.isfinite(out))] = np.inf
    return out


def error_trace_table(
    plant: PlantModel, ss: SteadyStateFilter, max_delta: int
) -> np.ndarray:
    """Tr(error_cov_from_aoi) for delta = 1..max_delta as a lookup table."""
    p1 = plant.A @ ss.posterior_cov @ plant.A.T
    return _trace_table(p1, plant.A, plant.Q, max_delta)


def prediction_trace_table(
    plant: PlantModel, ss: SteadyStateFilter, max_delta: int
) -> np.ndarray:
    """Tr(prediction_error_cov) for delta = 1..max_delta as a lookup table."""
    p1 = plant.A @ ss.posterior_cov @ plant.A.T + plant.Q
    return _trace_table(p1, plant.A, plant.Q, max_delta)


def scalar_error_bound(cp: CharParams, delta: int) -> float:
    """Cumulative geometric bound sum_{k=1..delta} beta * alpha^k.

    Upper-bounds the trace of error_cov_from_aoi at the same AoI.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    if cp.alpha <= 1.0:
        raise ValueError("bound requires alpha > 1")
    a, b = cp.alpha, cp.beta
    return b * a * (a**delta - 1.0) / (a - 1.0)


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
    seed: int,
    p_range: tuple[float, float] | None = None,
    dynamics: str = "dense",
) -> list[PlantModel]:
    rng = np.random.default_rng(seed)
    return [
        generate_plant(n, m, rho_range, rng, p_range=p_range, dynamics=dynamics)
        for _ in range(count)
    ]


def ensemble_to_dict(plants: list[PlantModel]) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "plants": [pl.to_dict() for pl in plants]}


def ensemble_from_dict(doc: dict) -> list[PlantModel]:
    return [PlantModel.from_dict(d) for d in doc["plants"]]


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    Readers see either the old file or the complete new one, never a
    partial write. Every file the package writes goes through here.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_ensemble(path: str, plants: list[PlantModel]) -> None:
    """Write a plant ensemble as JSON (atomically: temp file then rename)."""
    write_atomic(path, json.dumps(ensemble_to_dict(plants), indent=1) + "\n")


def load_ensemble(path: str) -> list[PlantModel]:
    with open(path) as fh:
        return ensemble_from_dict(json.load(fh))
