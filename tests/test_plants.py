"""Plant model, filter fixed point, characteristic parameters, generation."""

import copy
import itertools
import json
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest

import aoi_sched.plants as plants_mod
from aoi_sched import (
    CharParams,
    ConvergenceError,
    PlantInvariantError,
    PlantModel,
    characteristic_params,
    error_trace_table,
    generate_ensemble,
    generate_plant,
    load_ensemble,
    prediction_trace_table,
    save_ensemble,
    scalar_error_bound,
    spectral_radius,
    steady_state_filter,
)
from aoi_sched.plants import filters_and_params


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([1.2, -0.3])) == pytest.approx(1.2, rel=1e-10)


def test_spectral_radius_rotation_like():
    # characteristic polynomial lambda^2 + 2 = 0 -> |lambda| = sqrt(2)
    assert spectral_radius([[0.0, 1.0], [-2.0, 0.0]]) == pytest.approx(
        np.sqrt(2.0), rel=1e-10
    )


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(PlantInvariantError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(PlantInvariantError):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSteadyStateFilter:
    def test_scalar_riccati_quadratic_oracle(self, scalar_plant, scalar_filter, scalar_pbar):
        assert scalar_filter.posterior_cov[0, 0] == pytest.approx(scalar_pbar, rel=1e-9)

    def test_perfect_measurement_limit(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1e-12]], p=0.9)
        ss = steady_state_filter(pl)
        assert ss.posterior_cov[0, 0] < 1e-10

    def test_longer_iteration_agrees(self):
        rng = np.random.default_rng(0)
        pl = generate_plant(3, 3, (1.05, 1.3), rng)
        fast = steady_state_filter(pl)
        # an equal fresh object, since ``pl`` keeps its solved filter
        twin = PlantModel.from_dict(pl.to_dict())
        with (patch.object(plants_mod, "_RICCATI_TOL", 1e-14),
              patch.object(plants_mod, "_RICCATI_MAX_ITERS", 1_000_000)):
            slow = steady_state_filter(twin)
        assert slow.iterations > fast.iterations
        np.testing.assert_allclose(fast.posterior_cov, slow.posterior_cov, atol=1e-8)

    def test_fixed_point_property(self, scalar_plant, scalar_filter):
        a, c, q, r = (scalar_plant.A, scalar_plant.C, scalar_plant.Q, scalar_plant.R)
        p = scalar_filter.posterior_cov
        prior = a @ p @ a.T + q
        gain = prior @ c.T @ np.linalg.inv(c @ prior @ c.T + r)
        again = prior - gain @ c @ prior
        assert np.max(np.abs(again - p)) < 1e-9

    def test_prior_exceeds_posterior(self, scalar_filter):
        gap = scalar_filter.prior_cov - scalar_filter.posterior_cov
        assert np.min(np.linalg.eigvalsh(gap)) >= -1e-12

    @patch.object(plants_mod, "_RICCATI_MAX_ITERS", 3)
    def test_nonconvergence_raises(self):
        # a fresh plant: the session's scalar plant may already be solved
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)
        with pytest.raises(ConvergenceError):
            steady_state_filter(pl)
        assert pl._filter is None

    def test_solved_once_per_plant_object(self, riccati_solves):
        pl = generate_plant(3, 2, (1.05, 1.3), np.random.default_rng(4))
        first = steady_state_filter(pl)
        assert steady_state_filter(pl) is first
        assert riccati_solves == [pl]
        # an equal but distinct object is solved on its own, to the same bits
        twin = PlantModel.from_dict(pl.to_dict())
        again = steady_state_filter(twin)
        assert again is not first and len(riccati_solves) == 2
        for name in ("posterior_cov", "prior_cov", "gain"):
            assert getattr(again, name).tobytes() == getattr(first, name).tobytes()

    def test_first_solve_under_thread_stress(self):
        # threads racing on a plant's first solve each get a filter of the
        # same bits, and the plant keeps one of them for every later call
        base = generate_ensemble(6, 3, 3, (1.05, 1.3), seed=6)
        plants = [PlantModel.from_dict(pl.to_dict()) for pl in base * 4]
        ref = [steady_state_filter(pl) for pl in base]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda pl: [steady_state_filter(pl) for _ in range(3)],
                                    plants * 2))
        finally:
            sys.setswitchinterval(interval)
        for i, runs in enumerate(got):
            pl = plants[i % len(plants)]
            for ss in runs:
                assert ss.posterior_cov.tobytes() == ref[i % 6].posterior_cov.tobytes()
                assert ss.gain.tobytes() == ref[i % 6].gain.tobytes()
            assert steady_state_filter(pl) is pl._filter is steady_state_filter(pl)

    def test_filter_arrays_reject_writes(self, scalar_filter):
        for arr in (scalar_filter.posterior_cov, scalar_filter.prior_cov,
                    scalar_filter.gain):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0

    @pytest.mark.parametrize("dup", [copy.deepcopy, lambda pl: pickle.loads(pickle.dumps(pl))],
                             ids=["deepcopy", "pickle"])
    def test_copies_are_rebuilt_frozen(self, dup, riccati_solves):
        pl = generate_plant(3, 2, (1.05, 1.3), np.random.default_rng(7))
        solved = steady_state_filter(pl)
        twin = dup(pl)
        for name in ("A", "C", "Q", "R"):
            assert not getattr(twin, name).flags.writeable
            assert getattr(twin, name).tobytes() == getattr(pl, name).tobytes()
        assert twin.p == pl.p and twin.rho == pl.rho
        # the copy solves its own filter on demand, to the original's bits
        assert twin._filter is None
        again = steady_state_filter(twin)
        assert [id(x) for x in riccati_solves] == [id(pl), id(twin)]
        for name in ("posterior_cov", "prior_cov", "gain"):
            assert not getattr(again, name).flags.writeable
            assert getattr(again, name).tobytes() == getattr(solved, name).tobytes()

    def test_rho_kept_from_validation(self):
        pl = generate_plant(4, 2, (1.05, 1.3), np.random.default_rng(5))
        assert pl.rho == spectral_radius(pl.A)


def _reference_filter(plant):
    """The per-plant Riccati iteration the stacked solver replaces: from
    P = Q, predict / gain / update / symmetrize until successive posteriors
    differ by less than ``_RICCATI_TOL``; None after ``_RICCATI_MAX_ITERS``."""
    a, c, q, r = plant.A, plant.C, plant.Q, plant.R
    post = q.copy()
    for it in range(1, plants_mod._RICCATI_MAX_ITERS + 1):
        prior = a @ post @ a.T + q
        gain = np.linalg.solve((c @ prior @ c.T + r).T, (prior @ c.T).T).T
        new_post = prior - gain @ c @ prior
        new_post = 0.5 * (new_post + new_post.T)
        if float(np.max(np.abs(new_post - post))) < plants_mod._RICCATI_TOL:
            prior = a @ new_post @ a.T + q
            prior = 0.5 * (prior + prior.T)
            gain = np.linalg.solve((c @ prior @ c.T + r).T, (prior @ c.T).T).T
            return new_post, prior, gain, it
        post = new_post
    return None


def _assert_reference_bits(plant, ss):
    post, prior, gain, iterations = _reference_filter(plant)
    assert ss.posterior_cov.tobytes() == post.tobytes()
    assert ss.prior_cov.tobytes() == prior.tobytes()
    assert ss.gain.tobytes() == gain.tobytes()
    assert ss.iterations == iterations


# one scalar stack: a perfect measurement settles in 2 sweeps, a noisy
# one of a weakly unstable plant takes 305
_FAST = dict(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1e-12]], p=0.9)
_SLOW = dict(A=[[1.05]], C=[[1.0]], Q=[[1e-3]], R=[[100.0]], p=0.9)


class TestStackedRiccati:
    def test_generated_ensemble_matches_reference(self, riccati_solves):
        plants = generate_ensemble(20, 3, 3, (1.05, 1.3), seed=28)
        # one stack, in the ensemble's order, solved at generation
        assert [id(pl) for pl in riccati_solves] == [id(pl) for pl in plants]
        for pl in plants:
            assert pl._filter is not None
            _assert_reference_bits(pl, steady_state_filter(pl))
        assert len({pl._filter.iterations for pl in plants}) > 1

    def test_interleaved_shapes_match_reference(self, riccati_solves):
        rng = np.random.default_rng(28)
        shapes = [(1, 1), (2, 1), (4, 2), (2, 1), (1, 1), (4, 2), (4, 2), (1, 1), (2, 1)]
        plants = [generate_plant(n, m, (1.05, 1.3), rng) for n, m in shapes]
        plants.append(plants[1])  # a repeated object is solved once
        filters, _ = filters_and_params(plants)
        # one stack per shape, each in list order
        assert [(pl.n, pl.m) for pl in riccati_solves] == sorted(shapes)
        assert len(riccati_solves) == len({id(pl) for pl in plants})
        assert filters[-1] is filters[1]
        for pl, ss in zip(plants, filters):
            assert ss is pl._filter
            _assert_reference_bits(pl, ss)

    def test_fast_and_slow_plants_in_one_stack(self):
        fast, slow = PlantModel(**_FAST), PlantModel(**_SLOW)
        filters, _ = filters_and_params([slow, fast])
        assert filters[1].iterations <= 10 and filters[0].iterations >= 100
        for pl, ss in zip([slow, fast], filters):
            _assert_reference_bits(pl, ss)

    @patch.object(plants_mod, "_RICCATI_MAX_ITERS", 50)
    def test_nonconvergence_keeps_converged_filters(self):
        fast, slow = PlantModel(**_FAST), PlantModel(**_SLOW)
        with pytest.raises(ConvergenceError, match="^Riccati iteration of plant 2 did not "
                                                    "converge within 50 iterations$"):
            filters_and_params([fast, fast, slow])
        assert slow._filter is None
        _assert_reference_bits(fast, fast._filter)


def _symmetric_by_check(m):
    try:
        plants_mod._check_spd(m, "M")
    except PlantInvariantError as exc:
        return "not symmetric" not in str(exc)
    return True


def test_symmetry_check_agrees_with_allclose():
    rng = np.random.default_rng(28)
    verdicts = set()
    for n in (1, 2, 3, 5):
        for scale in (1e-6, 1.0, 1e6):
            g = rng.standard_normal((n, n)) * scale
            base = g @ g.T + 1e-3 * np.eye(n)
            for factor in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0):
                for i, j in itertools.product(range(n), repeat=2):
                    m = base.copy()
                    m[i, j] += factor * (1e-10 + 1e-8 * abs(base[j, i]))
                    expected = bool(np.allclose(m, m.T, atol=1e-10, rtol=1e-8))
                    assert _symmetric_by_check(m) == expected, (n, scale, factor, i, j)
                    verdicts.add(expected)
                m = base + factor * 1e-8 * rng.standard_normal((n, n)) * scale
                expected = bool(np.allclose(m, m.T, atol=1e-10, rtol=1e-8))
                assert _symmetric_by_check(m) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


class TestCharacteristicParams:
    def test_scalar_values(self, scalar_plant, scalar_filter, scalar_pbar):
        cp = characteristic_params(scalar_plant, scalar_filter)
        assert cp.alpha == pytest.approx(1.44, rel=1e-12)
        # branch values: Tr(A Pbar A^T)/alpha = Pbar ~ 0.661 < Tr(Q) = 1
        assert cp.beta == pytest.approx(1.0, rel=1e-12)

    def test_trace_q_branch_wins_on_mild_diagonal(self):
        pl = PlantModel(A=np.diag([1.1, 1.3]), C=np.eye(2), Q=np.eye(2),
                        R=np.eye(2), p=0.9)
        ss = steady_state_filter(pl)
        assert np.trace(pl.A @ ss.posterior_cov @ pl.A.T) / 1.69 < 2.0
        cp = characteristic_params(pl, ss)
        assert cp.beta == pytest.approx(2.0, rel=1e-12)

    def test_max_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            pl = generate_plant(3, 2, (1.05, 1.4), rng)
            ss = steady_state_filter(pl)
            cp = characteristic_params(pl, ss)
            assert cp.beta * cp.alpha >= np.trace(pl.A @ ss.posterior_cov @ pl.A.T) - 1e-12
            assert cp.beta >= np.trace(pl.Q) - 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(PlantInvariantError):
            CharParams(alpha=0.9, beta=1.0)
        with pytest.raises(PlantInvariantError):
            CharParams(alpha=1.5, beta=0.0)


def _aged_cov(plant, ss, delta, prediction=False):
    """Reference: the remote error covariance at AoI ``delta``, seeded at
    A Pbar A^T for delta = 1 (the error convention; with ``prediction``,
    A Pbar A^T + Q, the one-step-prediction estimator's) and aged by
    P -> A P A^T + Q per extra step of staleness."""
    cov = plant.A @ ss.posterior_cov @ plant.A.T
    if prediction:
        cov = cov + plant.Q
    for _ in range(delta - 1):
        cov = plant.A @ cov @ plant.A.T + plant.Q
    return 0.5 * (cov + cov.T)


class TestErrorCovFromAoi:
    def test_scalar_age_one(self, scalar_plant, scalar_filter, scalar_pbar):
        got = _aged_cov(scalar_plant, scalar_filter, 1)[0, 0]
        assert got == pytest.approx(1.44 * scalar_pbar, rel=1e-9)

    def test_scalar_age_two(self, scalar_plant, scalar_filter, scalar_pbar):
        got = _aged_cov(scalar_plant, scalar_filter, 2)[0, 0]
        assert got == pytest.approx(1.44 * 1.44 * scalar_pbar + 1.0, rel=1e-9)

    def test_recursion_step(self):
        rng = np.random.default_rng(2)
        pl = generate_plant(3, 3, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        for d in range(1, 6):
            lhs = _aged_cov(pl, ss, d + 1)
            rhs = pl.A @ _aged_cov(pl, ss, d) @ pl.A.T + pl.Q
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_reset_sequence_oracle(self):
        # step the covariance recursion along a Bernoulli delivery sequence
        # and check the AoI-indexed table reproduces it at every step
        rng = np.random.default_rng(3)
        pl = generate_plant(2, 2, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        table = [_aged_cov(pl, ss, d) for d in range(1, 60)]
        cov = pl.A @ ss.posterior_cov @ pl.A.T
        delta = 1
        for _ in range(200):
            np.testing.assert_allclose(cov, table[delta - 1], rtol=1e-9, atol=1e-12)
            if rng.random() < pl.p:
                cov = pl.A @ ss.posterior_cov @ pl.A.T
                delta = 1
            else:
                cov = pl.A @ cov @ pl.A.T + pl.Q
                delta += 1
            if delta >= 59:
                cov = pl.A @ ss.posterior_cov @ pl.A.T
                delta = 1


class TestPredictionErrorCov:
    def test_scalar_age_one_includes_process_noise(self, scalar_plant, scalar_filter, scalar_pbar):
        got = _aged_cov(scalar_plant, scalar_filter, 1, prediction=True)[0, 0]
        assert got == pytest.approx(1.44 * scalar_pbar + 1.0, rel=1e-9)

    def test_offset_from_model_recursion(self):
        rng = np.random.default_rng(4)
        pl = generate_plant(3, 3, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        for d in range(1, 6):
            ak = np.linalg.matrix_power(pl.A, d - 1)
            np.testing.assert_allclose(
                _aged_cov(pl, ss, d, prediction=True),
                _aged_cov(pl, ss, d) + ak @ pl.Q @ ak.T,
                rtol=1e-9, atol=1e-12,
            )

    def test_tables_match_direct(self, scalar_plant, scalar_filter):
        t_model = error_trace_table(scalar_plant, scalar_filter, 10)
        t_pred = prediction_trace_table(scalar_plant, scalar_filter, 10)
        for d in range(1, 11):
            assert t_model[d] == pytest.approx(
                np.trace(_aged_cov(scalar_plant, scalar_filter, d)))
            assert t_pred[d] == pytest.approx(
                np.trace(_aged_cov(scalar_plant, scalar_filter, d, prediction=True)))


def _one_plant_traces(plant, ss, max_delta, prediction):
    """Reference: the one-plant trace recursion, one 2-D product chain and
    one ``np.trace`` per AoI."""
    cov = plant.A @ ss.posterior_cov @ plant.A.T
    if prediction:
        cov = cov + plant.Q
    out = np.zeros(max_delta + 1)
    out[1] = np.trace(cov)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, max_delta + 1):
            cov = plant.A @ cov @ plant.A.T + plant.Q
            out[d] = np.trace(cov)
    out[np.logical_or.accumulate(~np.isfinite(out))] = np.inf
    return out


def _plants_of_dims(dims, seed, rho=(1.05, 1.3)):
    """One plant per entry of ``dims``, of that state dimension, fully
    measured so that the filter converges at any rho."""
    plants = [generate_ensemble(1, n, n, rho, seed=seed + k)[0] for k, n in enumerate(dims)]
    return plants, [steady_state_filter(pl) for pl in plants]


class TestStackedTraceTables:
    """``trace_tables`` ages runs of one state dimension as one stack, and
    every row keeps the bits of the one-plant recursion."""

    def _check(self, plants, filters, max_delta):
        for prediction in (False, True):
            rows = plants_mod.trace_tables(plants, filters, max_delta, prediction)
            assert rows.shape == (len(plants), max_delta + 1)
            for i, (pl, ss) in enumerate(zip(plants, filters)):
                ref = _one_plant_traces(pl, ss, max_delta, prediction)
                assert rows[i].tobytes() == ref.tobytes(), (i, pl.n, prediction)
            one = prediction_trace_table if prediction else error_trace_table
            assert one(plants[0], filters[0], max_delta).tobytes() == rows[0].tobytes()
        return rows

    @pytest.mark.parametrize("max_delta", [0, -1])
    def test_rejects_cap_below_one(self, max_delta):
        # no AoI 1 column to seed: both ended in an IndexError
        plants, filters = _plants_of_dims([2, 2], 710)
        for prediction in (False, True):
            with pytest.raises(ValueError, match=f"^AoI cap max_delta={max_delta} must be at "
                                                 "least 1$"):
                plants_mod.trace_tables(plants, filters, max_delta, prediction)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_one_dimension(self, n):
        # 9 > 8 also covers numpy's blocked summation of a long diagonal
        self._check(*_plants_of_dims([n] * 4, 700 + n), 60)

    def test_mixed_dimensions(self):
        self._check(*_plants_of_dims([1, 2, 2, 3, 1, 6, 6, 3], 720), 60)

    def test_rows_that_overflow_read_inf(self):
        plants, filters = _plants_of_dims([3, 2, 3, 3], 740, rho=(5.0, 6.0))
        plants[1:2], filters[1:2] = _plants_of_dims([2], 745)
        rows = self._check(plants, filters, 500)
        assert np.isinf(rows[[0, 2, 3], -1]).all() and np.isfinite(rows[1]).all()
        assert not np.isnan(rows).any()


class TestScalarErrorBound:
    def test_single_term(self):
        assert scalar_error_bound(CharParams(2.0, 1.0), 1) == pytest.approx(2.0)

    def test_two_terms(self):
        # sum_{k=1,2} 1.44^k
        assert scalar_error_bound(CharParams(1.44, 1.0), 2) == pytest.approx(
            1.44 + 1.44**2, rel=1e-12
        )

    def test_dominates_model_trace_scalar(self, scalar_plant, scalar_filter):
        cp = characteristic_params(scalar_plant, scalar_filter)
        tr = np.trace(_aged_cov(scalar_plant, scalar_filter, 2))
        assert scalar_error_bound(cp, 2) >= tr

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scalar_error_bound(CharParams(2.0, 1.0), 0)

    def test_cumulative_bound_on_normal_plants(self):
        # the geometric bound is valid on normal dynamics, where growth is
        # governed by the spectral radius itself
        rng = np.random.default_rng(5)
        for _ in range(20):
            pl = generate_plant(3, 3, (1.05, 1.5), rng, dynamics="normal")
            ss = steady_state_filter(pl)
            cp = characteristic_params(pl, ss)
            for d in range(1, 21):
                tr = np.trace(_aged_cov(pl, ss, d))
                assert tr <= scalar_error_bound(cp, d) * (1 + 1e-9)

    def test_dense_matrices_can_overshoot_transiently(self):
        # documents the transient-growth gap: for non-normal A the k-step
        # trace can exceed beta* alpha*^k (sigma_max > rho), so the
        # geometric envelope is a spectral-rate statement, not a uniform
        # one, on generic dense matrices
        rng = np.random.default_rng(6)
        violated = False
        for _ in range(40):
            pl = generate_plant(3, 3, (1.05, 1.6), rng, dynamics="dense")
            ss = steady_state_filter(pl)
            cp = characteristic_params(pl, ss)
            ak = np.eye(3)
            for k in range(1, 16):
                ak = ak @ pl.A
                if np.trace(ak @ pl.Q @ ak.T) > cp.beta * cp.alpha**k:
                    violated = True
        assert violated


class TestGeneratePlant:
    def test_deterministic_under_seed(self):
        a = generate_ensemble(3, 3, 3, (1.05, 1.3), seed=42)
        b = generate_ensemble(3, 3, 3, (1.05, 1.3), seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.A, y.A)
            assert x.p == y.p

    def test_rho_in_requested_range(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pl = generate_plant(3, 2, (1.1, 1.2), rng)
            assert 1.1 <= spectral_radius(pl.A) <= 1.2 + 1e-9

    def test_necessary_stability_margin(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pl = generate_plant(3, 3, (1.05, 1.5), rng)
            rho2 = spectral_radius(pl.A) ** 2
            assert rho2 * (1 - pl.p) < 1.0

    def test_normal_family_rho(self):
        rng = np.random.default_rng(9)
        pl = generate_plant(3, 3, (1.2, 1.2001), rng, dynamics="normal")
        assert spectral_radius(pl.A) == pytest.approx(1.2, rel=1e-3)
        # normality: A A^T == A^T A
        np.testing.assert_allclose(pl.A @ pl.A.T, pl.A.T @ pl.A, atol=1e-10)

    def test_invalid_rho_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_plant(3, 3, (1.0, 1.0), rng)

    def test_invariants_enforced_by_constructor(self):
        with pytest.raises(PlantInvariantError):
            PlantModel(A=[[0.9]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.5)
        with pytest.raises(PlantInvariantError):
            PlantModel(A=[[1.2]], C=[[0.0]], Q=[[1.0]], R=[[1.0]], p=0.5)
        with pytest.raises(PlantInvariantError):
            PlantModel(A=[[1.2]], C=[[1.0]], Q=[[-1.0]], R=[[1.0]], p=0.5)
        with pytest.raises(PlantInvariantError):
            PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.0)

    @pytest.mark.parametrize("field", ["A", "C", "Q", "R"])
    @pytest.mark.parametrize("value,shape", [(1.2, ()), ([1.2], (1,)), ([[[1.2]]], (1, 1, 1))],
                             ids=["scalar", "1-D", "3-D"])
    def test_constructor_names_a_matrix_that_is_not_2d(self, field, value, shape):
        fields = {"A": [[1.2]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], field: value}
        message = f"{field} must be a 2-D matrix, got shape {shape}"
        with pytest.raises(PlantInvariantError, match=f"^{re.escape(message)}$"):
            PlantModel(**fields, p=0.5)

    @pytest.mark.parametrize("field,value,message", [
        ("A", np.ones((2, 3)), "A must be square"),
        ("C", [[1.0, 1.0, 1.0]], "C shape (1, 3) incompatible with A"),
        ("Q", np.eye(3), "Q/R dimensions incompatible with A/C"),
        ("A", [[np.inf, 0.0], [0.0, 1.1]], "A has non-finite entries"),
        # positive definite, but of numeric rank 1: the noise drives one mode
        ("Q", np.diag([1.0, 1e-20]), "(A, sqrt(Q)) is not controllable"),
    ], ids=["A-not-square", "C-width", "Q-size", "A-inf", "Q-rank-1"])
    def test_constructor_names_the_broken_invariant(self, field, value, message):
        fields = {"A": np.diag([1.2, 1.1]), "C": [[1.0, 1.0]], "Q": np.eye(2), "R": [[1.0]],
                  field: value}
        with pytest.raises(PlantInvariantError, match=f"^{re.escape(message)}$"):
            PlantModel(**fields, p=0.5)


def test_ensemble_json_roundtrip(tmp_path):
    plants = generate_ensemble(5, 3, 2, (1.05, 1.4), seed=11)
    path = tmp_path / "plants.json"
    save_ensemble(str(path), plants)
    back = load_ensemble(str(path))
    assert len(back) == 5
    for x, y in zip(plants, back):
        np.testing.assert_array_equal(x.A, y.A)
        np.testing.assert_array_equal(x.C, y.C)
        np.testing.assert_array_equal(x.Q, y.Q)
        np.testing.assert_array_equal(x.R, y.R)
        assert x.p == y.p
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
