"""Plant model, filter fixed point, characteristic parameters, generation."""

import json
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
    error_cov_from_aoi,
    error_trace_table,
    generate_ensemble,
    generate_plant,
    load_ensemble,
    prediction_error_cov,
    prediction_trace_table,
    save_ensemble,
    scalar_error_bound,
    spectral_radius,
    steady_state_filter,
)


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
        with (patch.object(plants_mod, "_RICCATI_TOL", 1e-14),
              patch.object(plants_mod, "_RICCATI_MAX_ITERS", 1_000_000)):
            slow = steady_state_filter(pl)
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
    def test_nonconvergence_raises(self, scalar_plant):
        with pytest.raises(ConvergenceError):
            steady_state_filter(scalar_plant)


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


class TestErrorCovFromAoi:
    def test_scalar_age_one(self, scalar_plant, scalar_filter, scalar_pbar):
        got = error_cov_from_aoi(scalar_plant, scalar_filter, 1)[0, 0]
        assert got == pytest.approx(1.44 * scalar_pbar, rel=1e-9)

    def test_scalar_age_two(self, scalar_plant, scalar_filter, scalar_pbar):
        got = error_cov_from_aoi(scalar_plant, scalar_filter, 2)[0, 0]
        assert got == pytest.approx(1.44 * 1.44 * scalar_pbar + 1.0, rel=1e-9)

    def test_recursion_step(self):
        rng = np.random.default_rng(2)
        pl = generate_plant(3, 3, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        for d in range(1, 6):
            lhs = error_cov_from_aoi(pl, ss, d + 1)
            rhs = pl.A @ error_cov_from_aoi(pl, ss, d) @ pl.A.T + pl.Q
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_zero_age_rejected(self, scalar_plant, scalar_filter):
        with pytest.raises(ValueError):
            error_cov_from_aoi(scalar_plant, scalar_filter, 0)

    def test_reset_sequence_oracle(self):
        # step the covariance recursion along a Bernoulli delivery sequence
        # and check the AoI-indexed table reproduces it at every step
        rng = np.random.default_rng(3)
        pl = generate_plant(2, 2, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        table = [error_cov_from_aoi(pl, ss, d) for d in range(1, 60)]
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
        got = prediction_error_cov(scalar_plant, scalar_filter, 1)[0, 0]
        assert got == pytest.approx(1.44 * scalar_pbar + 1.0, rel=1e-9)

    def test_offset_from_model_recursion(self):
        rng = np.random.default_rng(4)
        pl = generate_plant(3, 3, (1.05, 1.3), rng)
        ss = steady_state_filter(pl)
        for d in range(1, 6):
            ak = np.linalg.matrix_power(pl.A, d - 1)
            np.testing.assert_allclose(
                prediction_error_cov(pl, ss, d),
                error_cov_from_aoi(pl, ss, d) + ak @ pl.Q @ ak.T,
                rtol=1e-9, atol=1e-12,
            )

    def test_tables_match_direct(self, scalar_plant, scalar_filter):
        t_model = error_trace_table(scalar_plant, scalar_filter, 10)
        t_pred = prediction_trace_table(scalar_plant, scalar_filter, 10)
        for d in range(1, 11):
            assert t_model[d] == pytest.approx(
                np.trace(error_cov_from_aoi(scalar_plant, scalar_filter, d)))
            assert t_pred[d] == pytest.approx(
                np.trace(prediction_error_cov(scalar_plant, scalar_filter, d)))


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
        tr = np.trace(error_cov_from_aoi(scalar_plant, scalar_filter, 2))
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
                tr = np.trace(error_cov_from_aoi(pl, ss, d))
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
