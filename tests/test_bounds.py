"""Randomized-policy optimization, lower/upper bounds, stability verdicts."""

import numpy as np
import pytest

from aoi_sched import (
    AoiFunction,
    FeasibilityError,
    PlantModel,
    StabilityError,
    ThresholdPolicy,
    UnsupportedPlantError,
    characteristic_params,
    compute_bounds_report,
    generate_ensemble,
    lower_bound_J,
    lower_bound_J_origin,
    necessary_stability,
    optimize_randomized_q,
    steady_state_filter,
    sufficient_stability,
    threshold_average_cost,
    upper_bound_J,
)
from aoi_sched.bounds import _dual_threshold_search, _exact_threshold_search


class TestOptimizeRandomizedQ:
    def test_symmetric_split(self):
        q, _ = optimize_randomized_q([1.5, 1.5], [1.0, 1.0], [0.8, 0.8], 1)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-9)

    def test_single_sensor_saturates(self):
        q, _ = optimize_randomized_q([1.44], [1.0], [0.9], 1)
        assert q[0] == 1.0

    def test_matches_grid_search(self):
        alphas, betas, probs = [1.3, 1.7], [0.8, 2.5], [0.9, 0.95]
        q, obj = optimize_randomized_q(alphas, betas, probs, 1)

        def objective(q1):
            q2 = 1.0 - q1
            vals = []
            for a, b, p, qq in zip(alphas, betas, probs, (q1, q2)):
                den = 1.0 - a + a * p * qq
                if den <= 0 or not (0 < qq <= 1):
                    return np.inf
                vals.append(b * (a - 1.0) / den)
            return sum(vals)

        grid = np.arange(1e-4, 1.0, 1e-4)
        vals = np.array([objective(x) for x in grid])
        best = grid[np.argmin(vals)]
        assert abs(q[0] - best) < 1e-3
        assert obj <= vals.min() + 1e-8

    def test_complementary_slackness(self):
        alphas = [1.2, 1.5, 1.8, 1.4]
        betas = [1.0, 2.0, 0.5, 3.0]
        probs = [0.9, 0.85, 0.95, 0.9]
        q, _ = optimize_randomized_q(alphas, betas, probs, 2)
        assert np.sum(q) == pytest.approx(2.0, abs=1e-9)
        derivs = []
        for a, b, p, qq in zip(alphas, betas, probs, q):
            if 1e-6 < qq < 1 - 1e-6:
                derivs.append(b * (a - 1) * a * p / (1 - a + a * p * qq) ** 2)
        assert len(derivs) >= 2
        assert max(derivs) - min(derivs) < 1e-6 * max(derivs)

    def test_infeasible(self):
        # sum of minimum rates exceeds the budget
        with pytest.raises(FeasibilityError):
            optimize_randomized_q([4.0, 4.0], [1.0, 1.0], [0.8, 0.8], 1)
        # a sensor that cannot be stabilized even at q = 1
        with pytest.raises(FeasibilityError):
            optimize_randomized_q([3.0, 1.2], [1.0, 1.0], [0.5, 0.9], 2)


class TestLowerBound:
    def test_single_sensor_deterministic(self):
        value, thr = lower_bound_J([2.0], [1.0], [1.0], 1)
        assert thr == [1]
        assert value == pytest.approx(2.0)

    def test_objective_increasing_beyond_station(self):
        # per-sensor relaxed cost is increasing over integer thresholds
        rng = np.random.default_rng(40)
        for _ in range(20):
            alpha = rng.uniform(1.05, 2.0)
            p = rng.uniform(0.4, 1.0)
            if alpha * (1 - p) >= 0.95:
                continue
            fn = AoiFunction(alpha, rng.uniform(0.1, 4.0), p)
            vals = [threshold_average_cost(fn, ThresholdPolicy(d), 0.0)
                    for d in range(1, 30)]
            assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))

    def test_requires_stability(self):
        with pytest.raises(StabilityError):
            lower_bound_J([2.0], [1.0], [0.4], 1)

    def test_search_respects_budget(self):
        rng = np.random.default_rng(41)
        alphas = rng.uniform(1.1, 1.6, 5).tolist()
        betas = rng.uniform(0.3, 3.0, 5).tolist()
        probs = rng.uniform(0.8, 1.0, 5).tolist()
        _, thr = lower_bound_J(alphas, betas, probs, 2)
        load = sum(1.0 / (d * p + 1 - p) for d, p in zip(thr, probs))
        assert load <= 2.0 + 1e-12

    def test_dual_below_exact(self):
        rng = np.random.default_rng(42)
        alphas = rng.uniform(1.1, 1.5, 7).tolist()
        betas = rng.uniform(0.3, 3.0, 7).tolist()
        probs = rng.uniform(0.85, 1.0, 7).tolist()
        params = (np.array(alphas), np.array(betas), np.array(probs), 3)
        dual, dual_thr = _dual_threshold_search(*params)
        exact, _ = _exact_threshold_search(*params, dual_thr)
        assert dual <= exact + 1e-9
        assert dual >= 0.5 * exact  # sane, not vacuous

    def test_exact_search_independent_of_incumbent(self):
        # the dual's thresholds are feasible, and the pruned search reaches
        # the same optimum from them as from a far feasible start (the search
        # time grows steeply with that distance, hence the smaller far start
        # at N = 6)
        rng = np.random.default_rng(43)
        for n, m, far in ((2, 1, 200), (4, 2, 200), (6, 3, 20)):
            alphas = rng.uniform(1.1, 1.6, n)
            betas = rng.uniform(0.3, 3.0, n)
            probs = rng.uniform(0.8, 1.0, n)
            _, dual_thr = _dual_threshold_search(alphas, betas, probs, m)
            load = sum(1.0 / (d * p + 1 - p) for d, p in zip(dual_thr, probs))
            assert load <= m
            from_dual = _exact_threshold_search(alphas, betas, probs, m, dual_thr)
            from_far = _exact_threshold_search(alphas, betas, probs, m, [far] * n)
            assert from_dual == from_far


class TestLowerBoundOrigin:
    def test_scalar_reduces_to_min_eigen_form(self, scalar_plant, scalar_filter):
        value, thr, zetas = lower_bound_J_origin([scalar_plant], [scalar_filter], 1)
        assert zetas[0] == pytest.approx(1.0, rel=1e-10)
        beta_hat = min(1.0, scalar_filter.posterior_cov[0, 0])
        oracle, _ = lower_bound_J([1.44], [beta_hat], [0.9], 1)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_diagonal_dynamics_zeta_one(self):
        pl = PlantModel(A=np.diag([1.1, 1.3]), C=np.eye(2), Q=np.eye(2),
                        R=np.eye(2), p=0.9)
        ss = steady_state_filter(pl)
        _, _, zetas = lower_bound_J_origin([pl], [ss], 1)
        assert zetas[0] == pytest.approx(1.0, rel=1e-8)

    def test_random_zeta_at_most_one(self):
        plants = generate_ensemble(5, 2, 2, (1.05, 1.4), seed=43, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        _, _, zetas = lower_bound_J_origin(plants, filters, 2)
        assert all(z <= 1.0 + 1e-9 for z in zetas)

    def test_defective_rejected(self):
        a = np.array([[1.2, 1.0], [0.0, 1.2]])  # Jordan block
        pl = PlantModel(A=a, C=np.eye(2), Q=np.eye(2), R=np.eye(2), p=0.9)
        ss = steady_state_filter(pl)
        with pytest.raises(UnsupportedPlantError):
            lower_bound_J_origin([pl], [ss], 1)


class TestUpperBound:
    def test_frozen_single_sensor_example(self):
        parts = upper_bound_J([1.44], [1.0], [0.9], 1, [1.0])
        assert parts.l1[0] == pytest.approx(1.0514018691588785, rel=1e-10)
        assert parts.l2[0] == pytest.approx(-3.324129141886152, rel=1e-10)
        assert parts.eta[0] == pytest.approx(0.9, rel=1e-10)
        assert parts.s[0] == pytest.approx(2.9968564146134247, rel=1e-10)
        assert parts.delta_tilde[0] == 4
        assert parts.value == pytest.approx(20.78093312144247, rel=1e-9)

    def test_existence_condition(self):
        with pytest.raises(FeasibilityError):
            upper_bound_J([4.0, 4.0], [1.0, 1.0], [0.8, 0.8], 1, [0.5, 0.5])


class TestStability:
    def test_necessary(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.5)
        assert necessary_stability(pl)  # 1.44 * 0.5 = 0.72
        pl2 = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.2)
        assert not necessary_stability(pl2)  # 1.152
        pl3 = PlantModel(A=[[1.7]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=1.0)
        assert necessary_stability(pl3)

    def test_sufficient(self):
        pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)
        assert sufficient_stability(pl, 0.5)  # 1.44 * 0.55 = 0.792
        assert sufficient_stability(pl, 1.0) == necessary_stability(pl)

    def test_sufficient_implies_necessary(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            rho2 = rng.uniform(1.01, 2.5)
            p = rng.uniform(0.3, 1.0)
            q = rng.uniform(0.05, 1.0)
            pl = PlantModel(A=[[np.sqrt(rho2)]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=p)
            if sufficient_stability(pl, q):
                assert necessary_stability(pl)


class TestBoundsReport:
    def test_full_report_orders(self):
        plants = generate_ensemble(3, 3, 3, (1.03, 1.2), seed=45, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        rep = compute_bounds_report(plants, filters, cps, 2)
        assert rep.lower_J is not None and rep.upper_J is not None
        assert rep.lower_J <= rep.upper_J
        assert all(rep.necessary_stable)
        assert all(0 < q <= 1 for q in rep.q_star)
        assert sum(rep.q_star) <= 2 + 1e-9

    def test_refused_when_unstable(self):
        pl = PlantModel(A=[[1.4]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.3)
        ss = steady_state_filter(pl)
        cp = characteristic_params(pl, ss)
        rep = compute_bounds_report([pl], [ss], [cp], 1)
        assert rep.necessary_stable == [False]
        assert rep.lower_J is None
        assert any("necessary stability" in n for n in rep.notes)

    def test_json_roundtrip(self, tmp_path):
        import json

        plants = generate_ensemble(2, 2, 2, (1.05, 1.2), seed=46, p_range=(0.9, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        rep = compute_bounds_report(plants, filters, cps, 1)
        path = tmp_path / "bounds.json"
        rep.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["lower_J"] == pytest.approx(rep.lower_J)
