"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight
criteria (bound sandwich, DP closeness, trajectory consistency) dominate
the runtime; each stays well inside its stated budget.
"""

import time

import numpy as np
import pytest
from scipy import stats

from aoi_sched import (
    AoiFunction,
    PlantModel,
    PolicySpec,
    RandomizedStationaryPolicy,
    SimConfig,
    ThresholdPolicy,
    characteristic_params,
    compute_bounds_report,
    dp_optimal_policy,
    evaluate_policy_average_cost,
    generate_ensemble,
    generate_plant,
    measure_decision_time,
    optimize_randomized_q,
    run_covariance_sim,
    run_sweep,
    run_trajectory_sim,
    stationary_aoi_distribution,
    steady_state_filter,
    threshold_average_cost,
    whittle_index,
    whittle_index_numeric,
)
from aoi_sched.policies import LightweightPolicy, Policy


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status}: {detail}")
    return ok


def _stable_fn(rng, alpha_rng=(1.05, 2.0), p_rng=(0.5, 1.0), margin=0.95):
    while True:
        alpha = rng.uniform(*alpha_rng)
        p = rng.uniform(*p_rng)
        if alpha * (1 - p) < margin:
            return AoiFunction(alpha, rng.uniform(0.1, 5.0), p)


def test_c01_whittle_oracle_equivalence():
    """Closed form vs the certified Newton/policy-iteration oracle on a 100-point grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        fn = _stable_fn(rng)
        d = int(rng.integers(1, 11))
        cf = whittle_index(fn, d)
        num = whittle_index_numeric(fn, d)
        worst = max(worst, abs(cf - num) / abs(cf))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 60.0
    assert _verdict(1, ok, f"oracle agreement worst rel err {worst:.2e} "
                           f"(tol 1e-5), {elapsed:.1f}s (< 60s)")


def test_c02_threshold_tie_condition():
    """Average cost equal at thresholds d and d+1 when W = whittle_index(d)."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        fn = _stable_fn(rng, alpha_rng=(1.05, 2.2), p_rng=(0.4, 1.0))
        d = int(rng.integers(1, 15))
        w = whittle_index(fn, d)
        t1 = threshold_average_cost(fn, ThresholdPolicy(d), w)
        t2 = threshold_average_cost(fn, ThresholdPolicy(d + 1), w)
        worst = max(worst, abs(t1 - t2) / abs(t1))
    ok = worst < 1e-6
    assert _verdict(2, ok, f"tie condition worst rel gap {worst:.2e} (tol 1e-6)")


def test_c03_trace_inequality_suite():
    """Geometric trace bounds and the tightness of the spectral rate.

    Verified on 200 random plants with normal dynamics, the family on
    which the bounds' derivation is valid (for generic dense matrices the
    k-step trace is governed by singular values and overshoots the
    spectral-radius envelope transiently; see the dense-matrix unit test
    and the decisions ledger). Tightness: wherever beta* is attained by
    the filter branch the 0.99-scaled envelope breaks by k <= 60; for
    trace(Q)-branch plants the divergence of the 0.99-scaled ratio is
    certified by k <= 600.
    """
    rng = np.random.default_rng(103)
    n_ineq_bad = 0
    p_branch = q_branch = 0
    tight60_bad = tight600_bad = 0
    for _ in range(200):
        pl = generate_plant(3, 3, (1.05, 1.6), rng, dynamics="normal")
        ss = steady_state_filter(pl)
        cp = characteristic_params(pl, ss)
        ak = np.eye(3)
        for k in range(1, 16):
            ak = ak @ pl.A
            bound = cp.beta * cp.alpha**k
            if (np.trace(ak @ pl.Q @ ak.T) > bound * (1 + 1e-9)
                    or np.trace(ak @ ss.posterior_cov @ ak.T) > bound * (1 + 1e-9)):
                n_ineq_bad += 1
        # tightness: compare on the normalized scale B = A / sqrt(alpha)
        b = pl.A / np.sqrt(cp.alpha)
        bk = np.eye(3)
        filter_branch = (
            np.trace(pl.A @ ss.posterior_cov @ pl.A.T) / cp.alpha >= np.trace(pl.Q)
        )
        hit = None
        for k in range(1, 601):
            bk = bk @ b
            envelope = cp.beta * 0.99**k
            if (np.trace(bk @ pl.Q @ bk.T) > envelope
                    or np.trace(bk @ ss.posterior_cov @ bk.T) > envelope):
                hit = k
                break
        if filter_branch:
            p_branch += 1
            if hit is None or hit > 60:
                tight60_bad += 1
        else:
            q_branch += 1
            if hit is None:
                tight600_bad += 1
    ok = n_ineq_bad == 0 and tight60_bad == 0 and tight600_bad == 0
    assert _verdict(
        3, ok,
        f"trace bounds hold on 200 normal plants (k=1..15, {n_ineq_bad} misses); "
        f"0.99-rate violated by k<=60 on all {p_branch} filter-branch plants "
        f"({tight60_bad} misses) and by k<=600 on all {q_branch} "
        f"trace(Q)-branch plants ({tight600_bad} misses)",
    )


class _ThresholdHelper(Policy):
    name = "threshold"

    def __init__(self, delta_th):
        super().__init__(1, 1)
        self.delta_th = delta_th

    def decide_batch(self, deltas):
        return deltas >= self.delta_th


def test_c04_distribution_checks():
    """Stationary AoI law: normalization, simulation match, geometric q*p."""
    rng = np.random.default_rng(104)
    # analytic normalization including the truncated tail
    norm_worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.05, 1.0)
        dth = int(rng.integers(1, 15))
        psi, tail = stationary_aoi_distribution(p, ThresholdPolicy(dth),
                                                dth + int(rng.integers(0, 50)))
        norm_worst = max(norm_worst, abs(psi[1:].sum() + tail - 1.0))

    # empirical histogram of a simulated threshold policy, 1e6 measured steps
    p, dth = 0.7, 4
    chains, steps, warm = 1000, 1100, 100
    delta = np.ones(chains, dtype=np.int64)
    counts = np.zeros(200, dtype=np.int64)
    for t in range(steps):
        ok_t = (delta >= dth) & (rng.random(chains) < p)
        delta = np.where(ok_t, 1, delta + 1)
        if t >= warm:
            counts += np.bincount(np.minimum(delta, 199), minlength=200)
    emp = counts / counts.sum()
    psi, tail = stationary_aoi_distribution(p, ThresholdPolicy(dth), 198)
    tv = 0.5 * (np.sum(np.abs(emp[1:199] - psi[1:])) + abs(emp[199] - tail))

    # randomized policy at the optimized marginals: AoI is geometric(q* p)
    plants = generate_ensemble(3, 3, 3, (1.05, 1.25), seed=1040, p_range=(0.85, 1.0))
    cps = [characteristic_params(pl, steady_state_filter(pl)) for pl in plants]
    q_star, _ = optimize_randomized_q(
        [cp.alpha for cp in cps], [cp.beta for cp in cps],
        [pl.p for pl in plants], 2,
    )
    pol = RandomizedStationaryPolicy(q_star, 2)
    pol.rng = np.random.default_rng(105)
    chains = 100
    deltas = np.ones((chains, 3), dtype=np.int64)
    probs = np.array([pl.p for pl in plants])
    hist = np.zeros((3, 400), dtype=np.int64)
    for t in range(1200):
        mask = pol.decide_batch(deltas)
        gamma = mask & (pol.rng.random((chains, 3)) < probs[None, :])
        deltas = np.where(gamma, 1, deltas + 1)
        if t >= 200:  # 1e5 measured steps per sensor
            for i in range(3):
                hist[i] += np.bincount(np.minimum(deltas[:, i], 399), minlength=400)
    pvals = []
    for i in range(3):
        rate = q_star[i] * probs[i]
        obs = hist[i]
        n_obs = obs.sum()
        # pool bins so every expected count is at least 5
        expected_full = n_obs * rate * (1 - rate) ** (np.arange(400) - 1.0)
        expected_full[0] = 0.0
        obs_b, exp_b = [], []
        acc_o = acc_e = 0.0
        for k in range(1, 400):
            acc_o += obs[k]
            acc_e += expected_full[k]
            if acc_e >= 5.0:
                obs_b.append(acc_o)
                exp_b.append(acc_e)
                acc_o = acc_e = 0.0
        tail_o = n_obs - sum(obs_b)
        tail_e = n_obs - sum(exp_b)
        if tail_e > 0:
            obs_b.append(tail_o)
            exp_b.append(tail_e)
        exp_b = np.array(exp_b) * (sum(obs_b) / sum(exp_b))
        pvals.append(stats.chisquare(obs_b, exp_b).pvalue)

    ok = norm_worst < 1e-10 and tv < 0.01 and all(pv > 0.01 for pv in pvals)
    assert _verdict(
        4, ok,
        f"normalization gap {norm_worst:.1e} (tol 1e-10); histogram TV {tv:.4f} "
        f"(< 0.01); geometric(q*p) chi-square p-values "
        f"{[f'{p_:.3f}' for p_ in pvals]} (all > 0.01)",
    )


def test_c05_bound_sandwich():
    """Lower bound - CI <= simulated lightweight J <= upper bound + CI."""
    start = time.perf_counter()
    violations = 0
    made = 0
    seed = 0
    while made < 50:
        seed += 1
        plants = generate_ensemble(4, 3, 3, (1.02, 1.25), seed=5000 + seed,
                                   p_range=(0.85, 1.0))
        filters = [steady_state_filter(pl) for pl in plants]
        cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
        exist = sum((1.0 / pl.p) * (1.0 - 1.0 / cp.alpha)
                    for pl, cp in zip(plants, cps))
        if exist >= 2.0:
            continue
        made += 1
        rep = compute_bounds_report(plants, filters, cps, 2)
        cfg = SimConfig(horizon=600, runs=1200, seed=seed, metric="aoi-function")
        sim = run_covariance_sim(plants, PolicySpec("lightweight"), 2, cfg)
        if not (rep.lower_J - sim.ci95 <= sim.mean_J <= rep.upper_J + sim.ci95):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 600.0
    assert _verdict(5, ok, f"sandwich held on {50 - violations}/50 ensembles "
                           f"(need 50/50), {elapsed:.0f}s (< 600s)")


def test_c06_dp_closeness():
    """Ensemble-averaged lightweight/DP cost ratio over the (M, N) grid."""
    start = time.perf_counter()
    pairs = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    ratios = []
    per_pair = {}
    for m, n in pairs:
        vals = []
        for inst in range(20):
            plants = generate_ensemble(
                n, 3, 3, (1.05, 1.2), seed=6000 + 997 * m + 31 * n + inst,
                p_range=(0.8, 1.0),
            )
            filters = [steady_state_filter(pl) for pl in plants]
            cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
            sol = dp_optimal_policy(plants, m, delta_cap=25, filters=filters)
            ours = evaluate_policy_average_cost(
                LightweightPolicy(cps, [pl.p for pl in plants], m),
                plants, m, delta_cap=25, filters=filters,
            )
            assert ours >= sol.average_cost - 1e-8
            vals.append(ours / sol.average_cost)
        per_pair[(m, n)] = float(np.mean(vals))
        ratios.extend(vals)
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - start
    ok = mean_ratio <= 1.15 and elapsed < 1800.0
    detail = ", ".join(f"M={m},N={n}: {r:.4f}" for (m, n), r in per_pair.items())
    assert _verdict(6, ok, f"mean ratio {mean_ratio:.4f} (<= 1.15) [{detail}], "
                           f"{elapsed:.0f}s (< 1800s)")


def test_c07_single_sensor_closed_form():
    """Simulated average AoI cost within 1% of beta alpha p/(1-alpha(1-p))."""
    pl = PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)
    cfg = SimConfig(horizon=1000, runs=10_000, seed=107, metric="aoi-function")
    rep = run_covariance_sim([pl], PolicySpec("lightweight"), 1, cfg)
    expect = 1.44 * 0.9 / (1.0 - 1.44 * 0.1)
    rel = abs(rep.mean_J - expect) / expect
    ok = rel < 0.01
    assert _verdict(7, ok, f"simulated {rep.mean_J:.5f} vs closed form "
                           f"{expect:.5f}, rel err {rel:.2e} (< 1e-2)")


def test_c08_trajectory_consistency():
    """Empirical squared error within 5% of the analytic trace average."""
    plants = generate_ensemble(10, 3, 3, (1.05, 1.25), seed=108,
                               p_range=(0.85, 1.0))
    cfg = SimConfig(horizon=300, runs=10_000, seed=1080, metric="squared-error")
    emp = run_trajectory_sim(plants, PolicySpec("lightweight"), 5, cfg)
    cfg2 = SimConfig(horizon=300, runs=10_000, seed=1080, metric="trace")
    ana = run_covariance_sim(plants, PolicySpec("lightweight"), 5, cfg2)
    ratio = emp.mean_J / ana.mean_J
    ok = 0.95 <= ratio <= 1.05
    assert _verdict(8, ok, f"empirical/analytic MSE ratio {ratio:.4f} "
                           f"(in [0.95, 1.05]) on 10 random 3x3 plants")


def test_c09_comparative_trends():
    """Policy ordering, channel monotonicity, homogeneous degeneracy."""
    # heterogeneous ensemble at N/M = 2: lightweight beats the AoI-only policies
    plants = generate_ensemble(6, 3, 3, (1.05, 1.45), seed=109,
                               p_range=(0.75, 1.0))
    cfg = SimConfig(horizon=500, runs=10_000, seed=1090, metric="aoi-function")
    reports = {
        kind: run_covariance_sim(plants, PolicySpec(kind), 3, cfg)
        for kind in ("lightweight", "aoi-greedy", "aoi-whittle")
    }
    lw = reports["lightweight"]
    sep_greedy = (reports["aoi-greedy"].mean_J - reports["aoi-greedy"].ci95) - (
        lw.mean_J + lw.ci95
    )
    sep_whittle = (reports["aoi-whittle"].mean_J - reports["aoi-whittle"].ci95) - (
        lw.mean_J + lw.ci95
    )
    ordering_ok = sep_greedy > 0 and sep_whittle > 0

    # common channel success sweep: MSE nonincreasing in p for every policy
    plants2 = generate_ensemble(4, 3, 3, (1.05, 1.25), seed=1091,
                                p_range=(0.9, 1.0))
    cfg2 = SimConfig(horizon=400, runs=3000, seed=1092, metric="trace")
    kinds = ("lightweight", "aoi-greedy", "voi-greedy", "aoi-whittle", "voi-whittle")
    rows = run_sweep("channel", [0.8, 0.85, 0.9, 0.95, 1.0], plants2,
                     [PolicySpec(k) for k in kinds], cfg2, m=2)
    mono_ok = True
    series = {}
    for r in rows:
        series.setdefault(r.report.policy, []).append((r.sweep_value, r.report.mean_J))
    for pts in series.values():
        pts.sort()
        js = [j for _, j in pts]
        mono_ok &= all(js[i + 1] <= js[i] * (1 + 1e-9) for i in range(len(js) - 1))

    # zero heterogeneity: index policies coincide within CI
    cfg3 = SimConfig(horizon=400, runs=2000, seed=1093, metric="aoi-function")
    rows3 = run_sweep("heterogeneity", [0.0], plants2,
                      [PolicySpec(k) for k in ("lightweight", "aoi-greedy",
                                               "aoi-whittle", "voi-whittle")],
                      cfg3, m=2)
    js3 = [r.report.mean_J for r in rows3]
    ci3 = max(r.report.ci95 for r in rows3)
    homog_ok = max(js3) - min(js3) <= 2 * ci3 + 1e-9

    ok = ordering_ok and mono_ok and homog_ok
    assert _verdict(
        9, ok,
        f"lightweight {lw.mean_J:.2f} < aoi-greedy "
        f"{reports['aoi-greedy'].mean_J:.2f} and aoi-whittle "
        f"{reports['aoi-whittle'].mean_J:.2f} with CI separation "
        f"({sep_greedy:.2f}, {sep_whittle:.2f}); channel sweep monotone: "
        f"{mono_ok}; homogeneous spread {max(js3) - min(js3):.2e} <= 2*CI",
    )


def test_c10_timing_soft():
    """(soft) Lightweight decision cost: 5x under uncached VoI-Whittle, ~N (partition)."""
    plants = generate_ensemble(20, 3, 3, (1.05, 1.25), seed=110,
                               p_range=(0.85, 1.0))
    rows = measure_decision_time(
        plants,
        [PolicySpec("lightweight"), PolicySpec("aoi-greedy"),
         PolicySpec("voi-whittle", use_cache=False)],
        [10, 20], decisions=10_000, time_budget_s=2.0, seed=0,
    )
    med = {(r["policy"], r["n"]): r["median_s"] for r in rows}
    speedup = med[("voi-whittle", 20)] / med[("lightweight", 20)]
    growth = med[("lightweight", 20)] / med[("lightweight", 10)]
    greedy_ratio = med[("aoi-greedy", 20)] / med[("lightweight", 20)]
    ok = speedup >= 5.0 and growth < 3.0
    assert _verdict(
        10, ok,
        f"lightweight {med[('lightweight', 20)]*1e6:.1f}us vs uncached "
        f"voi-whittle {med[('voi-whittle', 20)]*1e3:.1f}ms at N=20 "
        f"({speedup:.0f}x, need >= 5x); N=10->20 growth {growth:.2f} (< 3); "
        f"aoi-greedy/lightweight {greedy_ratio:.2f}",
    )
