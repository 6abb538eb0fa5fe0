"""Command-line front end: gen | simulate | bounds | dp.

``gen``, ``simulate --generate``, ``bounds --generate`` and ``dp`` draw
their plants from the same flags (``--order``, ``--meas``, ``--rho-min``,
``--rho-max``; ``dp`` defaults ``--rho-max`` to 1.2) through one checked
generator. Every package error, bad input and failed file operation ends
the command with exit status 1 and a one-line ``error:`` message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import compute_bounds_report
from .errors import AoiSchedError
from .plants import (
    filters_and_params,
    generate_ensemble,
    load_ensemble,
    save_ensemble,
    write_atomic,
)
from .policies import (
    POLICY_KINDS,
    LightweightPolicy,
    PolicySpec,
    dp_optimal_policy,
    evaluate_policy_average_cost,
    parse_policy,
)
from .sim import (
    METRICS,
    SimConfig,
    SweepRow,
    run_sim,
    run_sweep,
    write_sweep_csv,
    write_sweep_json,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out", type=str, default=None, help="output path or prefix")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output only")


def _add_generation(p: argparse.ArgumentParser, rho_max: float = 1.3) -> None:
    p.add_argument("--order", type=int, default=3, help="state dimension n")
    p.add_argument("--meas", type=int, default=3, help="measurement dimension")
    p.add_argument("--rho-min", type=float, default=1.05)
    p.add_argument("--rho-max", type=float, default=rho_max)


def _generate(args, count: int, seed: int | np.random.SeedSequence, p_range=None) -> list:
    """The ensemble the generation flags describe, after checking them."""
    if count < 1:
        raise ValueError(f"plant count must be at least 1, got {count}")
    if not (1.0 < args.rho_min <= args.rho_max):
        raise ValueError("--rho-min must exceed 1 and not exceed --rho-max")
    return generate_ensemble(count, args.order, args.meas,
                             (args.rho_min, args.rho_max), seed, p_range=p_range)


def _load_plants(args) -> list:
    if args.plants is not None:
        return load_ensemble(args.plants)
    if args.generate is not None:
        return _generate(args, args.generate, args.seed)
    raise ValueError("give --plants FILE or --generate COUNT")


def _add_plants_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plants", type=str, default=None, help="plant ensemble JSON")
    p.add_argument("--generate", type=int, default=None,
                   help="generate this many random plants instead")
    _add_generation(p)


def _sweep_of(args) -> tuple[str, list[float]] | None:
    """The sweep of ``--sweep kind:lo:hi:steps`` or ``--sweep kind:v1,v2,...``."""
    if not args.sweep:
        return None
    kind, _, text = args.sweep.partition(":")
    try:
        if ":" in text:
            lo, hi, steps = text.split(":")
            values = np.linspace(float(lo), float(hi), int(steps)).tolist()
        else:
            values = [float(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values:
        raise ValueError(
            f"--sweep wants kind:lo:hi:steps or kind:v1,v2,..., got {args.sweep!r}"
        )
    return kind.strip(), values


def cmd_gen(args) -> int:
    p_range = None
    if args.p_min is not None or args.p_max is not None:
        p_range = (0.8 if args.p_min is None else args.p_min,
                   1.0 if args.p_max is None else args.p_max)
    plants = _generate(args, args.count, args.seed, p_range)
    out = args.out or "plants.json"
    save_ensemble(out, plants)
    if not args.json:
        print(f"wrote {len(plants)} plants to {out}")
    return 0


def _sim_config(args) -> SimConfig:
    return SimConfig(
        horizon=args.horizon,
        runs=args.runs,
        seed=args.seed,
        metric=args.metric,
        warmup=args.warmup,
        threads=args.threads,
    )


def cmd_simulate(args) -> int:
    specs = [parse_policy(p) for p in (args.policy or ["lightweight"])]
    config = _sim_config(args)
    sweep = _sweep_of(args)
    plants = _load_plants(args)
    if sweep:
        rows = run_sweep(*sweep, plants, specs, config, m=args.m)
    else:
        rows = [
            SweepRow(sweep="none", sweep_value=0.0,
                     report=run_sim(plants, spec, args.m, config))
            for spec in specs
        ]
    prefix = args.out or "results"
    write_sweep_csv(f"{prefix}.csv", rows)
    write_sweep_json(f"{prefix}.json", rows)
    dead = [r for r in rows if r.report.diverged_runs == r.report.runs]
    if dead:
        for r in dead:
            print(
                f"error: every run diverged for policy={r.report.policy} at "
                f"{r.sweep}={r.sweep_value:g}; the ensemble is not stabilizable "
                "at this budget (see necessary_stability)",
                file=sys.stderr,
            )
        return 1
    if args.json:
        print(json.dumps([r.report.to_dict() for r in rows]))
    else:
        for r in rows:
            rep = r.report
            print(
                f"{r.sweep}={r.sweep_value:g} policy={rep.policy:<12s} "
                f"J={rep.mean_J:.6g} ±{rep.ci95:.2g} "
                f"diverged={rep.diverged_runs}"
            )
        print(f"wrote {prefix}.csv and {prefix}.json")
    return 0


def cmd_bounds(args) -> int:
    plants = _load_plants(args)
    filters, cps = filters_and_params(plants)
    report = compute_bounds_report(plants, filters, cps, args.m)
    doc = report.to_dict()
    if args.out:
        report.to_json(args.out)
    if args.json:
        print(json.dumps(doc))
        return 0
    print(f"M={args.m}, N={len(plants)}")
    for i in range(len(plants)):
        suff = (
            "-" if report.sufficient_stable is None
            else str(report.sufficient_stable[i])
        )
        print(
            f"  sensor {i}: alpha={report.alphas[i]:.4f} "
            f"beta={report.betas[i]:.4f} p={report.probs[i]:.3f} "
            f"necessary_stable={report.necessary_stable[i]} "
            f"sufficient_stable={suff}"
        )
    if report.lower_J is not None:
        print(f"lower bound J = {report.lower_J:.6g} "
              f"thresholds={report.thresholds_star} lambda*={report.lower_lambda:.6g}")
    if report.lower_J_origin is not None:
        print(f"lower bound J_origin = {report.lower_J_origin:.6g}")
    if report.q_star is not None:
        print("q* =", " ".join(f"{q:.4f}" for q in report.q_star))
    if report.upper_J is not None:
        print(f"upper bound J = {report.upper_J:.6g}")
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_dp(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    pairs = []
    for chunk in args.pairs.split(","):
        m_s, _, n_s = chunk.partition(":")
        try:
            pairs.append((int(m_s), int(n_s)))
        except ValueError:
            raise ValueError(
                f"--pairs wants a comma list of M:N pairs, got {chunk!r}"
            ) from None
    lines = ["m,n,instance,ours,optimal,ratio"]
    ratios = []
    for m, n in pairs:
        for inst in range(args.instances):
            # one entropy word per coordinate: no two (M, N, instance) share a stream
            seed = np.random.SeedSequence([args.seed, m, n, inst])
            plants = _generate(args, n, seed, (0.8, 1.0))
            filters, cps = filters_and_params(plants)
            sol = dp_optimal_policy(plants, m, delta_cap=args.cap, filters=filters)
            ours = evaluate_policy_average_cost(
                LightweightPolicy(cps, [pl.p for pl in plants], m),
                plants, m, delta_cap=args.cap, filters=filters,
            )
            ratio = ours / sol.average_cost
            ratios.append(ratio)
            lines.append(
                f"{m},{n},{inst},{ours!r},{sol.average_cost!r},{ratio!r}"
            )
            if not args.json:
                print(f"M={m} N={n} inst={inst}: ours={ours:.4f} "
                      f"optimal={sol.average_cost:.4f} ratio={ratio:.4f}")
    mean_ratio = float(np.mean(ratios))
    if args.json:
        print(json.dumps({"pairs": args.pairs, "mean_ratio": mean_ratio}))
    else:
        print(f"ensemble-averaged ratio = {mean_ratio:.4f}")
    if args.out:
        write_atomic(args.out, "\n".join(lines) + "\n")
        if not args.json:
            print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aoi-sched",
        description="Whittle-index sensor scheduling simulator and bounds",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random plant ensemble")
    _add_common(g)
    g.add_argument("--count", type=int, required=True)
    _add_generation(g)
    g.add_argument("--p-min", type=float, default=None)
    g.add_argument("--p-max", type=float, default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("simulate", help="Monte Carlo simulation")
    _add_common(s)
    _add_plants_source(s)
    s.add_argument("--threads", type=int, default=SimConfig.threads,
                   help="worker pool size")
    s.add_argument("--m", type=int, default=None,
                   help="channel budget M (default: N/2, rounded; a scale sweep "
                        "always takes N/2 at each point)")
    s.add_argument("--policy", action="append",
                   help=f"policy, one of {', '.join(POLICY_KINDS)} (repeatable)")
    s.add_argument("--metric", type=str, default=SimConfig.metric, choices=METRICS)
    s.add_argument("--horizon", type=int, default=SimConfig.horizon)
    s.add_argument("--runs", type=int, default=SimConfig.runs)
    s.add_argument("--warmup", type=int, default=SimConfig.warmup)
    s.add_argument("--sweep", type=str, default=None,
                   help="kind:lo:hi:steps or kind:v1,v2,... with kind one of "
                        "scale, heterogeneity, channel")
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bounds", help="closed-form bounds and stability report")
    _add_common(b)
    _add_plants_source(b)
    b.add_argument("--m", type=int, required=True)
    b.set_defaults(func=cmd_bounds)

    d = sub.add_parser("dp", help="DP-optimal vs lightweight comparison")
    _add_common(d)
    d.add_argument("--pairs", type=str, default="1:2,1:3,2:3,2:4,3:4",
                   help="comma list of M:N pairs")
    d.add_argument("--instances", type=int, default=5)
    d.add_argument("--cap", type=int, default=PolicySpec.delta_cap)
    _add_generation(d, rho_max=1.2)
    d.set_defaults(func=cmd_dp)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (AoiSchedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
