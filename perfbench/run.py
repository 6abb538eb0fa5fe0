"""aoi-sched benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mc-n20 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else. The run builds the workload's inputs
from ``--seed``, sets them up several times (reporting the median as
``setup_s``), then repeats the workload's fixed job for ``--seconds``
seconds, one library call at a time, on one thread. Every operation's output
is checked; see ``workloads.py`` for the checks. Reported times are scaled
by a calibration kernel timed in the same run; see ``calibration.py``.

Output: human-readable lines with the provenance block and every metric the
workload defines, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` ones; with ``--trace 1``
they are its ``per_layer`` ones, taken from spans recorded around the
library's public callables, which are also written to ``perfbench/out/``.

``--record`` runs one pass and stores its outputs as the reference for the
seed and size instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread everywhere, set before numpy loads: runs are closed loops on
# one core, and the figures must not depend on the BLAS thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-n20", "mc-n1000", "oracles", "decide")
SETUP_REPEATS = 7
MIN_PASSES = 3
KERNEL_SHARE = 0.1  # calibration time per phase, as a share of the phase
REL_TOL = 1e-9


def import_library():
    """Import aoi_sched from this checkout's src/, refusing any other copy."""
    if not (SRC / "aoi_sched" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import aoi_sched

    if Path(aoi_sched.__file__).resolve().parent != SRC / "aoi_sched":
        sys.exit(f"error: imported aoi_sched from {aoi_sched.__file__}, not {SRC}")
    return aoi_sched


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "aoi_sched").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, reference_found: bool) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "threads": 1,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": "checked" if reference_found else "none stored for this seed",
        **workload.provenance(),
    }


def same(got, want) -> bool:
    """Records match: equal strings, floats within REL_TOL relative."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k]) for k in want))
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0) or got == want
    return got == want


class Checker:
    """Counts operations and failures across passes.

    An operation fails when its own invariants fail, when its record
    differs from the same operation's record in the run's first pass, or
    when it differs from the stored reference for this seed.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, phase, outcomes) -> None:
        first = self.first.setdefault(phase, [rec for rec, _ in outcomes])
        ref = self.reference.get(phase) if self.reference is not None else None
        for i, (rec, ok) in enumerate(outcomes):
            if rec is not None:
                ok = ok and i < len(first) and same(rec, first[i])
                if self.reference is not None:
                    ok = ok and ref is not None and i < len(ref) and same(rec, ref[i])
            self.attempted += 1
            self.failed += not ok


def run_pass(phases, checker, tracer=None, after_phase=None) -> dict[str, float]:
    """One pass over the job; returns each phase's wall seconds."""
    times = {}
    for phase in phases:
        t0 = time.perf_counter()
        if tracer is None:
            out = phase.call()
        else:
            with tracer.span(phase.name):
                out = phase.call()
        times[phase.name] = time.perf_counter() - t0
        checker.check(phase.name, phase.check(out))
        if after_phase is not None:
            after_phase(times[phase.name])
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(workload, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """End-to-end run: returns (end-to-end metrics, workload metrics).

    The workload's calibration kernel runs after every set-up, and after
    every phase of every pass for about a tenth of the phase's time. Set-up
    times are scaled by (nominal / median kernel time) over the set-ups,
    pass times by the same over the passes; see calibration.py. Raw wall
    times are reported alongside.
    """
    import numpy as np

    kernel = workload.kernel()
    setups, setup_kernels = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        setup_kernels.append(kernel.time())
    phases = workload.phases()
    passes, kernels = [], []

    def calibrate(phase_s: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < KERNEL_SHARE * phase_s:
            kernels.append(kernel.time())
            spent += kernels[-1]

    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(phases, checker, after_phase=calibrate))
    kernel_s = statistics.median(kernels)
    scale = kernel.nominal_s / kernel_s
    setup_wall, job_wall = statistics.median(setups), _job_wall_s(passes)
    setup_scale = kernel.nominal_s / statistics.median(setup_kernels)
    named = {"setup_s": _metric(setup_wall * setup_scale, "s"),
             "job_s": _metric(job_wall * scale, "s")}
    for phase in phases:
        if phase.name == "decide_us":
            samples = np.frombuffer(workload.samples_ns, dtype=np.int64)
            p50, p99 = np.percentile(samples, [50, 99]) * scale
            named["decide_us.p50"] = _metric(p50 / 1e3, "us")
            named["decide_us.p99"] = _metric(p99 / 1e3, "us")
            named["decide_us.samples"] = _metric(samples.size, "count")
        else:
            phase_s = statistics.median(p[phase.name] for p in passes) * scale
            named[phase.name] = _metric(phase.units / phase_s, "1/s")
    named["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")
    named["passes"] = _metric(len(passes), "count")
    named["setup_wall_s"] = _metric(setup_wall, "s")
    named["job_wall_s"] = _metric(job_wall, "s")
    named["kernel_s"] = _metric(kernel_s, "s")
    return {k: named[k] for k in ("setup_s", "job_s", "peak_rss_mb")}, named


def _job_wall_s(passes: list[dict]) -> float:
    return statistics.median(sum(p.values()) for p in passes)


def measure_traced(workload, seconds: float, checker: Checker, spans_path: Path):
    """Traced run: alternates untraced and traced passes of the same job.

    The traced passes give the per-layer figures; the difference between the
    traced and untraced pass medians is the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            workload.setup()
    finally:
        tracer.remove()
    phases = workload.phases()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(run_pass(phases, checker))
        tracer.install()
        try:
            with tracer.span("pass"):
                traced.append(run_pass(phases, checker, tracer))
        finally:
            tracer.remove()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    untraced_s = _job_wall_s(plain)
    traced_s = _job_wall_s(traced)
    metrics = layer_metrics(tracer.spans, traced_s - untraced_s, untraced_s)
    named = {"untraced_job_wall_s": _metric(untraced_s, "s"),
             "traced_job_wall_s": _metric(traced_s, "s"),
             "traced_passes": _metric(len(traced), "count"),
             "spans": _metric(len(tracer.spans), "count")}
    return metrics, named


def load_reference(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def record(args, workload) -> None:
    """Store one pass's outputs as the reference for (size, workload, seed)."""
    workload.setup()
    entry = {}
    for phase in workload.phases():
        recs = [rec for rec, _ in phase.check(phase.call())]
        if any(rec is not None for rec in recs):
            entry[phase.name] = recs
    doc = load_reference(args.reference)
    doc.setdefault(args.size, {}).setdefault(workload.name, {})[str(args.seed)] = entry
    tmp = args.reference.with_name(args.reference.name + f".tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.reference)
    print(f"recorded {args.size}/{workload.name}/seed {args.seed} in {args.reference}")


def run_one(args, name: str) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](args.seed, args.size)
    if args.record:
        record(args, workload)
        return {}
    stored = load_reference(args.reference).get(args.size, {}).get(name, {})
    reference = stored.get(str(args.seed))
    checker = Checker(reference)
    if args.trace:
        spans_path = args.out / f"spans-{name}-seed{args.seed}.json"
        metrics, named = measure_traced(workload, args.seconds, checker, spans_path)
    else:
        metrics, named = measure(workload, args.seconds, checker)
    named["failed_frac"] = _metric(checker.failed / max(checker.attempted, 1), "ratio")
    print(f"# aoi-sched benchmark: workload {name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args, workload, reference is not None),
                                     sort_keys=True))
    for key, m in {**named, **(metrics if args.trace else {})}.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {checker.attempted}, failed {checker.failed}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(args, name)
        if result:
            print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
