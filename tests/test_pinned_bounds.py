"""Bounds reports and VoI trace rows pinned against a recorded file.

``pinned_bounds.json`` holds ``float.hex`` of every float in two bounds
reports, at N = 20 and at N = 4 (both on the Lagrangian dual, the one
threshold search), and the sha256 of the trace-cost rows that
VoI-Whittle and VoI-greedy build on a mixed-dimension ensemble with a row
that overflows to ``inf``. All of them must match bit for bit. A change that
moves these outputs on purpose records the file again
(``python tests/test_pinned_bounds.py --record``) and says why.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from aoi_sched import (
    VoiGreedyPolicy,
    VoiWhittlePolicy,
    compute_bounds_report,
    generate_ensemble,
)
from aoi_sched.plants import filters_and_params

PINNED = pathlib.Path(__file__).with_name("pinned_bounds.json")
# (N, M, seed) on the oracles workload's plant family, one paper-scale
# ensemble and one small one
REPORTS = [(20, 10, 0), (4, 2, 1)]
MIXED_DIMS = (1, 2, 3, 6, 2, 1)  # state dimension of each plant, in order


def _hex(value):
    """``value`` with every float written as ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, list):
        return [_hex(v) for v in value]
    return value


def _report(n, m, seed):
    plants = generate_ensemble(n, 3, 3, (1.05, 1.25), seed=seed, p_range=(0.85, 1.0))
    filters, cps = filters_and_params(plants)
    return {k: _hex(v) for k, v in compute_bounds_report(plants, filters, cps, m).to_dict().items()}


def _mixed_ensemble():
    """Plants of state dimension 1, 2, 3 and 6, the 6-dimensional one fully
    measured and fast enough (rho >= 5) that its traces overflow well inside
    the tables."""
    plants = []
    for k, n in enumerate(MIXED_DIMS):
        fast = n == 6
        plants += generate_ensemble(1, n, n if fast else 1, (5.0, 6.0) if fast else (1.05, 1.3),
                                    seed=4200 + k)
    return plants


def _sha(rows):
    return hashlib.sha256(np.ascontiguousarray(np.vstack(rows), dtype="<f8").tobytes()).hexdigest()


def _trace_rows():
    plants = _mixed_ensemble()
    filters, _ = filters_and_params(plants)
    whittle = VoiWhittlePolicy(plants, filters, 2, delta_cap=40, use_cache=True)
    greedy = VoiGreedyPolicy(plants, filters, 2)
    return {"voi_whittle_costs_sha256": _sha(whittle._costs),
            "voi_greedy_rows_sha256": _sha(greedy._rows(64))}


def _name(n, m, seed):
    return f"N={n},M={m},seed={seed}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def _where(pinned, case):
    return f"{case} (recorded with numpy {pinned['numpy']}, running {np.__version__})"


@pytest.mark.parametrize("case", REPORTS, ids=[_name(*c) for c in REPORTS])
def test_bounds_report_matches_the_recorded_file(pinned, case):
    want = pinned["reports"][_name(*case)]
    got = _report(*case)
    assert sorted(got) == sorted(want), f"{_where(pinned, _name(*case))}: report fields differ"
    for key in want:
        assert got[key] == want[key], (
            f"{_where(pinned, _name(*case))}: {key} {got[key]} != recorded {want[key]}")


def test_voi_trace_rows_match_the_recorded_file(pinned):
    want = pinned["trace_rows"]
    got = _trace_rows()
    for key in want:
        assert got[key] == want[key], (
            f"{_where(pinned, f'dims={MIXED_DIMS}')}: {key} {got[key]} != recorded {want[key]}")


def test_mixed_ensemble_reaches_inf():
    # the pinned rows cover the overflow branch: the 6-dimensional plant's
    # traces read inf before the end of VoI-Whittle's table
    plants = _mixed_ensemble()
    filters, _ = filters_and_params(plants)
    costs = np.vstack(VoiWhittlePolicy(plants, filters, 2, 40, True)._costs)
    assert [pl.n for pl in plants] == list(MIXED_DIMS)
    assert np.isinf(costs[3]).any() and np.isfinite(costs[np.arange(6) != 3]).all()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINNED.write_text(json.dumps(
        {"numpy": np.__version__,
         "reports": {_name(*c): _report(*c) for c in REPORTS},
         "trace_rows": _trace_rows()},
        indent=2) + "\n")
