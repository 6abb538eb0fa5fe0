"""Seeded joint-chain DP outputs pinned against a recorded file.

For a few small instances, ``pinned_dp.json`` holds the sha256 of the
optimal and of the lightweight action table, and ``float.hex`` of the solved
and the lightweight average cost. Tables must match bit for bit; costs must
agree within 1e-11 relative, the DP parity rule, since a faster solver may
move their last bits. A change that moves these outputs on purpose records
the file again (``python tests/test_pinned_dp.py --record``) and says why.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from aoi_sched import (
    LightweightPolicy,
    characteristic_params,
    dp_optimal_policy,
    evaluate_policy_average_cost,
    generate_ensemble,
    steady_state_filter,
)
from aoi_sched.policies import policy_action_table

PINNED = pathlib.Path(__file__).with_name("pinned_dp.json")
CASES = [(1, 2, 25), (2, 3, 12), (2, 4, 8)]  # (M, N, cap), instance 0 of C6's seeds
RTOL = 1e-11


def _outputs(m, n, cap):
    plants = generate_ensemble(n, 3, 3, (1.05, 1.2), seed=6000 + 997 * m + 31 * n,
                               p_range=(0.8, 1.0))
    filters = [steady_state_filter(pl) for pl in plants]
    cps = [characteristic_params(pl, ss) for pl, ss in zip(plants, filters)]
    probs = [pl.p for pl in plants]
    sol = dp_optimal_policy(plants, m, delta_cap=cap, filters=filters)
    ours_table = policy_action_table(LightweightPolicy(cps, probs, m), cap)
    ours = evaluate_policy_average_cost(LightweightPolicy(cps, probs, m), plants, m,
                                        delta_cap=cap, filters=filters)

    def sha(table):
        return hashlib.sha256(np.ascontiguousarray(table, dtype="<i2").tobytes()).hexdigest()

    return {"optimal_table_sha256": sha(sol.action_table),
            "lightweight_table_sha256": sha(ours_table),
            "optimal_cost": float.hex(sol.average_cost),
            "lightweight_cost": float.hex(ours)}


def _name(m, n, cap):
    return f"M={m},N={n},cap={cap}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("case", CASES, ids=[_name(*c) for c in CASES])
def test_dp_outputs_match_the_recorded_file(pinned, case):
    want = pinned["cases"][_name(*case)]
    got = _outputs(*case)
    where = f"{_name(*case)} (recorded with numpy {pinned['numpy']}, running {np.__version__})"
    for key in ("optimal_table_sha256", "lightweight_table_sha256"):
        assert got[key] == want[key], f"{where}: {key} {got[key]} != recorded {want[key]}"
    for key in ("optimal_cost", "lightweight_cost"):
        g, w = float.fromhex(got[key]), float.fromhex(want[key])
        assert abs(g - w) <= RTOL * abs(w), (
            f"{where}: {key} {g!r} ({got[key]}) differs from recorded {w!r} ({want[key]}) "
            f"by {abs(g - w) / abs(w):.3g} relative, above {RTOL:g}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINNED.write_text(json.dumps(
        {"numpy": np.__version__, "cases": {_name(*c): _outputs(*c) for c in CASES}},
        indent=2) + "\n")
