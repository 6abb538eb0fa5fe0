"""Files the command line writes, pinned against a recorded file.

``pinned_cli.json`` holds the sha256 of the files that ``gen``, ``simulate``
(CSV and JSON) and ``bounds --out`` write, and the rows of a small
``dp --out`` table. Wall-clock fields are masked before hashing: the
``time_per_decision_ns`` column and key, ``wall_time_per_decision`` and
``timings``. Hashed files must match bit for bit. The ``dp`` costs and
ratios must agree within 1e-11 relative, the DP parity rule, since a faster
solver may move their last bits. A change that moves these outputs on
purpose records the file again (``python tests/test_pinned_cli.py --record``)
and says why.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from aoi_sched.cli import main

PINNED = pathlib.Path(__file__).with_name("pinned_cli.json")
RTOL = 1e-11
_WALL_CLOCK = ("time_per_decision_ns", "wall_time_per_decision", "timings")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _masked_csv(text):
    lines = text.splitlines()
    col = lines[0].split(",").index("time_per_decision_ns")
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[col] = "-"
    return "\n".join(",".join(row) for row in rows) + "\n"


def _masked_json(text):
    doc = json.loads(text)
    for row in doc["rows"]:
        for key in _WALL_CLOCK:
            row.pop(key)
    return json.dumps(doc, sort_keys=True)


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _outputs():
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        plants = out / "plants.json"
        _run("gen", "--count", 4, "--order", 2, "--meas", 2, "--seed", 3,
             "--p-min", 0.7, "--out", plants)
        _run("simulate", "--plants", plants, "--m", 2, "--policy", "lightweight",
             "--policy", "round-robin", "--policy", "voi-whittle", "--runs", 60,
             "--horizon", 50, "--seed", 5, "--out", out / "res")
        _run("bounds", "--plants", plants, "--m", 2, "--out", out / "bounds.json")
        _run("dp", "--pairs", "1:2,2:3", "--instances", 1, "--cap", 8, "--seed", 4,
             "--out", out / "dp.csv")
        dp = (out / "dp.csv").read_text().splitlines()
        return {
            "gen": _sha(plants.read_text()),
            "simulate.csv": _sha(_masked_csv((out / "res.csv").read_text())),
            "simulate.json": _sha(_masked_json((out / "res.json").read_text())),
            "bounds": _sha((out / "bounds.json").read_text()),
            "dp": [dp[0]] + [line.split(",") for line in dp[1:]],
        }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def got():
    return _outputs()


def _where(pinned, case):
    return f"{case} (recorded with numpy {pinned['numpy']}, running {np.__version__})"


@pytest.mark.parametrize("case", ["gen", "simulate.csv", "simulate.json", "bounds"])
def test_cli_file_matches_the_recorded_file(pinned, got, case):
    want = pinned["files"][case]
    assert got[case] == want, f"{_where(pinned, case)}: sha256 {got[case]} != recorded {want}"


def test_dp_table_matches_the_recorded_file(pinned, got):
    want = pinned["files"]["dp"]
    where = _where(pinned, "dp")
    assert got["dp"][0] == want[0], f"{where}: header {got['dp'][0]!r} != {want[0]!r}"
    assert len(got["dp"]) == len(want), (
        f"{where}: {len(got['dp']) - 1} rows, recorded {len(want) - 1}")
    for g_row, w_row in zip(got["dp"][1:], want[1:]):
        assert g_row[:3] == w_row[:3], f"{where}: row {g_row[:3]} != recorded {w_row[:3]}"
        for name, g, w in zip(("ours", "optimal", "ratio"), g_row[3:], w_row[3:]):
            g, w = float(g), float(w)
            assert abs(g - w) <= RTOL * abs(w), (
                f"{where}, m,n,instance={','.join(w_row[:3])}: {name} {g!r} differs from "
                f"recorded {w!r} by {abs(g - w) / abs(w):.3g} relative, above {RTOL:g}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINNED.write_text(json.dumps({"numpy": np.__version__, "files": _outputs()},
                                 indent=2) + "\n")
