"""Command-line surface: gen | simulate | bounds | dp."""

import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from aoi_sched import cli, load_ensemble
from aoi_sched.cli import main


def run_cli(*argv):
    return main(list(argv))


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_gen_roundtrip_and_determinism(tmp_path):
    out = tmp_path / "plants.json"
    assert run_cli("gen", "--count", "3", "--order", "3", "--seed", "7",
                   "--out", str(out)) == 0
    first = out.read_text()
    plants = load_ensemble(str(out))
    assert len(plants) == 3
    assert run_cli("gen", "--count", "3", "--order", "3", "--seed", "7",
                   "--out", str(out)) == 0
    assert out.read_text() == first  # idempotent under the same seed


@pytest.mark.parametrize("command", [
    ["gen", "--count", "1"],
    ["simulate", "--generate", "3", "--m", "1", "--runs", "10", "--horizon", "10"],
    ["bounds", "--generate", "3", "--m", "1"],
    ["dp", "--pairs", "1:2", "--instances", "1", "--cap", "6"],
], ids=["gen", "simulate", "bounds", "dp"])
def test_gen_rejects_rho_at_one(tmp_path, capsys, command):
    # every command that generates plants checks the flags the same way
    out = tmp_path / "x"
    rc = run_cli(*command, "--rho-min", "1.0", "--out", str(out))
    assert rc == 1
    err = _one_line_error(capsys)
    assert "--rho-min must exceed 1 and not exceed --rho-max" in err
    assert not list(tmp_path.iterdir())


def test_simulate_writes_expected_columns(tmp_path):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "4", "--seed", "3", "--p-min", "0.9",
            "--out", str(plants))
    prefix = tmp_path / "res"
    rc = run_cli("simulate", "--plants", str(plants), "--m", "2",
                 "--policy", "lightweight", "--policy", "round-robin",
                 "--runs", "100", "--horizon", "100", "--seed", "5",
                 "--out", str(prefix))
    assert rc == 0
    lines = (tmp_path / "res.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_value,policy,mean_J,ci95,time_per_decision_ns,diverged_runs"
    assert len(lines) == 3
    doc = json.loads((tmp_path / "res.json").read_text())
    assert doc["schema_version"] == 1
    assert {r["policy"] for r in doc["rows"]} == {"lightweight", "round-robin"}


def test_simulate_seed_reproducible(tmp_path):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "2", "--seed", "4", "--p-min", "0.9",
            "--out", str(plants))
    vals = []
    for prefix in ("a", "b"):
        run_cli("simulate", "--plants", str(plants), "--m", "1",
                "--runs", "80", "--horizon", "120", "--seed", "9",
                "--out", str(tmp_path / prefix))
        doc = json.loads((tmp_path / f"{prefix}.json").read_text())
        vals.append([r["mean_J"] for r in doc["rows"]])
    assert vals[0] == vals[1]


def test_simulate_missing_plants_file(tmp_path, capsys):
    rc = run_cli("simulate", "--plants", str(tmp_path / "nope.json"),
                 "--m", "1", "--runs", "10", "--horizon", "10")
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_simulate_channel_sweep_rows(tmp_path):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "2", "--seed", "6", "--p-min", "0.9",
            "--out", str(plants))
    rc = run_cli("simulate", "--plants", str(plants), "--m", "1",
                 "--policy", "lightweight", "--sweep", "channel:0.8:1.0:5",
                 "--runs", "60", "--horizon", "80", "--seed", "2",
                 "--out", str(tmp_path / "sw"))
    assert rc == 0
    lines = (tmp_path / "sw.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 sweep points x 1 policy


def test_bounds_json_only(tmp_path, capsys):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "2", "--seed", "8", "--p-min", "0.9",
            "--out", str(plants))
    out = tmp_path / "bounds.json"
    rc = run_cli("bounds", "--plants", str(plants), "--m", "1", "--json",
                 "--out", str(out))
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    doc = json.loads(printed[-1])  # machine-readable only
    assert doc["schema_version"] == 1
    assert doc["lower_J"] is not None
    ondisk = json.loads(out.read_text())
    assert ondisk["lower_J"] == doc["lower_J"]


def test_bounds_refuses_unstable(tmp_path, capsys):
    # hand-write an ensemble violating the necessary stability condition
    doc = {"schema_version": 1, "plants": [
        {"A": [[1.4]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "p": 0.3}
    ]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("bounds", "--plants", str(path), "--m", "1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "necessary_stable=False" in out
    assert "note:" in out


def test_dp_table(tmp_path, capsys):
    out = tmp_path / "dp.csv"
    rc = run_cli("dp", "--pairs", "1:2", "--instances", "2", "--cap", "10",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,n,instance,ours,optimal,ratio"
    assert len(lines) == 3
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(r >= 1.0 - 1e-9 for r in ratios)


@pytest.mark.parametrize("sweep", [[], ["--sweep", "heterogeneity:0,1"]],
                         ids=["plain", "heterogeneity-sweep"])
def test_simulate_m_defaults_to_half_n(tmp_path, sweep):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "3", "--seed", "12", "--p-min", "0.9",
            "--out", str(plants))
    docs = []
    for prefix, m in (("default", []), ("given", ["--m", "2"])):  # round(3 / 2)
        rc = run_cli("simulate", "--plants", str(plants), *m, *sweep,
                     "--policy", "lightweight", "--runs", "40", "--horizon", "60",
                     "--out", str(tmp_path / prefix))
        assert rc == 0
        docs.append(json.loads((tmp_path / f"{prefix}.json").read_text()))
    for doc in docs:
        for row in doc["rows"]:
            row.pop("wall_time_per_decision")
            row.pop("timings")
            row.pop("time_per_decision_ns")
    assert len(docs[0]["rows"]) == (2 if sweep else 1)
    assert docs[0] == docs[1]


def test_simulate_divergence_only_exit(tmp_path, capsys):
    # a plant violating necessary stability: all runs diverge, exit nonzero
    doc = {"schema_version": 1, "plants": [
        {"A": [[2.0]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "p": 0.05}
    ]}
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("simulate", "--plants", str(path), "--m", "1",
                 "--policy", "aoi-greedy", "--metric", "trace",
                 "--runs", "30", "--horizon", "2000", "--warmup", "0",
                 "--out", str(tmp_path / "div"))
    assert rc == 1
    assert "diverged" in capsys.readouterr().err
    # files are still written for inspection
    assert (tmp_path / "div.csv").exists()


def test_package_error_exits_with_one_line(tmp_path, capsys):
    # the joint DP over 8 plants exceeds its state budget: ResourceBudgetError
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "8", "--seed", "14", "--p-min", "0.9",
            "--out", str(plants))
    capsys.readouterr()
    rc = run_cli("simulate", "--plants", str(plants), "--m", "2",
                 "--policy", "dp", "--runs", "10", "--horizon", "10",
                 "--out", str(tmp_path / "res"))
    assert rc == 1
    assert "exceeds budget" in _one_line_error(capsys)
    assert not (tmp_path / "res.csv").exists()


@pytest.mark.parametrize("flag", ["--p-min", "--p-max"])
def test_gen_rejects_zero_probability(tmp_path, capsys, flag):
    out = tmp_path / "x.json"
    rc = run_cli("gen", "--count", "1", flag, "0", "--out", str(out))
    assert rc == 1
    assert "p_range" in _one_line_error(capsys)
    assert not out.exists()


def test_simulate_rejects_zero_threads(tmp_path, capsys):
    plants = tmp_path / "plants.json"
    run_cli("gen", "--count", "2", "--seed", "4", "--p-min", "0.9",
            "--out", str(plants))
    capsys.readouterr()
    rc = run_cli("simulate", "--plants", str(plants), "--m", "1", "--threads", "0",
                 "--runs", "10", "--horizon", "10", "--out", str(tmp_path / "r"))
    assert rc == 1
    assert "threads" in _one_line_error(capsys)


@pytest.mark.parametrize("pairs,message", [
    ("1-2", "--pairs wants a comma list of M:N pairs"),
    ("1:2,3", "--pairs wants a comma list of M:N pairs"),
    ("1:2:3", "--pairs wants a comma list of M:N pairs"),
    ("a:b", "--pairs wants a comma list of M:N pairs"),
    ("3:2", "budget m=3 outside 1..2"),
])
def test_dp_rejects_malformed_pairs(tmp_path, capsys, pairs, message):
    rc = run_cli("dp", "--pairs", pairs, "--instances", "1", "--cap", "6",
                 "--out", str(tmp_path / "dp.csv"))
    assert rc == 1
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "dp.csv").exists()


@pytest.mark.parametrize("instances", ["0", "-2"])
def test_dp_rejects_no_instances(tmp_path, capsys, monkeypatch, instances):
    def must_not_generate(*args, **kwargs):
        pytest.fail("generated plants for an empty comparison")

    monkeypatch.setattr(cli, "generate_ensemble", must_not_generate)
    rc = run_cli("dp", "--pairs", "1:2", "--instances", instances, "--cap", "6",
                 "--out", str(tmp_path / "dp.csv"))
    assert rc == 1
    assert f"--instances must be at least 1, got {instances}" in _one_line_error(capsys)
    assert not (tmp_path / "dp.csv").exists()


_SWEEP_WANTS = "--sweep wants kind:lo:hi:steps or kind:v1,v2,..., got "


@pytest.mark.parametrize("argv,message", [
    *(pytest.param(["simulate", "--sweep", sweep], _SWEEP_WANTS + repr(sweep), id=sweep)
      for sweep in ["scale:1:2", "scale:1:2:x", "scale:1:2:3:4", "scale:1:2:0",
                    "channel:a,b", "channel:"]),
    # well-formed sweeps that run_sweep refuses
    pytest.param(["simulate", "--sweep", "scale:2:4:2"],
                 "a scale sweep takes M = N/2 at each point, not m=1", id="scale-with-m"),
    pytest.param(["simulate", "--sweep", "heterogeneity:0,1.5"],
                 "heterogeneity fractions must lie in [0, 1], got [0.0, 1.5]",
                 id="heterogeneity:0,1.5"),
    pytest.param(["simulate", "--sweep", "nothing:1"], "unknown sweep kind 'nothing'",
                 id="nothing:1"),
])
def test_simulate_rejects_malformed_sweep(tmp_path, capsys, argv, message):
    rc = run_cli(argv[0], "--generate", "2", "--m", "1", *argv[1:],
                 "--runs", "10", "--horizon", "10", "--out", str(tmp_path / "r"))
    assert rc == 1
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rejects_scale_point_below_one(tmp_path, capsys):
    rc = run_cli("simulate", "--generate", "2", "--sweep", "scale:0,2",
                 "--runs", "10", "--horizon", "10", "--out", str(tmp_path / "r"))
    assert rc == 1
    assert "a scale sweep point is a sensor count N >= 1, got N=0" in _one_line_error(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rejects_policy_for_another_ensemble(tmp_path, capsys):
    # q gives one marginal, the ensemble has three sensors
    rc = run_cli("simulate", "--generate", "3", "--m", "1",
                 "--policy", "randomized:q=0.4", "--runs", "20", "--horizon", "20",
                 "--out", str(tmp_path / "r"))
    assert rc == 1
    assert "randomized policy is sized for 1 sensors, not 3" in _one_line_error(capsys)
    assert not (tmp_path / "r.csv").exists()


_UNREAD_OPTION = {
    "lightweight:cap=20": "policy option cap is for dp, not lightweight",
    "dp:q=0.5": "policy option q is for randomized, not dp",
    "round-robin:voi-cap=3": "policy option voi-cap is for voi-whittle, not round-robin",
    "aoi-greedy:cost=trace": "policy option cost is for dp, not aoi-greedy",
    "voi-whittle:cache=junk":
        "policy option cache wants one of true/false/yes/no/1/0, got 'junk'",
}


@pytest.mark.parametrize("policy", list(_UNREAD_OPTION))
def test_simulate_rejects_policy_option_it_does_not_read(tmp_path, capsys, policy):
    rc = run_cli("simulate", "--generate", "2", "--m", "1", "--policy", policy,
                 "--runs", "10", "--horizon", "10", "--out", str(tmp_path / "r"))
    assert rc == 1
    assert _UNREAD_OPTION[policy] in _one_line_error(capsys)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", [["gen", "--count", "1"],
                                     ["bounds", "--m", "1"], ["dp"]])
def test_threads_only_on_simulation_commands(capsys, command):
    # gen, bounds and dp run no worker pool, so they take no --threads
    with pytest.raises(SystemExit):
        run_cli(*command, "--threads", "2")
    assert "--threads" in capsys.readouterr().err


def test_sweep_is_not_a_command(capsys):
    with pytest.raises(SystemExit):
        run_cli("sweep", "--kind", "channel", "--values", "0.8,1")
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def _readme_commands() -> list[str]:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("aoi-sched "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
