from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdtsim
from pdtsim import run
from pdtsim.checkers import check_read_delay, check_serializability
from pdtsim.cli import main
from pdtsim.engine import Schedule, Simulation
from pdtsim.explore import explore
from pdtsim.matrix import EVIDENCE
from pdtsim.model import derive_history, txn_depth
from pdtsim.protocols import AlgorithmVariant
from pdtsim.scenarios import (
    Scenario,
    crash_injected_solo_schedule,
    fids_schedule,
    get_scenario,
    rfids_schedule,
    scenario_fids,
    scenario_fids_replicated,
    scenario_rfids,
    scenario_rfids_solo,
)
from pdtsim.traceio import read_trace, write_run


def test_fids_scripted_run_reproduces_the_anomaly(base):
    scen = scenario_fids()
    sched = fids_schedule(base, scen)  # never ScheduleStuck against base
    res = run(scen.config, base, scen, sched)
    for t, item, val in (("t1", "X1", None), ("t2", "X2", None)):
        resp = res.trace.coordinator_response(t)
        assert resp.outcome == "commit"
        assert resp.read_set == [[item, val]]
    v = check_serializability(derive_history(res.trace))
    assert not v.passed and v.witness["cycle"] == ["t1", "t2"]


def test_rfids_scripted_run_three_cycle(base):
    scen = scenario_rfids()
    res = run(scen.config, base, scen, rfids_schedule(base, scen))
    for i in (1, 2, 3):
        resp = res.trace.coordinator_response(f"t{i}")
        assert resp.outcome == "commit"
        assert resp.read_set == [[f"X{(i % 3) + 1}", None]]
    v = check_serializability(derive_history(res.trace))
    assert not v.passed and sorted(v.witness["cycle"]) == ["t1", "t2", "t3"]
    assert check_read_delay(res.trace).passed


def test_rfids_solo_crash_runs_decide_at_depth_four(base):
    for i in (1, 2, 3):
        scen = scenario_rfids_solo(i)
        res = run(scen.config, base, scen, crash_injected_solo_schedule(i - 1))
        assert res.trace.steps[0].kind == "crash"
        assert res.trace.coordinator_response(f"t{i}").outcome == "commit"
        assert txn_depth(res.trace, f"t{i}") == 4
        assert check_read_delay(res.trace).passed


def test_exhaustive_exploration_first_frontier(base):
    # Hand count: initially the only enabled choices are the two client
    # invocations (nothing in flight, nodes idle, crash budget zero).
    from pdtsim.explore import _next_choices

    scen = scenario_fids()
    sim = Simulation(scen.config, base, scen, granularity="atomic")
    first = _next_choices(sim)
    assert len(first) == 1  # the invisible-first rule fires an invocation
    choices = sim.enabled_choices()
    assert len(choices) == 2
    assert all(c.t == "step" and c.proc.kind == "client" for c in choices)


def test_exploration_finds_violation_for_base_only():
    scen = scenario_fids()
    res = explore(scen, AlgorithmVariant("base"), mode="exhaustive", max_schedules=4000)
    assert res.violations
    res = explore(scen, AlgorithmVariant("no-fast"), mode="exhaustive", max_schedules=4000)
    assert not res.violations


def test_exploration_random_mode_deterministic(base):
    scen = scenario_fids()
    a = explore(scen, base, mode="random", max_schedules=50, seed=4)
    b = explore(scen, base, mode="random", max_schedules=50, seed=4)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    assert a.schedules_run == 50


def test_violation_schedule_replays_to_same_history(base):
    scen = scenario_fids()
    res = explore(scen, base, mode="exhaustive", max_schedules=4000)
    v = res.violations[0]
    replay = run(scen.config, base, scen, Schedule.from_json(v["schedule"]))
    assert derive_history(replay.trace).canonical() == v["history"]


def test_scenario_json_roundtrip():
    scen = scenario_rfids()
    back = Scenario.from_json(json.loads(json.dumps(scen.to_json())))
    assert back.placement.groups == scen.placement.groups
    assert [t.to_json() for t in back.transactions] == [t.to_json() for t in scen.transactions]
    assert back.config == scen.config


def test_scenario_minimal_schema_loads():
    # The documented wire schema carries no sim section; defaults kick in.
    doc = {
        "items": [{"id": "X", "initial": None}],
        "placement": {"X": [0, 1, 2]},
        "k": 3,
        "f": 1,
        "transactions": [
            {"txnId": "t1", "client": 0, "readSet": ["X"], "writeRule": []},
        ],
    }
    scen = Scenario.from_json(doc)
    assert scen.config.n_nodes == 3 and scen.config.n_clients == 1
    res = run(scen.config, AlgorithmVariant("base"), scen, Schedule("fair"))
    assert res.trace.coordinator_response("t1").outcome == "commit"


def test_quorum_intersection_enforced_at_load():
    from pdtsim.errors import PlacementError
    from pdtsim.model import DataPlacement

    with pytest.raises(PlacementError):
        DataPlacement({"X": None}, {"X": (0, 1)}, k=2, f=1)  # 2(k-f) <= k


def test_orphan_recv_detected():
    from pdtsim.errors import OrphanStep
    from pdtsim.model import ExecutionTrace, ProcessRef, Step, step_depths

    n = ProcessRef.node_proc(0, 0)
    steps = [Step(0, "recv", n, "t", {"msgId": 9, "payload": {"kind": "read", "body": {}}})]
    with pytest.raises(OrphanStep):
        step_depths(ExecutionTrace(steps))


def test_explore_budget_stops_incomplete(base):
    res = explore(scenario_fids(), base, mode="exhaustive", max_schedules=5)
    assert res.schedules_run == 5
    assert res.complete is False


def test_no_ddap_fids_contends_on_global_lock():
    # The counterexample schedule against no-ddap makes t1 and t2 meet on the
    # per-node global lock (they are not disjoint, so this is contention the
    # checkers allow; the raw pairs still exist).
    from pdtsim.memory import GLOBAL_LOCK, contending_pairs

    scen = scenario_fids()
    variant = AlgorithmVariant("no-ddap")
    res = run(scen.config, variant, scen, fids_schedule(variant, scen))
    objs = {res.trace.steps[i].obj for (i, _) in contending_pairs(res.trace)}
    assert GLOBAL_LOCK in objs


def test_exploration_visits_each_interleaving_once(base):
    # A scenario small enough to exhaust: the frontier is swept completely
    # and no decision sequence repeats.
    from conftest import make_scenario
    from pdtsim.explore import explore_exhaustive

    scen = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0,
        [("t1", 0, ["X"], []), ("t2", 1, ["X"], [])],
        procs=2,
    )
    seen = []
    res = explore_exhaustive(
        scen.config, base, scen, bound=100000,
        on_terminal=lambda sched: seen.append(json.dumps(sched.to_json(), sort_keys=True)),
    )
    assert res.complete
    assert res.schedules_run == len(seen) == len(set(seen))
    assert res.schedules_run > 1


def test_cli_matrix(matrix_report):
    assert matrix_report["exit"] == 0
    table = matrix_report["markdown"]
    assert "| base | FAIL | PASS | PASS | PASS | PASS | PASS | PASS |" in table
    payload = matrix_report["json"]
    assert payload["cells"]["no-ddap"]["dap"]["pass"] is False


def test_cli_check_reproduces_matrix_cells(matrix_report, tmp_path, capsys):
    """Every one-trace matrix cell is what `pdtsim check` says about a
    `pdtsim run` of its scenario under the cell's schedule."""
    for variant, row in matrix_report["json"]["cells"].items():
        for prop, (scenario, _, _) in EVIDENCE.items():
            cell = row[prop]
            sched, trace = tmp_path / f"{variant}-{prop}.json", tmp_path / f"{variant}-{prop}.jsonl"
            sched.write_text(json.dumps(cell["schedule"]))
            assert main(["run", "--scenario", scenario, "--algorithm", variant,
                         "--schedule", str(sched), "--out", str(trace)]) == 0
            capsys.readouterr()
            code = main(["check", "--trace", str(trace), "--property", prop])
            verdict = json.loads(capsys.readouterr().out)
            where = f"{variant}/{prop}"
            assert code == (0 if cell["pass"] else 1), where
            assert verdict["pass"] == cell["pass"], where
            assert verdict["witness"] == cell.get("witness"), where
            assert verdict["details"] == cell.get("details", {}), where


def test_trace_io_roundtrip(tmp_path, base):
    scen = get_scenario("solo-r1")
    res = run(scen.config, base, scen, Schedule("random", seed=2))
    out = tmp_path / "t.jsonl"
    write_run(res, out)
    loaded = read_trace(out)
    assert [s.to_json() for s in loaded.steps] == [s.to_json() for s in res.trace.steps]
    assert loaded.scenario.name == "solo-r1"
    assert loaded.algorithm.tag == "base"
    assert loaded.config == scen.config


def test_cli_run_and_check(tmp_path, capsys):
    out = tmp_path / "fids.jsonl"
    assert main(["run", "--scenario", "builtin:fids", "--algorithm", "base",
                 "--schedule", "builtin:fids", "--out", str(out)]) == 0
    assert main(["check", "--trace", str(out), "--property", "serializability"]) == 1
    verdict = json.loads(capsys.readouterr().out.split("wrote")[-1].split("\n", 1)[-1])
    assert verdict["witness"]["cycle"] == ["t1", "t2"]
    assert main(["check", "--trace", str(out), "--property", "weak-ir"]) == 0
    assert main(["check", "--trace", str(out), "--property", "ddap"]) == 0


def test_cli_explore(tmp_path):
    out = tmp_path / "explore.json"
    assert main(["explore", "--scenario", "fids", "--algorithm", "base",
                 "--mode", "random", "--max", "30", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schedulesRun"] == 30


@pytest.mark.parametrize("mode, count", [("exhaustive", 0), ("random", 0), ("random", -2)])
def test_cli_explore_rejects_nonpositive_max(tmp_path, capsys, mode, count):
    # --max 0 used to run the default 8,000 schedules, and a negative count
    # in random mode reported "schedulesRun": -2 as a complete exploration.
    out = tmp_path / "explore.json"
    code = main(["explore", "--scenario", "fids", "--algorithm", "base", "--mode", mode,
                 "--max", str(count), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    with pytest.raises(ValueError):
        explore(scenario_fids(), AlgorithmVariant("base"), mode=mode, max_schedules=count)


def test_cli_check_rejects_negative_seamless_budget(tmp_path, capsys):
    # A negative crash budget used to fail the check (exit 1) with the
    # witness "base run has 0 crashes, needs <= -2".
    trace = tmp_path / "solo.jsonl"
    assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                 "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["check", "--trace", str(trace), "--property", "seamless-ft", "--s", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert main(["check", "--trace", str(trace), "--property", "seamless-ft", "--s", "0"]) == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m pdtsim` works from a source checkout, without installing.
    src = Path(pdtsim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    out = tmp_path / "solo.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "pdtsim", "run", "--scenario", "solo-r1", "--algorithm", "base",
         "--schedule", "fair", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"steps to {out}\n")
    assert out.exists()
    proc = subprocess.run([sys.executable, "-m", "pdtsim", "explore"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2


def test_cli_usage_errors(tmp_path):
    assert main(["run", "--scenario", "no-such", "--algorithm", "base",
                 "--schedule", "random:1", "--out", str(tmp_path / "x.jsonl")]) == 2
    assert main(["check", "--trace", str(tmp_path / "missing.jsonl"),
                 "--property", "weak-ir"]) == 2
    assert main(["run", "--scenario", "fids", "--algorithm", "bogus",
                 "--schedule", "random:1", "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("granularity", ["reduced", "bogus"])
def test_cli_run_rejects_unknown_granularity(tmp_path, capsys, granularity):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"kind": "fair", "granularity": granularity}))
    code = main(["run", "--scenario", "solo-r1", "--algorithm", "base",
                 "--schedule", str(sched), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown granularity {granularity!r}\n"
    assert not (tmp_path / "x.jsonl").exists()


_SCENARIO = {
    "items": [{"id": "X", "initial": None}], "placement": {"X": [0]}, "k": 1, "f": 0,
    "transactions": [{"txnId": "t1", "client": 0, "readSet": ["X"], "writeRule": []}],
}


# A committed response step, as one trace line.
_RESPONSE = {"i": 0, "kind": "response", "proc": None, "txn": "t1", "outcome": "commit",
             "readSet": [["X1", None]], "writeSet": [["X2", "v"]]}


@pytest.mark.parametrize("command, document", [
    ("schedule", {"kind": "scripted", "decisions": [{"t": "crash", "node": "x"}]}),
    ("schedule", {"kind": "scripted", "decisions": [{"t": "deliver", "msg": [1]}]}),
    ("schedule", {"kind": "scripted", "decisions": [{"t": "step", "proc": [1]}]}),
    ("schedule", {"kind": "scripted",
                  "decisions": [{"t": "step", "proc": {"kind": "node", "node": [1], "idx": 0}}]}),
    ("schedule", {"kind": "scripted", "decisions": [{"t": "jump"}]}),
    ("schedule", {"kind": "scripted", "decisions": 5}),
    ("schedule", {"kind": "random", "seed": "abc"}),
    ("schedule", [1, 2]),
    ("scenario", [1]),
    ("scenario", {**_SCENARIO, "transactions": 3}),
    ("scenario", {**_SCENARIO, "items": [1]}),
    ("scenario", {**_SCENARIO, "placement": [1]}),
    ("scenario", {**_SCENARIO, "k": "1"}),
    ("scenario", {**_SCENARIO, "transactions": [{**_SCENARIO["transactions"][0], "client": "0"}]}),
    ("scenario", {**_SCENARIO, "transactions": [{**_SCENARIO["transactions"][0], "writeRule": [
        {"target": "X", "condition": "sometimes", "value": "v"}]}]}),
    ("check", [1]),
    ("check", {**_RESPONSE, "readSet": [[["X1"], None]]}),
    ("check", {**_RESPONSE, "readSet": [["X1"]]}),
    ("check", {**_RESPONSE, "writeSet": ["X1"]}),
    ("check", {**_RESPONSE, "writeSet": 5}),
    ("sidecar", [1]),
], ids=["crash-node-str", "deliver-msg-list", "step-proc-list", "step-proc-node-list",
        "unknown-kind", "decisions-int", "seed-str", "schedule-list", "scenario-list",
        "transactions-int", "item-int", "placement-list", "k-str", "client-str",
        "condition-unknown", "trace-line-list", "read-item-list", "read-entry-short",
        "write-entry-str", "write-set-int", "sidecar-list"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document) + "\n")
    out = tmp_path / "x.jsonl"
    if command == "check":
        argv = ["check", "--trace", str(path), "--property", "serializability"]
    elif command == "sidecar":
        assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        path.replace(str(out) + ".meta.json")
        argv = ["check", "--trace", str(out), "--property", "weak-ir"]
    elif command == "scenario":
        argv = ["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                "--out", str(out)]
    else:
        argv = ["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", str(path),
                "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_malformed_input_baseline_runs(tmp_path):
    # The scenario the malformed cases above each break in one field.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SCENARIO))
    assert main(["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                 "--out", str(tmp_path / "x.jsonl")]) == 0


def test_cli_run_rejects_builtin_schedule_mismatch(tmp_path):
    # The rfids builder needs three single-read transactions; the fids
    # scenario cannot host it.
    code = main(["run", "--scenario", "fids", "--algorithm", "no-seamless",
                 "--schedule", "builtin:fids", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
