from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdtsim
from pdtsim import run
from pdtsim.checkers import PROPERTIES, SIDECAR_REFS, check_read_delay, check_serializability
from pdtsim.cli import main
from pdtsim.engine import Decision, Schedule, Simulation
from pdtsim.explore import explore
from pdtsim.matrix import EVIDENCE
from pdtsim.model import derive_history, txn_depth
from pdtsim.protocols import AlgorithmVariant
from pdtsim.scenarios import (
    Scenario,
    fids_schedule,
    get_scenario,
    rfids_schedule,
    scenario_fids,
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
        res = run(scen.config, base, scen, Schedule("scripted", [Decision("crash", node=i - 1)]))
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
    from pdtsim.errors import InvariantViolation
    from pdtsim.model import ExecutionTrace, ProcessRef, Step, step_depths

    n = ProcessRef.node_proc(0, 0)
    steps = [Step(0, "recv", n, "t", {"msgId": 9, "payload": {"kind": "read", "body": {}}})]
    with pytest.raises(InvariantViolation, match="^recv 0 has no prior send$"):
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


def _stateless_histories(variant, scen) -> set[str]:
    """Reference for the visited-state cache: the explorer's DFS with its
    invisible-step reduction and timer model and no cache, so it runs every
    interleaving of the frontiers to a terminal."""
    from pdtsim.explore import GRANULARITY, _next_choices, _take
    from pdtsim.model import ExecutionTrace

    histories, stack = set(), [Simulation(scen.config, variant, scen, granularity=GRANULARITY)]
    while stack:
        sim = stack.pop()
        while not sim.all_decided() and (choices := _next_choices(sim)):
            for choice in choices[1:]:
                alternative = sim.clone()
                alternative.apply(_take(alternative, choice))
                stack.append(alternative)
            sim.apply(_take(sim, choices[0]))
        histories.add(derive_history(ExecutionTrace(sim.steps, scenario=scen)).canonical())
    return histories


def _cached_search(variant, scen) -> tuple[int, set[str], set[str]]:
    """Reference for the sleep sets: the explorer's DFS with its
    invisible-step reduction, timer model and visited-state cache, and no
    sleep sets. Returns the states it expands, its histories and the
    violating ones among them."""
    from pdtsim.explore import GRANULARITY, _next_choices, _take
    from pdtsim.model import ExecutionTrace

    seen, histories, violating = set(), set(), set()
    stack = [Simulation(scen.config, variant, scen, granularity=GRANULARITY)]
    while stack:
        sim = stack.pop()
        while not sim.all_decided() and (choices := _next_choices(sim)):
            if len(choices) > 1:
                key = sim.fingerprint()
                if key in seen:
                    break
                seen.add(key)
            for choice in choices[1:]:
                alternative = sim.clone()
                alternative.apply(_take(alternative, choice))
                stack.append(alternative)
            sim.apply(_take(sim, choices[0]))
        else:
            history = derive_history(ExecutionTrace(sim.steps, scenario=scen))
            histories.add(history.canonical())
            if not check_serializability(history).passed:
                violating.add(history.canonical())
    return len(seen), histories, violating


def _two_writers_scenario(writes, initial=None):
    from conftest import make_scenario

    return make_scenario(
        {"X": initial}, {"X": [0]}, 1, 0,
        [("t1", 0, ["X"], writes[0]), ("t2", 1, ["X"], writes[1])],
        procs=2,
    )


TWO_TXN_WRITES = [([], []), ([("X", "always", 1)], [("X", "always", 2)])]


@pytest.mark.parametrize("writes", TWO_TXN_WRITES, ids=["readers", "writers"])
def test_exploration_expands_each_state_once(base, monkeypatch, writes):
    # A scenario small enough to exhaust without the cache, too. Each frontier
    # state is stored once. A run that meets a stored state stops there (a
    # revisit) unless its sleep set misses a choice that slept when the
    # state was stored; it then tries those choices only (a re-expansion).
    # Each untried alternative costs one clone, so a complete search clones
    # once per run after the first. Runs are terminals, revisits and
    # sleep-blocked runs, and the search reaches exactly the stateless
    # search's histories.
    from conftest import terminal_schedules
    from pdtsim import explore as explore_module

    clones, keys, reexpansions = 0, [], 0
    clone, fingerprint = Simulation.clone, Simulation.fingerprint
    next_decision = explore_module._Descent.next_decision

    def counted(self):
        nonlocal clones
        clones += 1
        return clone(self)

    def recorded(self):
        keys.append(fingerprint(self))
        return keys[-1]

    def traced(self, sim):
        nonlocal reexpansions
        taken, stored = len(keys), len(self.seen)
        decision = next_decision(self, sim)
        if len(keys) > taken and len(self.seen) == stored and self.stopped is None:
            reexpansions += 1
        return decision

    monkeypatch.setattr(Simulation, "clone", counted)
    monkeypatch.setattr(Simulation, "fingerprint", recorded)
    monkeypatch.setattr(explore_module._Descent, "next_decision", traced)

    terminals = terminal_schedules(monkeypatch)
    scen = _two_writers_scenario(writes)
    res = explore_module.explore_exhaustive(base, scen, bound=100000)
    seen = [json.dumps(schedule.to_json(), sort_keys=True) for _, schedule in terminals]
    assert res.complete
    assert res.terminals == len(seen) == len(set(seen)) > 1
    assert len(set(keys)) == res.states
    assert len(keys) == res.states + res.revisits + reexpansions
    assert clones == res.schedules_run - 1
    assert set(res.terminal_histories) == _stateless_histories(base, scen)


def _sleep_set_spaces():
    """The spaces whose sleep-set search must match the cache-only one."""
    fids = get_scenario("fids")
    for tag in ("base", "no-fast", "weak-ir", "no-ddap"):
        yield pytest.param(AlgorithmVariant(tag), fids, id=f"fids/{tag}")
    yield pytest.param(AlgorithmVariant("no-seamless"), get_scenario("fids-replicated"),
                       id="fids-replicated/no-seamless")
    for writes, name in zip(TWO_TXN_WRITES, ("readers", "writers")):
        yield pytest.param(AlgorithmVariant("base"), _two_writers_scenario(writes), id=name)
    # Values that are JSON arrays and objects: handler keys that hash() rejects.
    json_writes = ([("X", "always", [2])], [("X", "always", {"a": 3})])
    yield pytest.param(AlgorithmVariant("base"), _two_writers_scenario(json_writes, [1]),
                       id="json-values")


@pytest.mark.parametrize("variant, scen", list(_sleep_set_spaces()))
def test_sleep_sets_keep_states_histories_and_violations(variant, scen):
    """Sleep sets prune only runs: the complete search stores the same
    states, and reaches the same histories and violations, as the search
    with the cache alone."""
    from pdtsim.explore import explore_exhaustive

    states, histories, violating = _cached_search(variant, scen)
    res = explore_exhaustive(variant, scen, bound=10**6)
    assert res.complete
    assert res.states == states
    assert set(res.terminal_histories) == histories
    assert {v["history"] for v in res.violations} == violating


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
    assert loaded.steps == res.trace.steps
    # The steps of one process share one ProcessRef.
    shared = {}
    for s in loaded.steps:
        if s.proc is not None:
            assert shared.setdefault(s.proc, s.proc) is s.proc
    assert len(shared) > 1
    assert loaded.scenario.name == "solo-r1"
    assert loaded.algorithm.tag == "base"
    assert loaded.scenario.config == scen.config


def test_cli_check_ignores_an_old_sidecar_config(tmp_path, capsys):
    # Older sidecars carry a copy of the scenario's sim section as "config",
    # and the algorithm's "timeoutTicks". The replay checkers read the
    # scenario's sim section, and the timeout is 4 * delta, so neither
    # changes anything, whatever its value.
    out = tmp_path / "t.jsonl"
    assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    sidecar = Path(str(out) + ".meta.json")
    meta = json.loads(sidecar.read_text())
    assert "config" not in meta

    def checked() -> list:
        results = []
        for prop in ("strong-ir", "seamless-ft"):
            code = main(["check", "--trace", str(out), "--property", prop])
            results.append((code, capsys.readouterr().out))
        return results

    new = checked()
    old_algorithm = {**meta["algorithm"], "timeoutTicks": "x"}
    sidecar.write_text(json.dumps({**meta, "config": meta["scenario"]["sim"],
                                   "algorithm": old_algorithm}))
    assert checked() == new
    assert [code for code, _ in new] == [0, 0]


def test_cli_run_and_check(tmp_path, capsys):
    out = tmp_path / "fids.jsonl"
    assert main(["run", "--scenario", "builtin:fids", "--algorithm", "base",
                 "--schedule", "builtin:fids", "--out", str(out)]) == 0
    assert main(["check", "--trace", str(out), "--property", "serializability"]) == 1
    verdict = json.loads(capsys.readouterr().out.split("wrote")[-1].split("\n", 1)[-1])
    assert verdict["witness"]["cycle"] == ["t1", "t2"]
    assert main(["check", "--trace", str(out), "--property", "weak-ir"]) == 0
    assert main(["check", "--trace", str(out), "--property", "ddap"]) == 0
    # Every replay check names the missing sidecar the same way.
    Path(str(out) + ".meta.json").unlink()
    capsys.readouterr()
    for prop in ("strong-ir", "ddap", "seamless-ft"):
        assert main(["check", "--trace", str(out), "--property", prop]) == 2
        assert capsys.readouterr().err == f"error: {prop} needs the trace's .meta.json sidecar\n"


@pytest.mark.parametrize("ref", ["scenario", "algorithm", "schedule"])
def test_cli_check_with_a_null_sidecar_ref(tmp_path, capsys, ref):
    # Every property checks, fails or exits 2 on a sidecar with one ref
    # null, and a property that reads the ref asks for the sidecar.
    # seamless-ft with a null algorithm died with an AttributeError.
    out = tmp_path / "t.jsonl"
    assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                 "--out", str(out)]) == 0
    sidecar = Path(str(out) + ".meta.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), ref: None}))
    capsys.readouterr()
    for prop in PROPERTIES:
        code = main(["check", "--trace", str(out), "--property", prop])
        err = capsys.readouterr().err
        if ref in SIDECAR_REFS.get(prop, ()):
            assert (code, err) == (2, f"error: {prop} needs the trace's .meta.json sidecar\n")
        else:
            assert code in (0, 1, 2), (prop, code)


def test_cli_explore(tmp_path):
    out = tmp_path / "explore.json"
    assert main(["explore", "--scenario", "fids", "--algorithm", "base",
                 "--mode", "random", "--max", "30", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["search"]["runs"] == 30
    assert payload["complete"] is False  # sampling never exhausts the space


def test_outputs_keep_search_counts_in_search(tmp_path, capsys, matrix_report):
    """An explore file states the space at its top level and the counts of
    the search only in "search"; the matrix JSON holds no search bound."""
    counts = {"exhaustive": {"runs", "states", "terminals", "revisits", "sleepBlocked"},
              "random": {"runs"}}
    for mode, search in counts.items():
        out = tmp_path / f"{mode}.json"
        assert main(["explore", "--scenario", "fids", "--algorithm", "base",
                     "--mode", mode, "--max", "30", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"mode", "complete", "terminalHistories", "violations", "search"}
        assert set(payload["search"]) == search
    assert "exploreBound" not in matrix_report["json"]


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


def test_cli_run_rejects_a_decision_with_extra_fields(tmp_path, capsys):
    # A scripted decision is enabled only as the run would name it: a
    # delivery that also carries a node is not the delivery of that message.
    client = {"kind": "client", "node": None, "idx": 0}
    sched = tmp_path / "sched.json"
    out = str(tmp_path / "x.jsonl")

    def run_script(deliver: dict) -> int:
        decisions = [{"t": "step", "proc": client}] * 2 + [deliver]
        sched.write_text(json.dumps({"kind": "scripted", "decisions": decisions}))
        return main(["run", "--scenario", "solo-r1", "--algorithm", "base",
                     "--schedule", str(sched), "--out", out])

    assert run_script({"t": "deliver", "msg": 0}) == 0
    capsys.readouterr()
    assert run_script({"t": "deliver", "msg": 0, "node": 0}) == 2
    err = capsys.readouterr().err
    assert err == "error: scripted decision {'t': 'deliver', 'msg': 0, 'node': 0} is not enabled\n"


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
    ("schedule", {"kind": "scripted", "decisions": [], "tolerant": "no"}),
    ("scenario", [1]),
    ("scenario", {**_SCENARIO, "transactions": 3}),
    ("scenario", {**_SCENARIO, "items": [1]}),
    ("scenario", {**_SCENARIO, "placement": [1]}),
    ("scenario", {**_SCENARIO, "k": "1"}),
    ("scenario", {**_SCENARIO, "sim": {"delta": "64"}}),
    ("scenario", {**_SCENARIO, "placement": {"X": [0, 0, 1]}, "k": 3, "f": 1}),
    ("scenario", {**_SCENARIO, "transactions": [{**_SCENARIO["transactions"][0], "client": "0"}]}),
    ("scenario", {**_SCENARIO, "transactions": [{**_SCENARIO["transactions"][0], "writeRule": [
        {"target": "X", "condition": "sometimes", "value": "v"}]}]}),
    ("check", [1]),
    ("check", {**_RESPONSE, "readSet": [[["X1"], None]]}),
    ("check", {**_RESPONSE, "readSet": [["X1"]]}),
    ("check", {**_RESPONSE, "writeSet": ["X1"]}),
    ("check", {**_RESPONSE, "writeSet": 5}),
    ("sidecar", [1]),
    ("algorithm", ["base"]),
    ("step", {"i": "x"}),
    ("step", {"i": 7}),
    ("step", {"kind": "bogus"}),
    ("step", {"txn": 5}),
    # Text, not an object: the fourth line cut short, a sidecar cut short.
    ("step", '{"i":3,"kind":"send"'),
    ("sidecar", '{"scenario": {'),
    # One field of the first step of a kind (or of the first drop note) in a
    # crash-injected rfids run.
    ("crashed-step", ("send", {"msgId": [1]})),
    ("crashed-step", ("recv", {"msgId": {"id": 1}})),
    ("crashed-step", ("crash", {"node": [0]})),
    ("crashed-step", ("drop", {"data": {"msgId": [1], "node": 0}})),
    ("crashed-step", ("drop", {"data": [1]})),
    ("crashed-step", ("prim", {"obj": ["X1.lockS"]})),
    ("crashed-step", ("prim", {"op": 7})),
    ("crashed-step", ("drop", {"data": {"msgId": 0, "node": 2}})),
    # The process of the first non-trivial prim, and the error it gets.
    ("prim-proc", (None, "trace step 39: a prim step needs a node process, not None")),
    ("prim-proc", ({}, "malformed process {}")),
    ("prim-proc", ({"kind": "client", "node": None, "idx": 0}, "trace step 39: a prim step "
                   "needs a node process, not {'kind': 'client', 'node': None, 'idx': 0}")),
], ids=["crash-node-str", "deliver-msg-list", "step-proc-list", "step-proc-node-list",
        "unknown-kind", "decisions-int", "seed-str", "schedule-list", "tolerant-str", "scenario-list",
        "transactions-int", "item-int", "placement-list", "k-str", "sim-delta-str",
        "placement-node-twice", "client-str",
        "condition-unknown", "trace-line-list", "read-item-list", "read-entry-short",
        "write-entry-str", "write-set-int", "sidecar-list", "algorithm-list",
        "step-i-str", "step-i-moved", "step-kind-unknown", "step-txn-int",
        "step-syntax-error", "sidecar-syntax-error",
        "send-msgid-list", "recv-msgid-object", "crash-node-list", "drop-msgid-list",
        "drop-data-list", "prim-obj-list", "prim-op-int", "drop-node-uncrashed",
        "prim-proc-null", "prim-proc-empty", "prim-proc-client"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    text = document if isinstance(document, str) else json.dumps(document)
    path.write_text(text + "\n")
    out = tmp_path / "x.jsonl"
    if command == "check":
        argv = ["check", "--trace", str(path), "--property", "serializability"]
    elif command == "sidecar":
        assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        path.replace(str(out) + ".meta.json")
        argv = ["check", "--trace", str(out), "--property", "weak-ir"]
    elif command == "algorithm":
        assert main(["run", "--scenario", "solo-r1", "--algorithm", "no-seamless",
                     "--schedule", "fair", "--out", str(out)]) == 0
        capsys.readouterr()
        sidecar = Path(str(out) + ".meta.json")
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "algorithm": document}))
        argv = ["check", "--trace", str(out), "--property", "seamless-ft"]
    elif command == "step":
        # One field of the trace's fourth step, its sidecar kept.
        assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        if not isinstance(document, str):
            text = json.dumps({**json.loads(lines[3]), **document})
        lines[3] = text
        out.write_text("\n".join(lines) + "\n")
        # read-delay died with a TypeError on a string 'i'; serializability
        # passed every one of these edits.
        assert main(["check", "--trace", str(out), "--property", "read-delay"]) == 2
        assert capsys.readouterr().err.startswith("error: trace step 3: ")
        argv = ["check", "--trace", str(out), "--property", "serializability"]
    elif command == "crashed-step":
        sched = tmp_path / "crash.json"
        sched.write_text(json.dumps({"kind": "scripted", "decisions": [{"t": "crash", "node": 0}]}))
        assert main(["run", "--scenario", "rfids", "--algorithm", "base", "--schedule", str(sched),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        kind, edit = document
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        i = next(r["i"] for r in records if r["kind"] == kind or r.get("tag") == kind)
        lines[i] = json.dumps({**records[i], **edit})
        out.write_text("\n".join(lines) + "\n")
        # Each of these died with a TypeError (an unhashable message id,
        # node or object name) while the fields were untyped, and a drop to
        # a node that never crashed with "error: 2" (a KeyError).
        for prop in ("dap", "ddap"):
            assert main(["check", "--trace", str(out), "--property", prop]) == 2
            assert capsys.readouterr().err.startswith(f"error: trace step {i}: ")
        argv = ["check", "--trace", str(out), "--property", "weak-progress"]
    elif command == "prim-proc":
        assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        proc, error = document
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        i = next(r["i"] for r in records if r.get("nontrivial"))
        lines[i] = json.dumps({**records[i], "proc": proc})
        out.write_text("\n".join(lines) + "\n")
        # strong-ir died with an AttributeError (a null process, and {} read
        # as null) or a TypeError (a client process).
        assert main(["check", "--trace", str(out), "--property", "strong-ir"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        argv = ["check", "--trace", str(out), "--property", "serializability"]
    elif command == "scenario":
        argv = ["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                "--out", str(out)]
    else:
        argv = ["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", str(path),
                "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if command == "check" and isinstance(document, dict):
        assert err.startswith("error: trace step 0: "), err
    if command == "sidecar" and isinstance(document, str):
        assert err.startswith("error: trace sidecar: "), err


def test_cli_run_rejects_a_transaction_that_writes_one_item_twice(tmp_path, capsys):
    # Commit installed "a" while the response reported both writes, so the
    # checker took "b" as t1's write: the sequential run of t1 then t2 failed
    # serializability with no cycle.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_SCENARIO, "transactions": [
        {"txnId": "t1", "client": 0, "readSet": [], "writeRule": [
            {"target": "X", "condition": "always", "value": "a"},
            {"target": "X", "condition": "always", "value": "b"}]},
        {"txnId": "t2", "client": 0, "readSet": ["X"], "writeRule": []},
    ]}))
    assert main(["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err == "error: t1 writes 'X' twice\n"


def _solo_trace_lines(tmp_path, capsys) -> tuple[Path, list[str]]:
    """A recorded solo-r1 trace (sidecar kept) and its lines."""
    out = tmp_path / "x.jsonl"
    assert main(["run", "--scenario", "solo-r1", "--algorithm", "base", "--schedule", "fair",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out, out.read_text().splitlines()


def _records_3_4_on_one_line(lines: list[str]) -> list[str]:
    return lines[:3] + [lines[3] + "," + lines[4]] + lines[5:]


def _record_3_over_two_lines(lines: list[str]) -> list[str]:
    head, tail = lines[3].split(",", 1)
    return lines[:3] + [head + ",", tail] + lines[4:]


def _braces_in_strings(lines: list[str]) -> list[str]:
    # Record 3 over two lines that only together make one object, the
    # strings hiding their unbalanced braces, while records 4 and 5 share a
    # line: the line count still equals the record count.
    halves = [lines[3][:-1] + ',"t":"}"', '"u":"{"}']
    return lines[:3] + halves + [lines[4] + "," + lines[5]] + lines[6:]


@pytest.mark.parametrize("edit, bulk_reads_it", [
    (_records_3_4_on_one_line, True),
    (_record_3_over_two_lines, False),
    (_braces_in_strings, True),
], ids=["two-records-one-line", "record-over-two-lines", "braces-in-strings"])
def test_cli_check_rejects_a_line_that_is_not_one_record(tmp_path, capsys, edit, bulk_reads_it):
    out, lines = _solo_trace_lines(tmp_path, capsys)
    edited = edit(lines)
    if bulk_reads_it:
        # One parse of all lines joined by commas reads a well-formed trace.
        bulk = json.loads("[" + ",".join(edited) + "]")
        assert [r["i"] for r in bulk] == list(range(len(lines)))
    out.write_text("\n".join(edited) + "\n")
    for prop in ("serializability", "read-delay"):
        assert main(["check", "--trace", str(out), "--property", prop]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace step 3: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("proc, edit", [
    ({"kind": "node", "node": 1, "idx": 0}, {"idx": False}),
    ({"kind": "node", "node": 1, "idx": 0}, {"idx": True}),
    ({"kind": "node", "node": 1, "idx": 0}, {"node": True}),
    ({"kind": "node", "node": 1, "idx": 0}, {"node": 1.0}),
    ({"kind": "node", "node": 1, "idx": 0}, {"node": "1"}),
    ({"kind": "node", "node": 1, "idx": 0}, {"kind": ["node"]}),
    ({"kind": "client", "node": None, "idx": 0}, {"kind": ["client"]}),
    ({"kind": "client", "node": None, "idx": 0}, {"idx": 0.0}),
], ids=["idx-false", "idx-true", "node-true", "node-float", "node-str", "kind-list",
        "client-kind-list", "client-idx-float"])
def test_cli_check_rejects_a_malformed_process_seen_before(tmp_path, capsys, proc, edit):
    # The last step of a process whose earlier steps are well formed is
    # still a malformed process, also where the bad field equals the valid
    # one (False == 0, True == 1.0 == 1) or cannot be hashed.
    out, lines = _solo_trace_lines(tmp_path, capsys)
    recs = [json.loads(line) for line in lines]
    last = max(r["i"] for r in recs if r["proc"] == proc)
    assert any(r["proc"] == proc for r in recs[:last])
    recs[last]["proc"] = {**proc, **edit}
    out.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert main(["check", "--trace", str(out), "--property", "serializability"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed process ") and err.count("\n") == 1, err


def test_cli_malformed_input_baseline_runs(tmp_path):
    # The scenario the malformed cases above each break in one field.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SCENARIO))
    assert main(["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                 "--out", str(tmp_path / "x.jsonl")]) == 0


@pytest.mark.parametrize("placement, error", [
    # Node 0's two replies would meet X's k-f=2 quorum on their own.
    ({"X": [0, 0, 1], "Y": [0, 1, 2]}, "item 'X' names a replica node twice: [0, 0, 1]"),
    # t1 reads Y, which no node holds.
    ({"X": [0, 1, 2]}, "item 'Y' has no replica group"),
], ids=["node-twice", "no-group"])
def test_cli_run_rejects_bad_replica_group(tmp_path, capsys, placement, error):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "items": [{"id": "X", "initial": None}, {"id": "Y", "initial": None}],
        "placement": placement, "k": 3, "f": 1,
        "transactions": [{"txnId": "t1", "client": 0, "readSet": ["Y"],
                          "writeRule": [{"target": "X", "condition": "always", "value": "v"}]}],
    }))
    assert main(["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "x.jsonl").exists()


def test_scenario_partial_sim_section_keeps_defaults(tmp_path, capsys):
    # A "sim" section overrides only the keys it gives; an old file's "seed"
    # is ignored like any other unknown key.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_SCENARIO, "sim": {"nNodes": 2, "delta": 32, "seed": 7}}))
    out = tmp_path / "x.jsonl"
    assert main(["run", "--scenario", str(path), "--algorithm", "base", "--schedule", "fair",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("t1: commit\n")
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    expected = {"nNodes": 2, "procsPerNode": 1, "nClients": 1, "delta": 32, "gst": 0}
    assert "config" not in meta
    assert meta["scenario"]["sim"] == expected


def test_cli_run_rejects_builtin_schedule_mismatch(tmp_path, capsys):
    # no-seamless needs a replicated placement, which fids lacks.
    code = main(["run", "--scenario", "fids", "--algorithm", "no-seamless",
                 "--schedule", "builtin:fids", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    capsys.readouterr()
    # The rfids builder needs t3, which the fids scenario lacks.
    code = main(["run", "--scenario", "fids", "--algorithm", "base",
                 "--schedule", "builtin:rfids", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: counterexample schedule needs transactions t3, which scenario 'fids' lacks\n"
    )
    # The builder counts one read quorum per transaction.
    code = main(["run", "--scenario", "solo-r2", "--algorithm", "base",
                 "--schedule", "builtin:fids", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: counterexample builder expects single-read transactions: t1 reads 2 items\n"
    )
