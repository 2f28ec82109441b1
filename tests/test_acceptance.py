"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
from __future__ import annotations

import random

from pdtsim import run
from pdtsim.checkers import (
    check_fast_decision,
    check_read_delay,
    check_seamless_ft,
    check_serializability,
    verify_trace_invariants,
)
from pdtsim.cli import main
from pdtsim.engine import Decision, Schedule
from pdtsim.explore import explore
from pdtsim.matrix import EXPECTED_MATRIX
from pdtsim.model import derive_history, txn_depth, value_learned_events, partial_depth
from pdtsim.protocols import AlgorithmVariant, VARIANTS
from pdtsim.scenarios import (
    fids_schedule,
    get_scenario,
    rfids_schedule,
    scenario_fids,
    scenario_rfids,
    scenario_rfids_solo,
    scenario_solo,
)
from pdtsim.traceio import read_trace

from test_oracle import assert_agrees, random_history


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


def test_c1_fids_reproduction(tmp_path, base):
    out = tmp_path / "fids.jsonl"
    assert main(["run", "--scenario", "builtin:fids", "--algorithm", "base",
                 "--schedule", "builtin:fids", "--out", str(out)]) == 0
    trace = read_trace(out)
    for t, item in (("t1", "X1"), ("t2", "X2")):
        resp = trace.coordinator_response(t)
        assert resp.outcome == "commit"
        assert resp.read_set == [[item, None]], "reads must return the initial values"
    assert main(["check", "--trace", str(out), "--property", "serializability"]) == 1
    verdict = check_serializability(derive_history(trace))
    assert not verdict.passed
    assert verdict.witness["cycle"] == ["t1", "t2"]
    _ok("1 fids-reproduction (both commit, 2-cycle witness)")


def test_c2_rfids_reproduction(base):
    scen = scenario_rfids()
    res = run(scen.config, base, scen, rfids_schedule(base, scen))
    history = derive_history(res.trace)
    assert len(history.ops) == 3
    verdict = check_serializability(history)
    assert not verdict.passed
    assert sorted(verdict.witness["cycle"]) == ["t1", "t2", "t3"]
    assert check_read_delay(res.trace).passed

    for i in (1, 2, 3):
        solo = scenario_rfids_solo(i)
        solo_res = run(solo.config, base, solo, Schedule("scripted", [Decision("crash", node=i - 1)]))
        txn = f"t{i}"
        assert solo_res.trace.coordinator_response(txn).outcome == "commit"
        assert txn_depth(solo_res.trace, txn) == 4
        assert check_read_delay(solo_res.trace).passed
        for note_i in value_learned_events(solo_res.trace, txn).values():
            assert partial_depth(solo_res.trace, note_i + 1, txn) >= 2
    _ok("2 rfids-reproduction (3-cycle, crash-injected solo depth 4, read delay >= 2)")


def test_c3_property_matrix(matrix_report):
    cells = matrix_report["json"]["cells"]
    assert cells.keys() == EXPECTED_MATRIX.keys()
    for variant, expected in EXPECTED_MATRIX.items():
        assert cells[variant].keys() == expected.keys(), variant  # exactly the seven columns
        for prop, want in expected.items():
            got = cells[variant][prop]["pass"]
            assert got == want, f"{variant}/{prop}: expected {'PASS' if want else 'FAIL'}"
    # Every FAIL cell carries a replayable witness schedule.
    fail_cells = [
        (variant, prop, cell)
        for variant, row in cells.items()
        for prop, cell in row.items()
        if not cell["pass"]
    ]
    assert len(fail_cells) == 6  # base/ser, no-fast/fast, weak-ir/strong,
    #                              no-seamless/sft, no-ddap/dap, no-ddap/ddap
    for variant, prop, cell in fail_cells:
        if prop == "serializability":
            sched = Schedule.from_json(cell["schedule"]["fids"])
            scen = scenario_fids()
            replay = run(scen.config, AlgorithmVariant(variant), scen, sched)
            assert not check_serializability(derive_history(replay.trace)).passed
        elif prop == "seamless-ft":
            sched = Schedule.from_json(cell["witness"]["schedule"])
            scen = scenario_solo(1)
            replay = run(scen.config, AlgorithmVariant(variant), scen, sched)
            assert txn_depth(replay.trace, "t1") == cell["witness"]["injectedDepths"]["t1"]
        else:
            assert cell.get("schedule") is not None
            Schedule.from_json(cell["schedule"])  # parses -> replayable
    # The serializability PASS of each variant on fids rests on its whole space.
    for variant in ("no-fast", "weak-ir", "no-ddap"):
        assert cells[variant]["serializability"]["evidence"].startswith(
            "complete exploration of fids: "), variant
    _ok("3 property-matrix (5 variants x 7 properties, witnesses replayable)")


def test_c4_fast_decision_depths(base):
    no_fast = AlgorithmVariant("no-fast")
    for r in (0, 1, 2, 3):
        scen = scenario_solo(r)
        trace = run(scen.config, base, scen, Schedule("fair")).trace
        assert txn_depth(trace, "t1") == 2 * r + 2
        assert check_fast_decision(trace).passed

        nf_trace = run(scen.config, no_fast, scen, Schedule("fair")).trace
        verdict = check_fast_decision(nf_trace)
        assert not verdict.passed
        assert verdict.witness["decisionSlack"] == 2
    _ok("4 fast-decision depths (base 2r+2 and bound met; no-fast over by exactly 2)")


def test_c5_seamless_ft_sweep(base, monkeypatch):
    scen = scenario_solo(1)
    verdict = check_seamless_ft(scen.config, base, scen, Schedule("fair"), s=1)
    assert verdict.passed
    assert verdict.details["injectionsTried"] >= 3 * 10

    monkeypatch.setattr("pdtsim.checkers.SEAMLESS_COMPLETIONS", 4)
    verdict = check_seamless_ft(
        scen.config, AlgorithmVariant("no-seamless"), scen, Schedule("fair"), s=1,
    )
    assert not verdict.passed
    _ok("5 seamless-ft sweep (base unchanged everywhere; no-seamless fails)")


def test_c6_oracle_cross_validation():
    rng = random.Random(1234)
    both = {True: 0, False: 0}
    for _ in range(1000):
        history = random_history(rng, max_txns=6)
        verdict = check_serializability(history)
        assert_agrees(history, verdict)
        both[verdict.passed] += 1
    assert both[True] > 100 and both[False] > 100
    _ok("6 oracle cross-validation (1000 histories, 0 disagreements, every order legal)")


def test_c7_exhaustive_exploration(matrix_report):
    res = explore(scenario_fids(), AlgorithmVariant("base"), mode="exhaustive")
    assert res.complete
    assert len(res.violations) >= 1
    # The matrix's serializability cells of the other variants are the same
    # exhaustive exploration at the default bound, complete on fids and on
    # fids-replicated.
    cells = matrix_report["json"]["cells"]
    for tag, evidence in (("no-fast", "complete exploration of fids: "),
                          ("weak-ir", "complete exploration of fids: "),
                          ("no-ddap", "complete exploration of fids: "),
                          ("no-seamless", "complete exploration of fids-replicated: ")):
        cell = cells[tag]["serializability"]
        assert cell["evidence"].startswith(evidence), tag
        assert cell["pass"] and cell["witness"] is None, tag
    replicated = explore(get_scenario("fids-replicated"), AlgorithmVariant("no-seamless"))
    assert replicated.complete and replicated.states == 2791
    _ok("7 exploration (base >= 1 violation, complete; all four variants 0)")


def test_c8_determinism(tmp_path):
    for args_out in (
        ["run", "--scenario", "builtin:fids", "--algorithm", "base",
         "--schedule", "builtin:fids"],
        ["run", "--scenario", "solo-r2", "--algorithm", "no-fast",
         "--schedule", "random:77"],
    ):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args_out + ["--out", str(a)]) == 0
        assert main(args_out + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.meta.json").read_bytes() == \
               (tmp_path / "b.jsonl.meta.json").read_bytes()

    ea, eb = tmp_path / "ea.json", tmp_path / "eb.json"
    explore_args = ["explore", "--scenario", "fids", "--algorithm", "base",
                    "--mode", "exhaustive", "--max", "500"]
    assert main(explore_args + ["--out", str(ea)]) == 0
    assert main(explore_args + ["--out", str(eb)]) == 0
    assert ea.read_bytes() == eb.read_bytes()
    _ok("8 determinism (byte-identical run and explore outputs)")


def test_c9_invariant_suite(base):
    traces = []
    fids = scenario_fids()
    traces.append(run(fids.config, base, fids, fids_schedule(base, fids)).trace)
    rfids = scenario_rfids()
    traces.append(run(rfids.config, base, rfids, rfids_schedule(base, rfids)).trace)
    for i in (1, 2, 3):
        solo = scenario_rfids_solo(i)
        crash_first = Schedule("scripted", [Decision("crash", node=i - 1)])
        traces.append(run(solo.config, base, solo, crash_first).trace)
    for r in (0, 1, 2, 3):
        scen = scenario_solo(r)
        for tag in VARIANTS:
            traces.append(run(scen.config, AlgorithmVariant(tag), scen, Schedule("fair")).trace)
    # Crash-injected replays from the seamless sweep.
    scen = scenario_solo(1)
    baseline = run(scen.config, base, scen, Schedule("fair"))
    for pos in (0, len(baseline.decisions) // 2, len(baseline.decisions)):
        for node in range(3):
            sched = Schedule("scripted",
                             list(baseline.decisions[:pos]) + [Decision("crash", node=node)])
            traces.append(run(scen.config, base, scen, sched).trace)
    # A sample of exploration terminals, including the violating one.
    res = explore(fids, base, mode="exhaustive", max_schedules=2500)
    for v in res.violations:
        traces.append(run(fids.config, base, fids, Schedule.from_json(v["schedule"])).trace)
    for trace in traces:
        verify_trace_invariants(trace)
    _ok(f"9 invariant suite ({len(traces)} traces checked)")
