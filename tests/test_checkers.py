from __future__ import annotations

import ast
import copy
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pdtsim
from pdtsim import run
from pdtsim.checkers import (
    CHECKERS_BY_NAME,
    check_dap,
    check_ddap,
    check_fast_decision,
    check_read_delay,
    check_seamless_ft,
    check_serializability,
    check_strong_ir,
    check_weak_ir,
    check_weak_progress,
    verify_trace_invariants,
)
from pdtsim.cli import main
from pdtsim.engine import Decision, Schedule, inject_crash
from pdtsim.errors import InvariantViolation, PlacementError, ScheduleIncompatible
from pdtsim.model import CommittedHistory, ExecutionTrace, ProcessRef, Step, TraceIndex, txn_depth
from pdtsim.protocols import AlgorithmVariant
from pdtsim.scenarios import (
    builtin_schedule,
    fids_schedule,
    get_scenario,
    scenario_disjoint_writers,
    scenario_fids,
    scenario_rfids,
    scenario_solo,
    rfids_schedule,
)
from pdtsim.traceio import dumps_canonical, read_trace, write_run

from conftest import admitted_pairs, make_scenario
from test_oracle import legal_order, oracle_serializable


# ---------------------------------------------------------------------------
# Serializability
# ---------------------------------------------------------------------------


def _fids_history():
    return CommittedHistory(
        ops={
            "t1": [("read", "X1", None), ("write", "X2", "v2")],
            "t2": [("read", "X2", None), ("write", "X1", "v1")],
        },
        initials={"X1": None, "X2": None},
    )


def test_serializability_two_cycle():
    v = check_serializability(_fids_history())
    assert not v.passed
    assert v.witness["cycle"] == ["t1", "t2"]
    # Every cycle edge corresponds to an actual read-initial/reads-from fact.
    for e in v.witness["edges"]:
        assert e["reason"] in ("read-initial", "reads-from")


def test_serializability_empty_history():
    v = check_serializability(CommittedHistory(ops={}, initials={}))
    assert v.passed and v.witness == {"serialOrder": []}


def test_serializability_three_cycle():
    ops = {}
    for i in (1, 2, 3):
        read = f"X{(i % 3) + 1}"
        ops[f"t{i}"] = [("read", read, None), ("write", f"X{i}", f"v{i}")]
    v = check_serializability(CommittedHistory(ops, {"X1": None, "X2": None, "X3": None}))
    assert not v.passed
    assert sorted(v.witness["cycle"]) == ["t1", "t2", "t3"]


def test_serializability_sequential_chain_passes():
    h = CommittedHistory(
        ops={
            "a": [("read", "X", None), ("write", "X", "1")],
            "b": [("read", "X", "1"), ("write", "X", "2")],
        },
        initials={"X": None},
    )
    v = check_serializability(h)
    assert v.passed and v.witness["serialOrder"] == ["a", "b"]


def _write_history_trace(path: Path, history: dict) -> None:
    """A trace of one committed response step per transaction, without a
    sidecar: every item's initial value is null."""
    lines = [
        json.dumps({"i": i, "kind": "response", "proc": None, "txn": txn, "outcome": "commit",
                    "readSet": [[item, v] for kind, item, v in ops if kind == "read"],
                    "writeSet": [[item, v] for kind, item, v in ops if kind == "write"]})
        for i, (txn, ops) in enumerate(history.items())
    ]
    path.write_text("\n".join(lines) + "\n")


def _cli_serializability(tmp_path, capsys, history: dict) -> tuple[int, dict]:
    path = tmp_path / "history.jsonl"
    _write_history_trace(path, history)
    code = main(["check", "--trace", str(path), "--property", "serializability"])
    return code, json.loads(capsys.readouterr().out)


def test_cli_serializability_any_size_pass(tmp_path, capsys):
    # Twelve transactions, listed backwards, each reading its predecessor's
    # write of X: exactly one legal order, t0 first.
    ops = {f"t{i}": [("read", "X", f"v{i - 1}" if i else None), ("write", "X", f"v{i}")]
           for i in reversed(range(12))}
    code, verdict = _cli_serializability(tmp_path, capsys, ops)
    assert code == 0 and verdict["pass"]
    order = verdict["witness"]["serialOrder"]
    assert order == [f"t{i}" for i in range(12)]
    assert legal_order(CommittedHistory(ops, {"X": None}), order)


def test_cli_serializability_any_size_fail(tmp_path, capsys):
    # Ten transactions, each reading the initial value of the item its
    # successor writes: a 10-cycle, as in rfids.
    ops = {f"t{i}": [("read", f"X{(i + 1) % 10}", None), ("write", f"X{i}", f"v{i}")]
           for i in range(10)}
    code, verdict = _cli_serializability(tmp_path, capsys, ops)
    assert code == 1 and not verdict["pass"]
    assert verdict["witness"]["cycle"] == [f"t{i}" for i in range(10)]
    assert verdict["witness"]["edges"] == [
        {"from": f"t{i}", "to": f"t{(i + 1) % 10}", "item": f"X{(i + 1) % 10}",
         "reason": "read-initial"}
        for i in range(10)
    ]


def test_polygraph_blind_write_subtlety():
    # b reads the initial value of X while a and c write X and chain through
    # Y; a naive pairwise conflict graph orders a->c->b via Y yet b must
    # precede both X writers. Exactly one legal order exists: b, a, c.
    h = CommittedHistory(
        ops={
            "a": [("write", "X", "ax"), ("write", "Y", "ay")],
            "b": [("read", "X", None)],
            "c": [("read", "Y", "ay"), ("write", "X", "cx")],
        },
        initials={"X": None, "Y": None},
    )
    assert check_serializability(h).witness == {"serialOrder": ["b", "a", "c"]}
    h.ops["b"] = [("read", "X", "cx"), ("read", "Y", None)]
    # Now b needs c before it (reads-from) but also no a-write of Y before it:
    # impossible, since c requires a.
    assert not check_serializability(h).passed
    assert not oracle_serializable(h)


def test_serializability_duplicate_values_branch():
    # a and b both write 1 to X, so c's read of 1 may come from either; d
    # writes Y's initial value back, so a read of it may come from d too.
    h = CommittedHistory(
        ops={
            "a": [("read", "Y", None), ("write", "X", 1)],
            "b": [("write", "X", 1)],
            "c": [("read", "X", 1), ("write", "Y", [2])],
            "d": [("read", "Y", None), ("write", "Y", None)],
        },
        initials={"X": None, "Y": None},
    )
    v = check_serializability(h)
    assert v.passed and legal_order(h, v.witness["serialOrder"])
    h.ops["b"] = [("read", "Y", [2]), ("write", "X", 1)]
    # Now b reads c's Y, so c must read a's 1: d, a, c, b is legal.
    v = check_serializability(h)
    assert v.passed and legal_order(h, v.witness["serialOrder"])
    h.ops["a"] = [("read", "Y", [2]), ("write", "X", 1)]
    # Both writers of 1 now follow c, which reads 1: no legal order.
    assert not check_serializability(h).passed
    assert not oracle_serializable(h)


# SHA-256 over the label and `pdtsim check --property serializability` JSON of
# each FAIL verdict below, taken while the decider was a permutation brute
# force capped at 8 transactions.
GOLDEN_SERIALIZABILITY_FAIL_SHA256 = "a6677f2a5d55523319ae5f276b9bbeb5469a28787052ae78253682659d1a5320"


def test_golden_serializability_verdicts():
    """The fids and rfids counterexample runs of base, and random exact
    seeds 0-9 of every builtin scenario x admitted variant: 442 verdicts. The
    same 4 runs FAIL, with byte-identical output, so every other run still
    PASSes."""
    base = AlgorithmVariant("base")
    runs = [(f"{name} base builtin:{name}", get_scenario(name), base,
             builtin_schedule(name, base, get_scenario(name))) for name in ("fids", "rfids")]
    runs += [(f"{scen.name} {variant.tag} random:{seed}", scen, variant, Schedule("random", seed=seed))
             for scen, variant in admitted_pairs() for seed in range(10)]
    digest, fails = hashlib.sha256(), 0
    for label, scen, variant, sched in runs:
        verdict = CHECKERS_BY_NAME["serializability"](run(scen.config, variant, scen, sched).trace)
        if not verdict.passed:
            text = json.dumps(verdict.to_json(), sort_keys=True, indent=2, ensure_ascii=False)
            digest.update(f"{label}\n{text}\n".encode())
            fails += 1
    assert (len(runs), fails) == (442, 4)
    assert digest.hexdigest() == GOLDEN_SERIALIZABILITY_FAIL_SHA256


# ---------------------------------------------------------------------------
# Weak progress / invisible reads
# ---------------------------------------------------------------------------


def test_weak_progress_solo_and_concurrent(base):
    scen = scenario_solo(1)
    traces = [run(scen.config, base, scen, Schedule("random", seed=s)).trace for s in range(5)]
    assert check_weak_progress(traces).passed

    conflict = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0,
        [("t1", 0, ["X"], [("X", "allReadsInitial", "a")]),
         ("t2", 1, ["X"], [("X", "allReadsInitial", "b")])],
    )
    traces = [run(conflict.config, base, conflict, Schedule("random", seed=s)).trace
              for s in range(10)]
    assert check_weak_progress(traces).passed  # aborts allowed, undecided not


def test_weak_progress_no_seamless_with_crash():
    scen = scenario_solo(1)
    sched = inject_crash(Schedule("scripted", []), 0, 0)
    trace = run(scen.config, AlgorithmVariant("no-seamless"), scen, sched).trace
    assert check_weak_progress([trace]).passed


def test_weak_ir_on_protocol_traces(base):
    scen = make_scenario({"X": None}, {"X": [0, 1, 2]}, 3, 1, [("t1", 0, ["X"], [])], procs=1)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    assert check_weak_ir(trace).passed


def test_weak_ir_flags_synthetic_violation():
    c, n = ProcessRef.client(0), ProcessRef.node_proc(0, 0)
    steps = [
        Step(0, "invoke", c, "t"),
        Step(1, "send", c, "t", {"msgId": 0, "payload": {"kind": "read", "body": {}}}),
        Step(2, "recv", n, "t", {"msgId": 0, "payload": {"kind": "read", "body": {}}}),
        Step(3, "prim", n, "t", {"obj": "X.lockL", "op": "cas", "nontrivial": True,
                                 "args": [None, "t"], "ret": True}),
        Step(4, "response", n, "t", {"outcome": None, "readSet": None, "writeSet": None}),
        Step(5, "response", c, "t", {"outcome": "commit", "readSet": [["X", None]], "writeSet": []}),
    ]
    v = check_weak_ir(ExecutionTrace(steps))
    assert not v.passed and v.witness["step"] == 3


# ---------------------------------------------------------------------------
# Strong invisible reads
# ---------------------------------------------------------------------------


def test_strong_ir_base_passes(base):
    scen = scenario_solo(1)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    v = check_strong_ir(trace)
    assert v.passed
    assert any(c["twin"] == "replayed" for c in v.details["checked"])
    # A concurrent read-only transaction: the twin replay of w2 must leave
    # r1's steps unchanged.
    scen = get_scenario("readonly-pair")
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    v = check_strong_ir(trace)
    assert v.passed
    assert v.details["checked"] == [{"txn": "w2", "twin": "replayed"}]


def test_strong_ir_weak_ir_variant_fails():
    scen = scenario_solo(1)
    trace = run(scen.config, AlgorithmVariant("weak-ir"), scen, Schedule("fair")).trace
    v = check_strong_ir(trace)
    assert not v.passed
    missing = {obj for (_, obj, _, _, _) in v.witness["onlyInOriginal"]}
    assert missing == {"X1.lockL"}, "the twin must lack exactly the read-item lock traffic"


def test_strong_ir_write_only_is_identity(base):
    scen = scenario_solo(0)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    v = check_strong_ir(trace)
    assert v.passed
    assert v.details["checked"] == [{"txn": "t1", "twin": "identity"}]


def test_strong_ir_rejects_scripted_schedules(base):
    scen = scenario_fids()
    trace = run(scen.config, base, scen, fids_schedule(base, scen)).trace
    with pytest.raises(ScheduleIncompatible):
        check_strong_ir(trace)


# ---------------------------------------------------------------------------
# DAP / DDAP
# ---------------------------------------------------------------------------


def test_dap_ddap_fail_only_for_no_ddap():
    scen = scenario_disjoint_writers()
    for tag in ("base", "no-fast", "weak-ir", "no-seamless"):
        trace = run(scen.config, AlgorithmVariant(tag), scen, Schedule("fair")).trace
        assert check_dap(trace).passed and check_ddap(trace).passed
    trace = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair")).trace
    vd, vdd = check_dap(trace), check_ddap(trace)
    assert not vd.passed and not vdd.passed
    assert vd.witness["obj"] == "node.globalLock"
    i, j = vd.witness["steps"]
    assert trace.steps[i].obj == trace.steps[j].obj == "node.globalLock"


def test_ddap_equals_dap_on_unsharded_config():
    # Every node holds the whole database, so the shard intersection
    # condition coincides with the plain data-set intersection.
    scen = scenario_disjoint_writers()
    for tag in ("base", "no-ddap"):
        trace = run(scen.config, AlgorithmVariant(tag), scen, Schedule("fair")).trace
        assert check_dap(trace).passed == check_ddap(trace).passed


def test_fids_trace_satisfies_ddap(base):
    scen = scenario_fids()
    trace = run(scen.config, base, scen, fids_schedule(base, scen)).trace
    assert check_ddap(trace).passed and check_dap(trace).passed


# ---------------------------------------------------------------------------
# Fast decision / read delay
# ---------------------------------------------------------------------------


def test_fast_decision_verdicts(base):
    scen = scenario_solo(2)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    v = check_fast_decision(trace)
    assert v.passed
    assert v.details["transactions"][0]["learnedDepths"] == [2, 4]

    trace = run(scen.config, AlgorithmVariant("no-fast"), scen, Schedule("fair")).trace
    v = check_fast_decision(trace)
    assert not v.passed and v.witness["decisionSlack"] == 2


def test_fast_decision_vacuous_without_reads(base):
    scen = scenario_solo(0)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    v = check_fast_decision(trace)
    assert v.passed
    assert v.details["transactions"][0]["learnedDepths"] == []


def test_read_delay_on_replicated_solo(base):
    scen = scenario_solo(1)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    assert check_read_delay(trace).passed


def test_read_delay_flags_synthetic_early_learning():
    c = ProcessRef.client(0)
    steps = [
        Step(0, "invoke", c, "t"),
        Step(1, "note", c, "t", {"tag": "valueLearned", "data": {"item": "X", "val": 1, "seq": 0}}),
        Step(2, "response", c, "t", {"outcome": "commit", "readSet": [["X", 1]], "writeSet": []}),
    ]
    v = check_read_delay(ExecutionTrace(steps))
    assert not v.passed and v.witness["partialDepth"] == 0


# ---------------------------------------------------------------------------
# Seamless fault tolerance
# ---------------------------------------------------------------------------


def test_seamless_ft_zero_is_vacuous(base):
    scen = scenario_solo(1)
    v = check_seamless_ft(scen.config, base, scen, Schedule("fair"), s=0)
    assert v.passed and v.details["reason"] == "vacuous"


def test_seamless_ft_requires_budget(base):
    scen = scenario_fids()  # f = 0
    v = check_seamless_ft(scen.config, base, scen, fids_schedule(base, scen), s=1)
    assert not v.passed and "f=0" in v.witness["reason"]


def test_seamless_ft_witness_replays(base, monkeypatch):
    monkeypatch.setattr("pdtsim.checkers.SEAMLESS_COMPLETIONS", 2)
    scen = scenario_solo(1)
    v = check_seamless_ft(scen.config, AlgorithmVariant("no-seamless"), scen, Schedule("fair"), s=1)
    assert not v.passed
    sched = Schedule.from_json(v.witness["schedule"])
    res = run(scen.config, AlgorithmVariant("no-seamless"), scen, sched)
    from pdtsim.model import txn_depth

    assert txn_depth(res.trace, "t1") == v.witness["injectedDepths"]["t1"]
    assert v.witness["injectedDepths"]["t1"] != v.witness["baseDepths"]["t1"]


def test_seamless_ft_witness_after_a_prefix_replays(monkeypatch):
    # no-ddap's writers contend on the node lock. In this run w1 commits,
    # then w2 aborts; a crash of node 1 after 9 decisions makes w2 respond
    # first under the fair completion and two seeded ones. Crashes earlier in
    # the run are seamless.
    scen, variant = scenario_disjoint_writers(), AlgorithmVariant("no-ddap")
    base_run = run(scen.config, variant, scen, Schedule("random", seed=1))
    monkeypatch.setattr("pdtsim.checkers.SEAMLESS_COMPLETIONS", 2)
    v = check_seamless_ft(scen.config, variant, scen, Schedule("random", seed=1), s=1)
    assert not v.passed and (v.witness["prefix"], v.witness["node"]) == (9, 1)
    assert v.witness["signatureChanged"]
    sched = Schedule.from_json(v.witness["schedule"])
    assert sched.decisions[:9] == base_run.decisions[:9]
    res = run(scen.config, variant, scen, sched)

    def responses(trace):
        return [(s.txn, s.outcome) for s in trace.steps if s.kind == "response" and s.outcome]

    assert responses(base_run.trace) == [("w1", "commit"), ("w2", "abort")]
    assert responses(res.trace) == [("w2", "abort"), ("w1", "commit")]
    assert {t: txn_depth(res.trace, t) for t in ("w1", "w2")} == v.witness["injectedDepths"]


# SHA-256s taken when decisions lost `pin` and schedules lost `complete`. The
# counterexample runs kept their steps, up to the index of the node process
# that takes each delivery; the seamless-ft and verdict pins changed only in
# the dropped `complete` key of their witness schedules.
GOLDEN_COUNTEREXAMPLE_SHA256 = "b34d44ca09603b660623aa4e3cdfd4e8932ae1cbc3fa8072689d20fd7855babb"
GOLDEN_SEAMLESS_FT_SHA256 = "2619954edcacd19b6a4c0a98f95674d8888e5bb148b4694ceed98d5763df3fe3"
GOLDEN_VERDICTS_SHA256 = "fb4882824d27a587a1563a04cc53892dc3a43d72ea0b134f48d51e9a71c543b9"


def test_golden_counterexample_schedules():
    """Every builtin fids/rfids schedule the builder accepts, on every
    builtin scenario x variant: the schedule JSON and its run's trace."""
    digest, built = hashlib.sha256(), 0
    for scen, variant in admitted_pairs():
        for name in ("fids", "rfids"):
            try:
                sched = builtin_schedule(name, variant, scen)
            except PlacementError:
                continue
            trace = run(scen.config, variant, scen, sched).trace
            digest.update(f"{scen.name} {variant.tag} builtin:{name}\n".encode())
            digest.update(dumps_canonical(sched.to_json()).encode() + b"\n")
            for s in trace.steps:
                digest.update(dumps_canonical(s.to_json()).encode() + b"\n")
            built += 1
    assert built == 19
    assert digest.hexdigest() == GOLDEN_COUNTEREXAMPLE_SHA256


def test_golden_seamless_ft_sweeps():
    """The seamless-ft verdict of every admitted variant on solo-r0 (fair)
    and solo-r1 (random:1), and with s=2 on a k=5 f=2 solo run whose base
    schedule crashes node 4 first, so injections start after that crash."""
    runs = [(scen, variant, sched, 1)
            for scen, variant in admitted_pairs()
            for name, sched in (("solo-r0", Schedule("fair")), ("solo-r1", Schedule("random", seed=1)))
            if scen.name == name]
    wide = make_scenario({"X1": None, "Y": None}, {"X1": range(5), "Y": range(5)}, 5, 2,
                         [("t1", 0, ["X1"], [("Y", "allReadsInitial", "w")])], procs=1,
                         name="solo-k5")
    crashed = inject_crash(Schedule("scripted", []), 4, 0)
    runs += [(wide, AlgorithmVariant(tag), crashed, 2) for tag in ("base", "no-fast")]
    digest = hashlib.sha256()
    for scen, variant, sched, s in runs:
        verdict = check_seamless_ft(scen.config, variant, scen, sched, s=s)
        text = json.dumps(verdict.to_json(), sort_keys=True)
        digest.update(f"{scen.name} {variant.tag} s={s}\n{text}\n".encode())
    assert len(runs) == 12
    assert digest.hexdigest() == GOLDEN_SEAMLESS_FT_SHA256


def test_golden_checker_verdicts(tmp_path):
    """Every checker's verdict and the invariant suite's outcome on every
    admitted pair under fair and random:1, each run written and read back
    through its sidecar. seamless-ft only on the solo runs under fair: its
    sweeps over the contended runs are slow."""
    digest, verdicts = hashlib.sha256(), 0
    for scen, variant in admitted_pairs():
        for spec, sched in (("fair", Schedule("fair")), ("random:1", Schedule("random", seed=1))):
            path = tmp_path / f"{scen.name}-{variant.tag}-{spec.replace(':', '')}.jsonl"
            write_run(run(scen.config, variant, scen, sched), path)
            trace = read_trace(path)
            digest.update(f"{scen.name} {variant.tag} {spec}\n".encode())
            for prop, checker in CHECKERS_BY_NAME.items():
                if prop == "seamless-ft" and not (scen.name.startswith("solo-r") and spec == "fair"):
                    continue
                text = json.dumps(checker(trace).to_json(), sort_keys=True)
                digest.update(f"{prop} {text}\n".encode())
                verdicts += 1
            try:
                verify_trace_invariants(trace)
                outcome = "ok"
            except InvariantViolation as e:
                outcome = str(e)
            digest.update(f"invariants {outcome}\n".encode())
    assert verdicts == 724
    assert digest.hexdigest() == GOLDEN_VERDICTS_SHA256


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------


def test_invariants_hold_on_generated_traces(base):
    scen = scenario_rfids()
    trace = run(scen.config, base, scen, rfids_schedule(base, scen)).trace
    verify_trace_invariants(trace)
    scen = scenario_solo(2)
    for tag in ("base", "no-fast", "weak-ir", "no-seamless", "no-ddap"):
        trace = run(scen.config, AlgorithmVariant(tag), scen, Schedule("random", seed=5)).trace
        verify_trace_invariants(trace)


def test_invariants_read_the_node_count_from_the_scenario(base):
    # A trace built from its steps and scenario alone: the read-atomicity
    # clause takes the node count from the scenario's config.
    scen = get_scenario("solo-r1")
    steps = run(scen.config, base, scen, Schedule("fair")).trace.steps
    verify_trace_invariants(ExecutionTrace(steps, scenario=scen))


def _recorded(name: str, variant: str = "base") -> ExecutionTrace:
    """A fair trace, under ``variant``, of one of the scenarios the edits below use."""
    algorithm = AlgorithmVariant(variant)
    if name == "sequential-writers":
        # Client 0 runs t1, t2, t3 one after another on a single node.
        scen = make_scenario({"X": None, "Y": None}, {"X": [0], "Y": [0]}, 1, 0, [
            ("t1", 0, [], [("X", "always", "a")]),
            ("t2", 0, [], [("X", "always", "b")]),
            ("t3", 0, [], [("Y", "always", "c")]),
        ])
    else:
        scen = get_scenario(name.removesuffix("-crash"))
    res = run(scen.config, algorithm, scen, Schedule("fair"))
    if name.endswith("-crash"):
        # Node 2 crashes once everything has run.
        res = run(scen.config, algorithm, scen, Schedule(
            "scripted", list(res.decisions) + [Decision("crash", node=2)]))
    return res.trace


def _edited(name: str, edit, variant: str = "base") -> ExecutionTrace:
    """The recorded trace with one edit to a copy of its steps, renumbered."""
    trace = _recorded(name, variant)
    steps = [Step(s.i, s.kind, s.proc, s.txn, copy.deepcopy(s.fields)) for s in trace.steps]
    edit(steps)
    for i, s in enumerate(steps):
        s.i = i
    return ExecutionTrace(steps, trace.scenario, trace.algorithm, trace.schedule)


def _nth(steps, pred, n=0) -> int:
    return [i for i, s in enumerate(steps) if pred(s)][n]


def _is(kind, txn=None, **fields):
    return lambda s: (s.kind == kind and (txn is None or s.txn == txn)
                      and all(s.fields.get(k) == v for k, v in fields.items()))


def _msg(kind, payload_kind):
    return lambda s: s.kind == kind and s.payload["kind"] == payload_kind


def _set(pred, **fields):
    def edit(steps):
        steps[_nth(steps, pred)].fields.update(fields)
    return edit


def _set_body(pred, **body):
    def edit(steps):
        steps[_nth(steps, pred)].fields["payload"]["body"].update(body)
    return edit


def _set_txn(pred, txn):
    def edit(steps):
        steps[_nth(steps, pred)].txn = txn
    return edit


def _second_reuses_first_msg_id(pred):
    def edit(steps):
        steps[_nth(steps, pred, 1)].fields["msgId"] = steps[_nth(steps, pred)].msg_id
    return edit


def _move_to(pred, pos):
    def edit(steps):
        steps.insert(pos, steps.pop(_nth(steps, pred)))
    return edit


def _delete(pred):
    def edit(steps):
        del steps[_nth(steps, pred)]
    return edit


# One minimal edit per invariant clause, with the message the clause raises
# and, when it is not base, the variant the trace is recorded under. The
# first six break the structure `TraceIndex` checks as it derives it.
# The happened-before clause (edges point forward) has no case because it
# cannot fire: every predecessor in TraceIndex.preds has a smaller index.
INVARIANT_EDITS = {
    "duplicate-send": (
        "solo-r0", _second_reuses_first_msg_id(_is("send")), "duplicate send msgId 0"),
    "recv-without-send": (
        "solo-r0", _set(_is("recv"), msgId=10**6), "recv 4 has no prior send"),
    "delivered-twice": (
        "solo-r0", _second_reuses_first_msg_id(_is("recv")), "message 0 delivered twice"),
    "txn-mismatch": (
        "solo-r0", _set_txn(_is("recv"), "t9"), "send/recv transaction mismatch"),
    "crash-finality": (
        "solo-r0-crash", _move_to(_is("crash"), 1), "step 17 on node 2 after its crash at 1"),
    # The first recv opens node 0's validate handler.
    "response-without-handler": (
        "solo-r0", _delete(_is("recv")), "response 8 closes no open handler"),
    "seqnum-decreased": (
        "solo-r0", _set(_is("prim", op="write", obj="Y.seqNum"), args=[-1]),
        "seqNum decreased at step 33"),
    "cas-over-held-lock": (
        "sequential-writers", _delete(_is("prim", "t1", op="write", obj="X.lockL")),
        "lock CAS won over a held lock at 23"),
    "cas-over-held-global-lock": (
        "sequential-writers", _delete(_is("prim", "t1", op="write", obj="node.globalLock")),
        "lock CAS won over a held lock at 23", "no-ddap"),
    "still-holds": (
        "sequential-writers", _delete(_is("prim", "t2", op="write", obj="X.lockL")),
        "t2 still holds (0, 'X.lockL') at interval end 40"),
    "read-atomicity": (
        "solo-r1", _set_body(_msg("send", "readReply"), val="ghost"),
        "ReadReply at 10 returned a state the replica never held"),
    "decision-agreement": (
        "solo-r0", _set_body(_msg("recv", "validateReply"), vote="abort"),
        "t1 broadcast commit after receiving an abort vote at 22"),
    "weak-ir": (
        "readonly-pair", _set(_is("prim", "r1"), nontrivial=True),
        "weak-ir violated: {'txn': 'r1', 'step': 9, 'obj': 'X1.lockS', 'op': 'read'}"),
    "read-delay": (
        "solo-r1", _move_to(_is("note", tag="valueLearned"), 1),
        "read-delay violated: {'txn': 't1', 'step': 1, 'partialDepth': 0}"),
}


@pytest.mark.parametrize("clause", INVARIANT_EDITS)
def test_invariants_catch_one_edit(clause):
    name, edit, message, *variant = INVARIANT_EDITS[clause]
    verify_trace_invariants(_recorded(name, *variant))
    with pytest.raises(InvariantViolation) as caught:
        verify_trace_invariants(_edited(name, edit, *variant))
    assert str(caught.value) == message


@pytest.mark.parametrize("clause", list(INVARIANT_EDITS)[:6])
def test_check_exits_2_on_a_broken_structure(clause, tmp_path, capsys):
    # A checker that reads the index meets the suite's structural clauses
    # first, so it neither passes a broken trace nor leaks an internal error.
    name, edit, message, *variant = INVARIANT_EDITS[clause]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(s.to_json()) + "\n" for s in _edited(name, edit, *variant).steps))
    assert main(["check", "--trace", str(path), "--property", "fast-decision"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# The longest literal piece of each clause's message that no edit can trip.
# Only the happened-before clause; it goes once nothing needs
# `happened_before` to be called.
UNFALSIFIABLE_CLAUSES = {"happened-before edge ("}


# The code the suite's clauses are raised from: its own and the index passes
# that check the structure they derive.
SUITE_SOURCES = (verify_trace_invariants, TraceIndex.messages.func, TraceIndex.crashes.func,
                 TraceIndex.handlers.func)


def test_every_invariant_clause_has_an_edit():
    # The longest literal piece of each `raise InvariantViolation(...)` message.
    pieces = []
    for source in SUITE_SOURCES:
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(source)))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InvariantViolation"):
                message = node.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                pieces.append(max((p.value for p in parts if isinstance(p, ast.Constant)), key=len))
    assert len(pieces) >= len(INVARIANT_EDITS)
    messages = [message for _, _, message, *_ in INVARIANT_EDITS.values()]
    for piece in pieces:
        if piece not in UNFALSIFIABLE_CLAUSES:
            assert any(piece in m for m in messages), f"no INVARIANT_EDITS case raises {piece!r}"
    assert UNFALSIFIABLE_CLAUSES <= set(pieces), "an exempt clause is gone; drop its exemption"


# The suite must still raise with asserts stripped.
_STILL_HOLDS_REPRO = """
from pdtsim.checkers import verify_trace_invariants
from pdtsim.errors import InvariantViolation
from test_checkers import INVARIANT_EDITS, _edited
name, edit, _ = INVARIANT_EDITS["still-holds"]
try:
    verify_trace_invariants(_edited(name, edit))
except InvariantViolation as e:
    print(e)
"""


def test_invariants_raise_under_python_O():
    path = os.pathsep.join([str(Path(pdtsim.__file__).parents[1]), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-O", "-c", _STILL_HOLDS_REPRO],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout == INVARIANT_EDITS["still-holds"][2] + "\n"


# ---------------------------------------------------------------------------
# Failure branches of the checkers
# ---------------------------------------------------------------------------


def test_weak_progress_flags_an_undecided_transaction():
    trace = _recorded("solo-r1")
    prefix = trace.steps[:trace.coordinator_response("t1").i]
    v = check_weak_progress([ExecutionTrace(prefix, trace.scenario)])
    assert not v.passed
    assert v.witness == {"trace": 0, "txn": "t1", "reason": "undecided"}


def test_weak_progress_flags_an_aborted_solo_transaction():
    trace = _edited("solo-r1", _set(_is("response", "t1", outcome="commit"), outcome="abort"))
    v = check_weak_progress([trace])
    assert not v.passed
    assert v.witness == {"trace": 0, "txn": "t1", "reason": "solo transaction aborted"}


def test_fast_decision_needs_a_failure_free_trace(base):
    scen = scenario_solo(1)
    trace = run(scen.config, base, scen, inject_crash(Schedule("scripted", []), 2, 0)).trace
    v = check_fast_decision(trace)
    assert not v.passed and v.witness == {"reason": "trace is not failure-free"}


def test_strong_ir_fails_when_weak_ir_does():
    trace = _edited("readonly-pair", _set(_is("prim", "r1"), nontrivial=True))
    v = check_strong_ir(trace)
    assert not v.passed
    assert v.details == {"reason": "weak invisible reads violated"}
    assert v.witness == check_weak_ir(trace).witness


def test_strong_ir_needs_the_scenario_and_algorithm():
    trace = ExecutionTrace(_recorded("solo-r1").steps)
    with pytest.raises(ScheduleIncompatible, match="scenario/algorithm refs"):
        check_strong_ir(trace)


def test_seamless_ft_rejects_a_base_run_over_budget(base):
    scen = scenario_solo(1)
    v = check_seamless_ft(scen.config, base, scen, Schedule("scripted", [Decision("crash", node=2)]), s=1)
    assert not v.passed
    assert v.witness == {"reason": "base run has 1 crashes, needs <= 0"}
