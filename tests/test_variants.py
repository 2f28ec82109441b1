"""Behavior specific to the four tweaked algorithms."""
from __future__ import annotations

import pytest

from pdtsim import run
from pdtsim.engine import Schedule, inject_crash
from pdtsim.errors import PlacementError
from pdtsim.memory import GLOBAL_LOCK, NodeMemory, contending_pairs
from pdtsim.model import txn_depth
from pdtsim.protocols import AlgorithmVariant, ProtocolEnv, pmsg
from pdtsim.scenarios import scenario_disjoint_writers, scenario_fids, scenario_solo

from conftest import FakeMsg, HandlerHarness, make_scenario


# ---------------------------------------------------------------------------
# no-fast: two-round validation
# ---------------------------------------------------------------------------


def test_no_fast_depths():
    # read (2r) + lock round (2) + check round (2); r=0 skips the check round.
    for r, want in ((0, 4), (1, 6), (2, 8)):
        scen = scenario_solo(r)
        trace = run(scen.config, AlgorithmVariant("no-fast"), scen, Schedule("fair")).trace
        assert txn_depth(trace, "t1") == want


def test_no_fast_message_kinds():
    scen = scenario_solo(1)
    trace = run(scen.config, AlgorithmVariant("no-fast"), scen, Schedule("fair")).trace
    kinds = {s.payload["kind"] for s in trace.steps if s.kind == "send"}
    assert "lock" in kinds and "check" in kinds
    assert "validate" not in kinds


def test_no_fast_lock_round_failure_releases_locks():
    scen = make_scenario(
        {"A": None, "B": None}, {"A": [0], "B": [0]}, 1, 0,
        [("t1", 0, [], [("A", "always", "a"), ("B", "always", "b")])],
    )
    env = ProtocolEnv(AlgorithmVariant("no-fast"), scen, scen.config)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["B.lockL"] = "other"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("lock", {
        "tid": "t1", "writes": [["A", "a"], ["B", "b"]],
    }))))
    assert h.sent[0]["body"]["vote"] == "abort"
    assert mem.cells["A.lockL"] is None


def test_no_fast_check_handler_votes():
    scen = make_scenario({"A": None}, {"A": [0]}, 1, 0, [("t1", 0, ["A"], [])])
    env = ProtocolEnv(AlgorithmVariant("no-fast"), scen, scen.config)
    mem = NodeMemory(0, ["A"], {"A": None})
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("check", {"tid": "t1", "reads": [["A", 0]]}))))
    assert h.sent[0]["body"]["vote"] == "commit"
    assert all(not nt for (_, _, _, _, nt) in h.prims)
    mem.cells["A.seqNum"] = 2
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("check", {"tid": "t1", "reads": [["A", 0]]}))))
    assert h.sent[0]["body"]["vote"] == "abort"


# ---------------------------------------------------------------------------
# weak-ir: writers also long-lock their read items
# ---------------------------------------------------------------------------


def test_weak_ir_writer_locks_read_items():
    scen = scenario_solo(1)
    res = run(scen.config, AlgorithmVariant("weak-ir"), scen, Schedule("fair"))
    read_lock_cas = [
        s for s in res.trace.steps
        if s.kind == "prim" and s.op == "cas" and s.obj == "X1.lockL"
    ]
    assert len(read_lock_cas) == 3, "one read-item lock per replica"
    # released again by the commit handlers
    for node in range(3):
        assert res.final_memory[node]["X1.lockL"] is None


def test_weak_ir_readonly_txn_stays_trivial():
    scen = make_scenario({"X": None}, {"X": [0, 1, 2]}, 3, 1, [("t1", 0, ["X"], [])], procs=1)
    res = run(scen.config, AlgorithmVariant("weak-ir"), scen, Schedule("fair"))
    assert res.trace.coordinator_response("t1").outcome == "commit"
    assert not any(s.kind == "prim" and s.nontrivial for s in res.trace.steps)


def test_weak_ir_depth_matches_base():
    scen = scenario_solo(1)
    trace = run(scen.config, AlgorithmVariant("weak-ir"), scen, Schedule("fair")).trace
    assert txn_depth(trace, "t1") == 4


# ---------------------------------------------------------------------------
# no-seamless: wait for all, time out into the two-round fallback
# ---------------------------------------------------------------------------


def test_no_seamless_requires_replicated_placement():
    scen = scenario_fids()  # sharded
    with pytest.raises(PlacementError):
        run(scen.config, AlgorithmVariant("no-seamless"), scen, Schedule("fair"))


def test_no_seamless_failure_free_depth_four():
    scen = scenario_solo(1)
    trace = run(scen.config, AlgorithmVariant("no-seamless"), scen, Schedule("fair")).trace
    assert txn_depth(trace, "t1") == 4


def test_no_seamless_crash_triggers_fallback():
    scen = scenario_solo(1)
    sched = inject_crash(Schedule("scripted", []), 2, 0)
    res = run(scen.config, AlgorithmVariant("no-seamless"), scen, sched)
    trace = res.trace
    assert trace.coordinator_response("t1").outcome == "commit"
    assert any(s.kind == "note" and s.tag == "timeout" for s in trace.steps)
    sends = [s.payload["kind"] for s in trace.steps if s.kind == "send"]
    assert "restart" in sends and "lock" in sends
    assert txn_depth(trace, "t1") > 4
    for node in (0, 1):  # live replicas end clean
        assert res.final_memory[node]["Y.lockL"] is None
    assert res.final_memory[0]["Y.val"] == "w"


def test_restart_handler_releases_locks():
    scen = make_scenario(
        {"A": None}, {"A": [0, 1, 2]}, 3, 1, [("t1", 0, [], [("A", "always", "a")])],
    )
    env = ProtocolEnv(AlgorithmVariant("no-seamless"), scen, scen.config)
    mem = NodeMemory(0, ["A"], {"A": None})
    mem.cells["A.lockL"] = "t1"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("restart", {
        "tid": "t1", "reads": [], "writes": [["A", "a"]],
    }))))
    assert mem.cells["A.lockL"] is None


def test_no_seamless_timeout_exceeds_delta():
    scen = scenario_solo(1)
    env = ProtocolEnv(AlgorithmVariant("no-seamless"), scen, scen.config)
    assert env.validation_timeout > scen.config.delta


# ---------------------------------------------------------------------------
# no-ddap: one long lock per node
# ---------------------------------------------------------------------------


def test_no_ddap_disjoint_writers_contend_on_global_lock():
    scen = scenario_disjoint_writers()
    res = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair"))
    pairs = contending_pairs(res.trace)
    objs = {res.trace.steps[i].obj for (i, _) in pairs}
    assert objs == {GLOBAL_LOCK}


def test_no_ddap_writer_contacts_every_node():
    # The written item lives on one node, yet validates go everywhere.
    scen = make_scenario(
        {"X": None, "Z": None}, {"X": [0], "Z": [2]}, 1, 0,
        [("t1", 0, [], [("X", "always", "x")])],
        n_nodes=3, clients=1,
    )
    res = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair"))
    validated = {
        m.dst[1]
        for m in []
    }
    validate_recvs = {
        s.proc.node for s in res.trace.steps
        if s.kind == "recv" and s.payload["kind"] == "validate"
    }
    assert validate_recvs == {0, 1, 2}
    assert res.trace.coordinator_response("t1").outcome == "commit"
    for node in range(3):
        assert res.final_memory[node][GLOBAL_LOCK] is None


def test_no_ddap_identical_write_sets_identical_footprints():
    # Same write set, different read sets: the non-trivial prims coincide.
    def footprint(read_item):
        scen = make_scenario(
            {"X1": None, "X2": None, "X3": None},
            {"X1": (0, 1, 2), "X2": (0, 1, 2), "X3": (0, 1, 2)}, 3, 1,
            [("t", 0, [read_item], [("X1", "always", "v")])],
        )
        res = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair"))
        return sorted(
            (s.proc.node, s.obj, s.op, repr(s.fields["args"]))
            for s in res.trace.steps if s.kind == "prim" and s.nontrivial
        )

    assert footprint("X2") == footprint("X3")


def test_no_ddap_readonly_txn_acquires_nothing():
    scen = make_scenario(
        {"X": None}, {"X": [0, 1, 2]}, 3, 1, [("t1", 0, ["X"], [])], procs=1,
    )
    res = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair"))
    assert res.trace.coordinator_response("t1").outcome == "commit"
    assert not any(s.kind == "prim" and s.nontrivial for s in res.trace.steps)
