"""Base-algorithm behavior, hand-checked against the client/process pseudocode.

Handler-level cases drive a single message handler against one node's memory
(HandlerHarness); end-to-end cases script the engine decision by decision.
"""
from __future__ import annotations

import pytest

from pdtsim import run
from pdtsim.checkers import verify_trace_invariants
from pdtsim.engine import Schedule, Simulation
from pdtsim.memory import NodeMemory
from pdtsim.model import ProcessRef
from pdtsim.protocols import VARIANTS, AlgorithmVariant, ProtocolEnv, pmsg

from conftest import Driver, FakeMsg, HandlerHarness, make_scenario, run_sequential


def _env(scenario, tag="base"):
    return ProtocolEnv(AlgorithmVariant(tag), scenario, scenario.config)


@pytest.fixture
def one_node_two_items():
    return make_scenario(
        {"A": None, "B": None}, {"A": [0], "B": [0]}, 1, 0,
        [("t1", 0, ["A"], [("B", "allReadsInitial", "b1")])],
        procs=2,
    )


def test_solo_commit_installs_write_with_seq_one(base):
    # Fresh state: the read returns (bottom, 0); validation votes commit with
    # writeSeq 0; the client assigns seq 1 and the commit installs it.
    scen = make_scenario(
        {"X1": None, "X2": None}, {"X1": [0], "X2": [1]}, 1, 0,
        [("t1", 0, ["X1"], [("X2", "allReadsInitial", "v")])],
    )
    res = run(scen.config, base, scen, Schedule("fair"))
    resp = res.trace.coordinator_response("t1")
    assert resp.outcome == "commit"
    assert resp.read_set == [["X1", None]]
    assert resp.write_set == [["X2", "v"]]
    commit = next(s for s in res.trace.steps
                  if s.kind == "send" and s.payload["kind"] == "commit")
    assert commit.payload["body"]["writes"] == [["X2", "v", 1]]
    assert res.final_memory[1]["X2.val"] == "v"
    assert res.final_memory[1]["X2.seqNum"] == 1
    assert res.final_memory[1]["X2.lockL"] is None


def test_read_handler_quiescent_item(one_node_two_items):
    env = _env(one_node_two_items)
    h = HandlerHarness(NodeMemory(0, ["A", "B"], {"A": None, "B": None}))
    h.run(env.node_handler(0, FakeMsg(pmsg("read", {"key": "A", "round": 1}))))
    assert h.sent == [pmsg("readReply", {"key": "A", "round": 1, "val": None, "seq": 0, "vote": "ok"})]
    assert all(not nt for (_, _, _, _, nt) in h.prims), "reads must stay trivial"
    assert [op for (_, op, _, _, _) in h.prims] == ["read"] * 5


def test_read_handler_rechecks_the_lock_after_the_seqnum_read(one_node_two_items):
    # A writer takes A.lockS between the seqNum read and the lockS recheck:
    # the handler retries from its first lockS read.
    env = _env(one_node_two_items)
    gen = env.node_handler(0, FakeMsg(pmsg("read", {"key": "A", "round": 1})))
    effects = [gen.send(ret) for ret in (None, None, 0, "t9")]
    assert [(e.obj, e.op) for e in effects] == [
        ("A.lockS", "read"), ("A.seqNum", "read"), ("A.lockS", "read"), ("A.lockS", "read"),
    ]


def test_validate_handler_fresh_state(one_node_two_items):
    env = _env(one_node_two_items)
    h = HandlerHarness(NodeMemory(0, ["A", "B"], {"A": None, "B": None}))
    h.run(env.node_handler(0, FakeMsg(pmsg("validate", {
        "tid": "t1", "reads": [["A", 0]], "writes": [["B", "b1"]],
    }))))
    assert h.sent == [pmsg("validateReply", {"vote": "commit", "writeSeqs": [["B", 0]]})]
    assert h.memory.cells["B.lockL"] == "t1"


def test_validate_aborts_on_stale_read_seq(one_node_two_items):
    env = _env(one_node_two_items)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["A.seqNum"] = 3  # a committed writer advanced it
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("validate", {
        "tid": "t1", "reads": [["A", 0]], "writes": [["B", "b1"]],
    }))))
    assert h.sent[0]["body"]["vote"] == "abort"
    assert mem.cells["B.lockL"] is None


def test_validate_aborts_on_held_read_lock_even_with_matching_seq(one_node_two_items):
    env = _env(one_node_two_items)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["A.lockL"] = "other"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("validate", {
        "tid": "t1", "reads": [["A", 0]], "writes": [],
    }))))
    assert h.sent[0]["body"]["vote"] == "abort"


def test_validate_rollback_releases_own_locks_only(one_node_two_items):
    # Ascending item order: A is CASed first, then B fails; A must be freed
    # while the foreign holder of B keeps its lock.
    env = _env(one_node_two_items)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["B.lockL"] = "other"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("validate", {
        "tid": "t1", "reads": [], "writes": [["A", "a"], ["B", "b"]],
    }))))
    assert h.sent[0]["body"]["vote"] == "abort"
    assert mem.cells["A.lockL"] is None
    assert mem.cells["B.lockL"] == "other"


def test_commit_installs_fresh_and_skips_stale(one_node_two_items):
    env = _env(one_node_two_items)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["A.lockL"] = "t1"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("commit", {
        "tid": "t1", "reads": [], "writes": [["A", "new", 1]],
    }))))
    assert mem.cells["A.val"] == "new" and mem.cells["A.seqNum"] == 1
    assert mem.cells["A.lockL"] is None and mem.cells["A.lockS"] is None

    # Stale commit: stored seq already ahead; value kept, lock still released.
    mem.cells["A.seqNum"] = 5
    mem.cells["A.lockL"] = "t2"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("commit", {
        "tid": "t2", "reads": [], "writes": [["A", "stale", 3]],
    }))))
    assert mem.cells["A.val"] == "new" and mem.cells["A.seqNum"] == 5
    assert mem.cells["A.lockL"] is None


def test_abort_releases_only_own_lock(one_node_two_items):
    env = _env(one_node_two_items)
    mem = NodeMemory(0, ["A", "B"], {"A": None, "B": None})
    mem.cells["A.lockL"] = "t1"
    mem.cells["B.lockL"] = "other"
    h = HandlerHarness(mem)
    h.run(env.node_handler(0, FakeMsg(pmsg("abort", {
        "tid": "t1", "reads": [], "writes": [["A", "a"], ["B", "b"]],
    }))))
    assert mem.cells["A.lockL"] is None
    assert mem.cells["B.lockL"] == "other"


def test_read_retries_after_concurrent_install(base):
    # Interleave a commit between the reader's first seqNum read and its
    # recheck: the reader retries and returns the new consistent pair.
    scen = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0,
        [("w", 0, [], [("X", "always", "fresh")]),
         ("r", 1, ["X"], [])],
        procs=2,
    )
    sim = Simulation(scen.config, base, scen)
    drv = Driver(sim)
    w, r = ProcessRef.client(0), ProcessRef.client(1)
    drv.run_proc(w)  # invoke + validate broadcast
    drv.deliver_where(lambda m: m.payload["kind"] == "validate")
    drv.run_nodes()
    drv.deliver_where(lambda m: m.payload["kind"] == "validateReply")
    drv.run_proc(w)  # decide commit, send commit, respond
    drv.run_proc(r)  # invoke + read broadcast
    reader = drv.deliver_where(lambda m: m.payload["kind"] == "read")
    drv.step(reader)  # lockS check
    drv.step(reader)  # first seqNum read -> 0
    installer = drv.deliver_where(lambda m: m.payload["kind"] == "commit")
    assert installer != reader
    drv.run_proc(installer)  # install X = ("fresh", 1)
    drv.drain_fair()
    trace = sim.result().trace
    reply = next(s for s in trace.steps
                 if s.kind == "send" and s.payload["kind"] == "readReply")
    assert reply.payload["body"] == {"key": "X", "round": 1, "val": "fresh", "seq": 1, "vote": "ok"}
    read_handler_prims = [
        s for s in trace.steps
        if s.kind == "prim" and s.txn == "r" and s.proc == reader and s.i < reply.i
    ]
    assert len(read_handler_prims) == 10, "one failed attempt plus one clean attempt"
    assert all(not s.nontrivial for s in read_handler_prims)
    assert trace.coordinator_response("r").read_set == [["X", "fresh"]]


def test_sequential_conflicting_txns_both_commit(base):
    scen = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0,
        [("t1", 0, ["X"], [("X", "allReadsInitial", "first")]),
         ("t2", 1, ["X"], [("X", "never", None)])],
        procs=1,
    )
    res = run_sequential(Simulation(scen.config, base, scen))
    r1 = res.trace.coordinator_response("t1")
    r2 = res.trace.coordinator_response("t2")
    assert r1.outcome == "commit" and r2.outcome == "commit"
    assert r2.read_set == [["X", "first"]]


def test_transaction_with_nothing_to_validate_commits_without_messages(base):
    # No reads and a write rule that never fires: no node to contact, so
    # the coordinator commits at once.
    scen = make_scenario({"X": None}, {"X": [0]}, 1, 0, [("t1", 0, [], [("X", "never", None)])])
    steps = run(scen.config, base, scen, Schedule("fair")).trace.steps
    assert [s.kind for s in steps] == ["invoke", "response"]
    assert (steps[1].outcome, steps[1].read_set, steps[1].write_set) == ("commit", [], [])


def test_concurrent_writer_aborts_reader_validation(base):
    # The reader records seq 0, a writer commits in between, validation fails.
    scen = make_scenario(
        {"X": None, "Y": None}, {"X": [0], "Y": [0]}, 1, 0,
        [("w", 0, [], [("X", "always", "v")]),
         ("r", 1, ["X"], [("Y", "allReadsInitial", "y")])],
        procs=2,
    )
    sim = Simulation(scen.config, base, scen)
    drv = Driver(sim)
    drv.run_proc(ProcessRef.client(1))  # reader sends READ
    drv.deliver_where(lambda m: m.payload["kind"] == "read")
    drv.run_nodes()
    drv.deliver_where(lambda m: m.payload["kind"] == "readReply")
    # writer now runs start to finish
    drv.run_proc(ProcessRef.client(0))
    drv.deliver_where(lambda m: m.txn == "w" and m.payload["kind"] == "validate")
    drv.run_nodes()
    drv.deliver_where(lambda m: m.txn == "w")
    drv.run_proc(ProcessRef.client(0))
    drv.deliver_where(lambda m: m.txn == "w" and m.payload["kind"] == "commit")
    drv.run_nodes()
    # reader validates its stale read
    drv.drain_fair()
    trace = sim.result().trace
    assert trace.coordinator_response("w").outcome == "commit"
    assert trace.coordinator_response("r").outcome == "abort"
    # The aborted transaction still reports the write set it attempted.
    assert trace.coordinator_response("r").write_set == [["Y", "y"]]


@pytest.mark.parametrize("tag", VARIANTS)
def test_read_retries_exhausted_on_two_replicas_aborts(tag):
    # k=3, f=1. A writer's commit holds X.lockS on nodes 1 and 2 while the
    # reader's X reads run there: both replicas exhaust READ_RETRY_BOUND and
    # vote abort, so no k-f quorum of ok replies can form. The reader must
    # abort without a validation round instead of waiting forever.
    variant = AlgorithmVariant(tag)
    scen = make_scenario(
        {"X": None, "Y": None}, {"X": [0, 1, 2], "Y": [0, 1, 2]}, 3, 1,
        [("w", 0, [], [("X", "always", "v")]),
         ("r", 1, ["Y", "X"], [("Y", "allReadsInitial", "y")])],
        procs=2,
    )
    sim = Simulation(scen.config, variant, scen)
    drv = Driver(sim)
    writer, reader = ProcessRef.client(0), ProcessRef.client(1)

    def deliver_and_run(m):
        drv.run_proc(drv.deliver(m.msg_id))

    # The writer runs up to its commit broadcast.
    drv.run_proc(writer)
    while not drv.inflight(lambda m: m.payload["kind"] == "commit"):
        for m in drv.inflight(lambda m: m.txn == "w"):
            deliver_and_run(m)
    for node in (1, 2):
        proc = drv.deliver_where(lambda m: m.payload["kind"] == "commit" and m.dst == ("node", node))
        while not any(s.proc == proc and s.kind == "prim" and s.obj == "X.lockS" for s in sim.steps):
            drv.step(proc)  # stop right after the lockS CAS

    # The reader learns Y, then reads X on the two locked replicas first.
    drv.run_proc(reader)
    for m in drv.inflight(lambda m: m.payload["kind"] == "read"):
        deliver_and_run(m)
    for m in drv.inflight(lambda m: m.payload["kind"] == "readReply"):
        deliver_and_run(m)
    for m in drv.inflight(lambda m: m.payload["kind"] == "read" and m.dst[1] in (1, 2)):
        deliver_and_run(m)
    refusals = drv.inflight(lambda m: m.payload["kind"] == "readReply")
    assert [m.payload["body"]["vote"] for m in refusals] == ["abort", "abort"]
    for m in refusals:
        deliver_and_run(m)
    assert sim.procs[reader].handler is None, "the reader decided on the second refusal"
    drv.drain_fair()

    trace = sim.result().trace
    assert all(trace.decided(t) for t in ("w", "r"))
    assert trace.coordinator_response("w").outcome == "commit"
    resp = trace.coordinator_response("r")
    assert (resp.outcome, resp.read_set, resp.write_set) == ("abort", [["Y", None]], [])
    assert not any(s.kind == "send" and s.txn == "r" and s.payload["kind"] == "validate"
                   for s in trace.steps)
    verify_trace_invariants(trace)
