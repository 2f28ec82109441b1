"""Causality, depth, and history analysis.

Depth oracle, hand-traced from the protocol structure: the coordinator
invocation is depth 0 and its first sends stay at 0; a node's recv is 1; the
reply recv at the client is 2. Each sequential read round therefore adds two
delays, and the single validation round adds two more, so a base-algorithm
solo run with r reads decides at depth 2r + 2. The two-round variant replaces
validation with lock (+2) and check (+2) rounds: 2r + 6 with a non-empty read
set, and r = 0 skips the check round entirely (depth 4).
"""
from __future__ import annotations

import pytest

from pdtsim import run
from pdtsim.engine import Decision, Schedule, Simulation, inject_crash
from pdtsim.errors import Undecided
from pdtsim.model import (
    ExecutionTrace,
    ProcessRef,
    Step,
    derive_history,
    happened_before,
    handler_of_steps,
    intervals,
    concurrent,
    partial_depth,
    step_depth,
    step_depths,
    txn_depth,
    value_learned_events,
)
from pdtsim.protocols import AlgorithmVariant
from pdtsim.scenarios import scenario_solo
from pdtsim.traceio import read_trace, write_run

from conftest import Driver, make_scenario


@pytest.fixture
def solo_r1_trace(base):
    scen = scenario_solo(1)
    return run(scen.config, base, scen, Schedule("fair")).trace


def _synthetic_trace():
    """Client handler sends at index 1; node handler starts at the recv."""
    c = ProcessRef.client(0)
    n = ProcessRef.node_proc(0, 0)
    steps = [
        Step(0, "invoke", c, "t"),
        Step(1, "send", c, "t", {"msgId": 0, "payload": {"kind": "read", "body": {}}}),
        Step(2, "recv", n, "t", {"msgId": 0, "payload": {"kind": "read", "body": {}}}),
        Step(3, "send", n, "t", {"msgId": 1, "payload": {"kind": "readReply", "body": {}}}),
        Step(4, "response", n, "t", {"outcome": None, "readSet": None, "writeSet": None}),
        Step(5, "recv", c, "t", {"msgId": 1, "payload": {"kind": "readReply", "body": {}}}),
        Step(6, "response", c, "t", {"outcome": "commit", "readSet": [], "writeSet": []}),
    ]
    return ExecutionTrace(steps)


def test_happened_before_clauses():
    trace = _synthetic_trace()
    hb = happened_before(trace)
    assert (1, 2) in hb  # send -> recv
    assert (0, 1) in hb  # program order in the coordinator handler
    assert (2, 3) in hb  # program order in the message handler
    assert (0, 6) in hb  # transitivity through the message chain
    assert (2, 6) in hb
    # Steps of different handlers with no message path stay unrelated.
    assert (3, 5) in hb  # reply send -> reply recv... related via message
    assert (4, 5) not in hb  # node response does not precede the client recv


def test_happened_before_is_a_dag(solo_r1_trace):
    hb = happened_before(solo_r1_trace)
    for (a, b) in hb:
        assert a < b
        assert (b, a) not in hb


def test_step_depths_synthetic():
    trace = _synthetic_trace()
    d = step_depths(trace)
    assert d == [0, 0, 1, 1, 1, 2, 2]
    assert step_depth(trace, 0) == 0
    assert step_depth(trace, 5) == d[3] + 1


def test_solo_depths_by_read_count(base):
    for r in (0, 1, 2, 3):
        scen = scenario_solo(r)
        trace = run(scen.config, base, scen, Schedule("fair")).trace
        assert txn_depth(trace, "t1") == 2 * r + 2


def test_client_learns_at_two_decides_at_four(base, solo_r1_trace):
    depths = step_depths(solo_r1_trace)
    reply_recvs = [
        s for s in solo_r1_trace.steps
        if s.kind == "recv" and s.proc.kind == "client"
        and s.payload["kind"] == "readReply"
    ]
    assert depths[reply_recvs[0].i] == 2
    assert txn_depth(solo_r1_trace, "t1") == 4


def test_no_fast_solo_depth_six():
    scen = scenario_solo(1)
    trace = run(scen.config, AlgorithmVariant("no-fast"), scen, Schedule("fair")).trace
    assert txn_depth(trace, "t1") == 6


def test_txn_depth_requires_decision(base):
    with pytest.raises(Undecided):
        txn_depth(_synthetic_trace(), "missing")


def test_partial_depth_prefixes(base, solo_r1_trace):
    trace = solo_r1_trace
    assert partial_depth(trace, 0, "t1") == 0
    note = next(s for s in trace.steps if s.kind == "note" and s.tag == "valueLearned")
    assert partial_depth(trace, note.i + 1, "t1") == 2
    resp = trace.coordinator_response("t1")
    assert partial_depth(trace, resp.i, "t1") == txn_depth(trace, "t1")


def test_partial_depth_excludes_causal_dead_branches(base):
    # Deliver the commit message and run its handler (depth 5) before the
    # coordinator's response step: those steps never happen-before the
    # response, so the partial depth stays at the decision path's 4.
    scen = scenario_solo(1)
    sim = Simulation(scen.config, base, scen)
    drv = Driver(sim)
    client = ProcessRef.client(0)
    while True:
        # Run everything except the client's final response step.
        from pdtsim.engine import _Response

        h = sim.procs[client].handler
        if h is not None and isinstance(h.pending, _Response):
            break
        stepped = False
        for ref in sorted(sim.procs, key=ProcessRef.sort_key):
            if sim._steppable(sim.procs[ref]):
                drv.step(ref)
                stepped = True
                break
        if not stepped:
            delivers = [c for c in sim.enabled_choices() if c.t == "deliver"]
            assert delivers
            sim.apply(delivers[0])
    # Client's response is pending; deliver commits and run their handlers.
    commits = drv.inflight(lambda m: m.payload["kind"] == "commit")
    for m in commits:
        drv.deliver(m.msg_id)
        drv.run_nodes()
    trace_len = len(sim.steps)
    drv.step(client)  # the response step
    trace = sim.result().trace
    depths = step_depths(trace)
    commit_handler_depths = [
        depths[s.i] for s in trace.steps
        if s.kind == "recv" and s.payload["kind"] == "commit"
    ]
    assert commit_handler_depths and min(commit_handler_depths) == 5
    assert partial_depth(trace, trace_len, "t1") == 4
    assert txn_depth(trace, "t1") == 4


def test_derive_history_solo(base, solo_r1_trace):
    h = derive_history(solo_r1_trace)
    assert h.ops == {"t1": [("read", "X1", None), ("write", "Y", "w")]}
    assert h.initials["X1"] is None


def test_derive_history_excludes_aborts():
    c = ProcessRef.client(0)
    steps = [
        Step(0, "invoke", c, "t"),
        Step(1, "response", c, "t", {"outcome": "abort", "readSet": [["X", None]], "writeSet": []}),
    ]
    assert derive_history(ExecutionTrace(steps)).ops == {}


def test_derive_history_readonly(base):
    scen = make_scenario({"X": None}, {"X": [0]}, 1, 0, [("t1", 0, ["X"], [])], procs=1)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    h = derive_history(trace)
    assert h.ops == {"t1": [("read", "X", None)]}


def test_value_learned_events(base):
    scen = scenario_solo(2)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    events = value_learned_events(trace, "t1")
    assert set(events) == {"X1", "X2"}
    assert partial_depth(trace, events["X1"] + 1, "t1") == 2
    assert partial_depth(trace, events["X2"] + 1, "t1") == 4


def test_value_learned_write_only(base):
    scen = scenario_solo(0)
    trace = run(scen.config, base, scen, Schedule("fair")).trace
    assert value_learned_events(trace, "t1") == {}


def test_handler_spans_never_interleave(base, solo_r1_trace):
    handlers = handler_of_steps(solo_r1_trace)
    per_proc: dict = {}
    for s in solo_r1_trace.steps:
        if s.proc is None:
            continue
        per_proc.setdefault(s.proc, []).append(handlers[s.i])
    for seq in per_proc.values():
        seen = []
        for h in seq:
            if not seen or seen[-1] != h:
                assert h not in seen, "handler resumed after another ran on the process"
                seen.append(h)


def test_intervals_and_concurrency(base):
    scen = make_scenario(
        {"X": None, "Y": None}, {"X": [0], "Y": [0]}, 1, 0,
        [("t1", 0, [], [("X", "always", "a")]),
         ("t2", 1, [], [("Y", "always", "b")])],
    )
    res = run(scen.config, base, scen, Schedule("random", seed=3))
    iv = intervals(res.trace)
    assert set(iv) == {"t1", "t2"}
    for txn, (start, end) in iv.items():
        assert res.trace.steps[start].kind == "invoke"
        assert start < end
    assert concurrent(res.trace, "t1", "t2") == (
        iv["t1"][0] <= iv["t2"][1] and iv["t2"][0] <= iv["t1"][1]
    )


# ---------------------------------------------------------------------------
# TraceIndex cross-validation against fresh scans and the full pair set
# ---------------------------------------------------------------------------


def _ref_depths(trace):
    """Step depths by a fresh scan: handler reconstruction, then depth rules."""
    open_handler, handler, next_id = {}, {}, 0
    for s in trace.steps:
        if s.proc is None:
            continue
        if s.kind == "invoke" or (s.kind == "recv" and s.proc not in open_handler):
            open_handler[s.proc] = next_id
            next_id += 1
        if s.proc in open_handler:
            handler[s.i] = open_handler[s.proc]
        if s.kind == "response":
            del open_handler[s.proc]
    sends = {s.msg_id: s.i for s in trace.steps if s.kind == "send"}
    depths, handler_max = [None] * len(trace.steps), {}
    for s in trace.steps:
        if s.i not in handler:
            continue
        h = handler[s.i]
        d = handler_max.get(h, 0)
        if s.kind == "invoke":
            d = 0
        elif s.kind == "recv":
            d = max(d, (depths[sends[s.msg_id]] or 0) + 1)
        depths[s.i] = d
        handler_max[h] = max(handler_max.get(h, 0), d)
    return depths, handler


def _ref_happened_before(trace):
    """The pair set by a fresh scan: program order plus send->recv, closed by search."""
    _, handler = _ref_depths(trace)
    succ, last = {}, {}
    for s in trace.steps:
        if s.i in handler:
            if handler[s.i] in last:
                succ.setdefault(last[handler[s.i]], []).append(s.i)
            last[handler[s.i]] = s.i
    sends = {s.msg_id: s.i for s in trace.steps if s.kind == "send"}
    for s in trace.steps:
        if s.kind == "recv":
            succ.setdefault(sends[s.msg_id], []).append(s.i)
    pairs = set()
    for a in range(len(trace.steps)):
        stack = list(succ.get(a, ()))
        while stack:
            b = stack.pop()
            if (a, b) not in pairs:
                pairs.add((a, b))
                stack.extend(succ.get(b, ()))
    return pairs


def _ref_response(trace, txn):
    return next((s for s in trace.steps if s.kind == "response" and s.txn == txn
                 and s.proc is not None and s.proc.kind == "client"
                 and s.outcome is not None), None)


def _ref_intervals(trace):
    n = len(trace.steps)
    _, handler = _ref_depths(trace)
    crash_at = {s.fields["node"]: s.i for s in trace.steps if s.kind == "crash"}
    dropped_to = {s.data["msgId"]: s.data["node"] for s in trace.steps
                  if s.kind == "note" and s.tag == "drop"}
    recv_of = {s.msg_id: s.i for s in trace.steps if s.kind == "recv"}
    out = {}
    for txn in dict.fromkeys(s.txn for s in trace.steps if s.txn is not None):
        mine = [s for s in trace.steps if s.txn == txn]
        handlers = {handler[s.i] for s in mine if s.i in handler}
        # A handler belongs to the transaction of its first step.
        handlers = {h for h in handlers
                    if next(s for s in trace.steps if handler.get(s.i) == h).txn == txn}
        resp_of = {handler[s.i]: s.i for s in trace.steps
                   if s.kind == "response" and handler.get(s.i) in handlers}
        end, closed = max(resp_of.values(), default=0), handlers <= set(resp_of)
        for s in mine:
            if s.kind != "send":
                continue
            if s.msg_id in recv_of:
                end = max(end, recv_of[s.msg_id])
            elif s.msg_id in dropped_to:
                end = max(end, crash_at[dropped_to[s.msg_id]], s.i)
            else:
                closed = False
        starts = [s.i for s in mine if s.kind == "invoke"]
        if starts:
            out[txn] = (starts[0], end if closed else n - 1)
    return out


def _cross_validation_traces(tmp_path):
    scen = make_scenario(
        {"X": None, "Y": None}, {"X": [0, 1, 2], "Y": [0, 1, 2]}, 3, 1,
        [("t1", 0, ["X"], [("Y", "allReadsInitial", "y1")]),
         ("t2", 1, ["Y"], [("X", "always", "x2")]),
         ("t3", 2, ["X", "Y"], []),
         ("t4", 0, [], [("X", "always", "x4"), ("Y", "always", "y4")])],
        procs=2,
    )
    out = []
    for tag in ("base", "no-fast", "weak-ir", "no-seamless", "no-ddap"):
        variant = AlgorithmVariant(tag)
        for seed in (1, 2):
            res = run(scen.config, variant, scen, Schedule("random", seed=seed, granularity="exact"))
            out.append((f"{tag}/{seed}", res.trace))
    base = AlgorithmVariant("base")
    res = run(scen.config, base, scen, Schedule("random", seed=3, granularity="exact"))
    crashed = run(scen.config, base, scen, inject_crash(
        Schedule("scripted", list(res.decisions), granularity="exact"), node=2,
        after_step_index=len(res.decisions) // 3))
    assert any(s.kind == "crash" for s in crashed.trace.steps)
    out.append(("crash", crashed.trace))
    write_run(res, tmp_path / "trace.jsonl")
    out.append(("round-trip", read_trace(tmp_path / "trace.jsonl")))
    return out


def test_trace_index_matches_fresh_scans(tmp_path):
    for label, trace in _cross_validation_traces(tmp_path):
        depths, _ = _ref_depths(trace)
        assert step_depths(trace) == depths, label
        iv = _ref_intervals(trace)
        assert intervals(trace) == iv, label
        txns = list(iv)
        for t1 in txns:
            for t2 in txns:
                (s1, e1), (s2, e2) = iv[t1], iv[t2]
                assert concurrent(trace, t1, t2) == (s1 <= e2 and s2 <= e1), (label, t1, t2)
        hb = happened_before(trace)
        assert hb == _ref_happened_before(trace), label
        for txn in trace.txns():
            resp = _ref_response(trace, txn)
            assert trace.coordinator_response(txn) is resp, (label, txn)
            if resp is None:
                continue
            pd = 0
            for length in range(len(trace.steps) + 1):
                if length:
                    s = trace.steps[length - 1]
                    if s.txn == txn and depths[s.i] is not None and (s.i, resp.i) in hb:
                        pd = max(pd, depths[s.i])
                assert partial_depth(trace, length, txn) == pd, (label, txn, length)


def test_dropped_send_interval_ends_at_the_crash():
    # Cut the fair solo run after 85 decisions and crash node 2: the
    # coordinator's last message to node 2, sent well before, is dropped, so
    # t1's interval ends at the crash (step 85), not at that send or at the
    # last handler response (step 84).
    scen = scenario_solo(1)
    base = AlgorithmVariant("base")
    fair = run(scen.config, base, scen, Schedule("fair"))
    sim = Simulation(scen.config, base, scen)
    for d in fair.decisions[:85] + [Decision("crash", node=2)]:
        sim.apply(d)
    sim.finish()
    res = sim.result()
    steps = res.trace.steps
    assert steps[85].kind == "crash"
    dropped = [s.data["msgId"] for s in steps if s.kind == "note" and s.tag == "drop"]
    sends = {s.msg_id: s.i for s in steps if s.kind == "send"}
    assert dropped and all(sends[m] < 84 for m in dropped)
    assert intervals(res.trace) == {"t1": (0, 85)}
