from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pdtsim
from pdtsim import run
from pdtsim.checkers import check_serializability
from pdtsim.engine import (
    GRANULARITIES,
    TICK,
    TIMEOUT,
    Decision,
    FairPolicy,
    Message,
    RandomPolicy,
    Schedule,
    SendMsg,
    SimConfig,
    Simulation,
    drive,
    inject_crash,
)
from pdtsim.errors import AlreadyCrashed, PlacementError, ScheduleStuck
from pdtsim import explore as explore_module
from pdtsim.explore import explore, explore_exhaustive, explore_random
from pdtsim.model import NOTE, PRIM, RECV, SEND, ProcessRef, derive_history
from pdtsim.protocols import VARIANTS, AlgorithmVariant, ProtocolEnv
from pdtsim.scenarios import fids_schedule, get_scenario, scenario_fids, scenario_solo
from pdtsim.traceio import dumps_canonical

from conftest import (
    EXPLORED_SCENARIOS,
    Driver,
    admitted_pairs,
    check_message_runs_permute,
    coordinator_effects,
    make_scenario,
    terminal_schedules,
)


def _serialize(trace):
    return "\n".join(dumps_canonical(s.to_json()) for s in trace.steps)


def test_same_seed_same_trace(base):
    scen = scenario_solo(2)
    a = run(scen.config, base, scen, Schedule("random", seed=42))
    b = run(scen.config, base, scen, Schedule("random", seed=42))
    assert _serialize(a.trace) == _serialize(b.trace)
    c = run(scen.config, base, scen, Schedule("random", seed=43))
    assert _serialize(c.trace) != _serialize(a.trace)


def test_scripted_replay_identical(base):
    scen = scenario_fids()
    sched = fids_schedule(base, scen)
    a = run(scen.config, base, scen, sched)
    b = run(scen.config, base, scen, Schedule.from_json(sched.to_json()))
    assert _serialize(a.trace) == _serialize(b.trace)


def test_single_node_readonly_solo(base):
    # One read-only transaction on one node: commits with no non-trivial prims.
    scen = make_scenario({"X": None}, {"X": [0]}, 1, 0, [("t1", 0, ["X"], [])], procs=1)
    res = run(scen.config, base, scen, Schedule("random", seed=1))
    resp = res.trace.coordinator_response("t1")
    assert resp.outcome == "commit"
    assert not any(s.kind == "prim" and s.nontrivial for s in res.trace.steps)


def test_crash_finality(base):
    scen = scenario_solo(1)
    sched = Schedule("scripted", [Decision("crash", node=1)])
    res = run(scen.config, base, scen, sched)
    crash_i = next(s.i for s in res.trace.steps if s.kind == "crash")
    for s in res.trace.steps[crash_i + 1:]:
        assert not (s.proc is not None and s.proc.kind == "node" and s.proc.node == 1)
    assert res.trace.coordinator_response("t1").outcome == "commit"


def test_dropped_messages_get_drop_notes(base):
    scen = scenario_solo(1)
    sched = Schedule("scripted", [Decision("crash", node=0)])
    res = run(scen.config, base, scen, sched)
    drops = [s for s in res.trace.steps if s.kind == "note" and s.tag == "drop"]
    assert drops, "sends to the crashed node must be recorded as drops"
    for s in drops:
        assert s.data["node"] == 0


def test_enabled_choices_after_read_broadcast(base):
    # A client that broadcast READ to its 3 replicas leaves exactly 3
    # delivery choices (the blocked client and idle nodes add nothing).
    scen = scenario_solo(1)
    sim = Simulation(scen.config, base, scen)
    drv = Driver(sim)
    drv.run_proc(ProcessRef.client(0))
    choices = sim.enabled_choices()
    assert len([c for c in choices if c.t == "deliver"]) == 3
    # The blocked client and the idle node processes contribute no steps;
    # the f=1 budget adds one crash choice per live node.
    assert len([c for c in choices if c.t == "step"]) == 0
    assert len([c for c in choices if c.t == "crash"]) == 3


def test_enabled_choices_empty_system(base):
    scen = make_scenario({"X": None}, {"X": [0]}, 1, 0, [], clients=1, procs=1)
    sim = Simulation(scen.config, base, scen)
    assert sim.enabled_choices() == []


def test_enabled_choices_include_crashes_within_budget(base):
    scen = scenario_solo(1)  # f = 1
    sim = Simulation(scen.config, base, scen)
    crashes = [c for c in sim.enabled_choices() if c.t == "crash"]
    assert len(crashes) == 3
    sim.apply(crashes[0])
    assert [c for c in sim.enabled_choices() if c.t == "crash"] == []


def test_schedule_stuck_on_non_enabled_decision(base):
    scen = scenario_solo(1)
    bad = Schedule("scripted", [Decision("deliver", msg=99)])
    with pytest.raises(ScheduleStuck):
        run(scen.config, base, scen, bad)


def _late_read_replies():
    """A k=5, f=2 solo run whose client has responded while two of its
    readReplies were still to come: the Simulation and the two deliveries,
    back to back. The second is not enabled: the first staged a drain."""
    scen = make_scenario({"X": None}, {"X": [0, 1, 2, 3, 4]}, 5, 2, [("t1", 0, ["X"], [])],
                         procs=1)
    sim = Simulation(scen.config, AlgorithmVariant("base"), scen)
    held = (("node", 3), ("node", 4))
    while not sim.all_decided():
        sim.apply(next(d for d in sim.enabled_choices() if d.t != "crash"
                       and not (d.t == "deliver" and sim.inflight[d.msg].dst in held)))
    drv = Driver(sim)
    for msg in drv.inflight(lambda m: m.dst in held):
        drv.deliver(msg.msg_id)
        drv.run_nodes()
    late = drv.inflight(lambda m: m.payload["kind"] == "readReply")
    return sim, [m.deliver for m in late]


def _step_while_waiting(granularity: str = "exact"):
    """A solo run whose client waits for its read replies with no timer, and
    a step decision for that client."""
    scen = scenario_solo(1)
    sim = Simulation(scen.config, AlgorithmVariant("base"), scen, granularity)
    client = ProcessRef.client(0)
    Driver(sim).run_proc(client)
    return sim, [Decision("step", proc=client)]


def _stuck(make) -> str:
    """The ScheduleStuck message of the last decision `make` returns."""
    sim, decisions = make()
    for d in decisions[:-1]:
        sim.apply(d)
    with pytest.raises(ScheduleStuck) as stuck:
        sim.apply(decisions[-1])
    return str(stuck.value)


def test_second_late_read_reply_stops_the_run():
    sim, (first, second) = _late_read_replies()
    sim.apply(first)
    with pytest.raises(ScheduleStuck) as stuck:
        sim.apply(second)
    assert str(stuck.value) == f"client 0 is not waiting for message {second.msg} of t1"


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_step_of_a_waiting_handler_stops_the_run(granularity):
    sim, (step,) = _step_while_waiting(granularity)
    with pytest.raises(ScheduleStuck) as stuck:
        sim.apply(step)
    assert str(stuck.value) == f"process {step.proc.to_json()} has no pending step"


# The engine's guards must still raise with asserts stripped.
_STUCK_REPRO = """
from pdtsim.errors import ScheduleStuck
from test_engine import _late_read_replies, _step_while_waiting
for make in (_late_read_replies, _step_while_waiting):
    sim, decisions = make()
    try:
        for d in decisions:
            sim.apply(d)
    except ScheduleStuck as e:
        print(e)
"""


def test_engine_guards_raise_under_python_O():
    path = os.pathsep.join([str(Path(pdtsim.__file__).parents[1]), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-O", "-c", _STUCK_REPRO],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    expected = [_stuck(_late_read_replies), _stuck(_step_while_waiting)]
    assert out.stdout.splitlines() == expected


@pytest.mark.parametrize("decision, error", [
    (Decision("step", proc=ProcessRef.node_proc(0, 0)), "steps an idle process with nothing to invoke"),
    (Decision("step", proc=ProcessRef.node_proc(9, 0)), "names no process of this run"),
    (Decision("crash", node=7), "names no node of this run"),
], ids=["idle-node-process", "unknown-process", "unknown-node"])
def test_decision_no_enabled_set_holds_changes_nothing(base, decision, error):
    # Each raised an untyped error (IndexError, KeyError, IndexError), the
    # crash after it had logged its step and marked node 7 crashed.
    scen = get_scenario("solo-r1")
    sim = Simulation(scen.config, base, scen)
    for _ in range(2):  # the client's invocation and its first send
        sim.apply(FairPolicy().next_decision(sim))
    assert sim.procs[ProcessRef.node_proc(0, 0)].handler is None
    before = (list(sim.steps), set(sim.crashed), list(sim._idle), sim.tick,
              list(sim.decisions_taken))
    with pytest.raises(ScheduleStuck) as stuck:
        sim.apply(decision)
    assert str(stuck.value) == f"decision {decision.to_json()} {error}"
    assert (sim.steps, sim.crashed, sim._idle, sim.tick, sim.decisions_taken) == before


def test_crash_budget_enforced(base):
    scen = scenario_fids()  # f = 0
    sched = Schedule("scripted", [Decision("crash", node=0)])
    with pytest.raises(ScheduleStuck):
        run(scen.config, base, scen, sched)


def test_inject_crash_unused_node_appends_crash_only(base):
    # The item lives on nodes 0-2 (k=3, f=1); node 3 holds nothing, so
    # crashing it changes nothing but the crash step itself.
    scen = make_scenario(
        {"X": None}, {"X": [0, 1, 2]}, 3, 1, [("t1", 0, ["X"], [("X", "always", "v")])],
        n_nodes=4, procs=1,
    )
    plain = run(scen.config, base, scen, Schedule("fair"))
    sched = inject_crash(Schedule("scripted", []), 3, 0)
    crashed = run(scen.config, base, scen, sched)
    assert crashed.trace.steps[0].kind == "crash"
    rest = [s.to_json() for s in crashed.trace.steps[1:]]
    for rec in rest:
        rec["i"] -= 1
    assert rest == [s.to_json() for s in plain.trace.steps]


def test_inject_crash_rejects_double_crash():
    sched = Schedule("scripted", [Decision("crash", node=2)])
    with pytest.raises(AlreadyCrashed):
        inject_crash(sched, 2, 1)


def test_inject_crash_keeps_no_seed(base):
    """A scripted schedule completes with the fair policy, which reads no
    seed, so a crash injected into random:3 carries none."""
    scen = scenario_solo(1)
    sched = inject_crash(Schedule("random", seed=3), 0, 0)
    assert sched.seed is None and "seed" not in sched.to_json()
    crash_first = Schedule("scripted", [Decision("crash", node=0)])
    assert run(scen.config, base, scen, sched).decisions == \
        run(scen.config, base, scen, crash_first).decisions


def test_schedule_json_holds_only_what_a_run_reads(base):
    """A scripted schedule's JSON and a delivery decision's JSON carry
    exactly the keys a run reads. The old keys `complete` and `pin` load
    like any unknown key, whatever their value."""
    scen = scenario_fids()
    sched = fids_schedule(base, scen)
    doc = sched.to_json()
    assert set(doc) == {"kind", "granularity", "decisions", "tolerant"}
    delivery = next(d for d in doc["decisions"] if d["t"] == "deliver")
    assert set(delivery) == {"t", "msg"}
    assert Schedule.from_json({**doc, "complete": "no"}) == sched
    assert Decision.from_json({**delivery, "pin": "x"}) == Decision("deliver", msg=delivery["msg"])


# The fids/base schedules as written before decisions lost `pin` and
# schedules lost `complete`: the explorer's violation (atomic, with
# "complete": false) and builtin:fids (exact, with a pin on each delivery to
# a node), with the history and witness each gave.
OLD_SCHEDULES = Path(__file__).parent / "data"
FIDS_BASE_HISTORY = "t1:[read(X1)=None;write(X2)='v2']|t2:[read(X2)=None;write(X1)='v1']"
_T1_T2 = {"from": "t1", "item": "X1", "reason": "read-initial", "to": "t2"}
_T2_T1 = {"from": "t2", "item": "X2", "reason": "read-initial", "to": "t1"}


def _without_node_idx(schedule: Schedule) -> list[dict]:
    out = [d.to_json() for d in schedule.decisions]
    for d in out:
        if d.get("proc", {}).get("kind") == "node":
            d["proc"]["idx"] = None
    return out


def test_old_schedule_files_replay(base):
    """The old violation schedule replays to its history and witness, and
    the fair tail adds nothing to it. The old builtin:fids script, its pins
    dropped, is the builder's script up to node-process indexes, and the
    builder's run gives the history and witness it gave. The old script
    itself names the pinned processes, which a pin-free delivery leaves
    idle, so it stops as any script with a step that is not enabled."""
    scen = scenario_fids()

    def replayed(schedule):
        res = run(scen.config, base, scen, schedule)
        history = derive_history(res.trace)
        return res, history.canonical(), check_serializability(history).witness

    violation = Schedule.from_json(
        json.loads((OLD_SCHEDULES / "fids-base-violation-schedule.json").read_text()))
    res, history, witness = replayed(violation)
    assert res.decisions == violation.decisions
    assert history == FIDS_BASE_HISTORY
    assert witness == {"cycle": ["t1", "t2"], "edges": [_T2_T1, _T1_T2]}

    pinned = Schedule.from_json(
        json.loads((OLD_SCHEDULES / "fids-base-builtin-schedule.json").read_text()))
    built = fids_schedule(base, scen)
    assert _without_node_idx(pinned) == _without_node_idx(built)
    assert pinned.decisions != built.decisions
    _, history, witness = replayed(built)
    assert history == FIDS_BASE_HISTORY
    assert witness == {"cycle": ["t1", "t2"], "edges": [_T1_T2, _T2_T1]}
    with pytest.raises(ScheduleStuck, match="is not enabled"):
        run(scen.config, base, scen, pinned)


def test_inject_crash_every_prefix_still_decides(base):
    # k=3, f=1: crashing any single node at any decision point leaves the
    # solo transaction decided (replay with fair completion).
    scen = scenario_solo(1)
    baseline = run(scen.config, base, scen, Schedule("fair"))
    positions = list(range(0, len(baseline.decisions) + 1, 7)) + [len(baseline.decisions)]
    for node in range(3):
        for pos in positions:
            sched = Schedule(
                "scripted", list(baseline.decisions[:pos]) + [Decision("crash", node=node)],
                tolerant=True,
            )
            res = run(scen.config, base, scen, sched)
            assert res.trace.decided("t1"), f"undecided after crash of {node} at {pos}"


def test_synchrony_bound_respected(base):
    scen = scenario_solo(3)
    assert scen.config.gst == 0
    res = run(scen.config, base, scen, Schedule("fair"))
    assert res.max_delivery_lag <= scen.config.delta
    res = run(scen.config, base, scen, Schedule("random", seed=9))
    assert res.max_delivery_lag <= scen.config.delta


def test_config_validation():
    with pytest.raises(PlacementError):
        SimConfig(n_nodes=0)
    with pytest.raises(PlacementError):
        SimConfig(n_nodes=1, delta=0)


def test_placement_maps_only_known_nodes(base):
    with pytest.raises(PlacementError):
        make_scenario({"X": None}, {"X": [5]}, 1, 0, [], n_nodes=2, clients=1)


# --------------------------------------------------------------------------
# Choice enumeration against the scanning reference, and the golden corpus
# --------------------------------------------------------------------------


def _reference_steppable(sim, proc):
    if proc.ref.kind == "node" and proc.ref.node in sim.crashed:
        return False
    h = proc.handler
    if h is not None:
        return h.pending is not None or sim._timer_expired(h)
    if proc.ref.kind != "client" or not proc.queue:
        return False
    return not any(m.dst == ("client", proc.ref.idx) for m in sim.inflight.values())


def _reference_deliverable(sim, msg):
    kind, target = msg.dst
    if kind == "node":
        return target not in sim.crashed and any(
            p.handler is None and not p.queue
            for p in sim.procs.values()
            if p.ref.kind == "node" and p.ref.node == target
        )
    h = sim.procs[ProcessRef.client(target)].handler
    return h is None or (h.waiting is not None and h.txn == msg.txn)


def _reference_choices(sim):
    out = [
        Decision("step", proc=ref)
        for ref in sorted(sim.procs, key=ProcessRef.sort_key)
        if _reference_steppable(sim, sim.procs[ref])
    ]
    out += [
        Decision("deliver", msg=mid)
        for mid in sorted(sim.inflight)
        if _reference_deliverable(sim, sim.inflight[mid])
    ]
    if len(sim.crashed) < sim.scenario.placement.f:
        out += [Decision("crash", node=n) for n in range(sim.config.n_nodes) if n not in sim.crashed]
    return out


def _reference_overdue(sim):
    out = []
    for mid in sorted(sim.inflight):
        msg = sim.inflight[mid]
        deadline = max(msg.sent_tick, sim.config.gst) + sim.config.delta
        if sim.tick >= deadline - 1 and _reference_deliverable(sim, msg):
            out.append(Decision("deliver", msg=mid))
    return out


def _check_enumeration(sim) -> int:
    """Compare the engine's indexed enumeration and counters with the
    scanning reference. Returns how many in-flight messages to a live node
    are not deliverable: every process of that node is busy."""
    choices = sim.enabled_choices()
    assert choices == _reference_choices(sim)
    assert sim.overdue_deliveries() == _reference_overdue(sim)
    for c in range(sim.config.n_clients):
        ref = ProcessRef.client(c)
        fresh = sum(1 for m in sim.inflight.values() if m.dst == ("client", c))
        assert sim.procs[ref].inbound == fresh
    for n in range(sim.config.n_nodes):
        fresh = 0 if n in sim.crashed else sum(
            1 for p in sim.procs.values() if p.ref.node == n and p.handler is None)
        assert sim._idle[n] == fresh
    return sum(1 for m in sim.inflight.values()
               if m.dst[0] == "node" and m.dst[1] not in sim.crashed and m.deliver not in choices)


class _CheckedPolicy:
    """The fair policy (seed None) or RandomPolicy(seed). Before every
    decision it checks the enumeration, and it checks the pick against the
    reference rule: the first overdue delivery if there is one, else the
    enabled steps and deliveries' first entry (fair) or the entry a twin
    random.Random(seed) draws, else a tick while a timer is armed."""

    def __init__(self, seed: int | None = None):
        self.policy = FairPolicy() if seed is None else RandomPolicy(seed)
        self.twin = None if seed is None else random.Random(seed)
        self.checked = 0
        self.busy = 0  # decisions with a message held back by a busy node

    def next_decision(self, sim):
        self.busy += _check_enumeration(sim) > 0
        self.checked += 1
        d = self.policy.next_decision(sim)
        overdue = _reference_overdue(sim)
        ref = [c for c in _reference_choices(sim) if c.t != "crash"]
        if overdue:
            expected = overdue[0]
        elif ref:
            expected = ref[0] if self.twin is None else ref[self.twin.randrange(len(ref))]
        else:
            expected = TICK if sim.has_armed_timer() else None
        assert d == expected
        return d


def _checked_drive(sim, seed: int | None = None) -> _CheckedPolicy:
    policy = _CheckedPolicy(seed)
    drive(sim, policy)
    assert policy.checked > 0
    return policy


def _checked_run(scen, variant, seed: int | None = None) -> _CheckedPolicy:
    return _checked_drive(Simulation(scen.config, variant, scen), seed)


def _backlog_scenario():
    # Two transactions per client, so a client's next invocation waits on
    # the stragglers of its previous one.
    return make_scenario(
        {"X": None, "Y": None}, {"X": [0, 1, 2], "Y": [0, 1, 2]}, 3, 1,
        [("a1", 0, ["X"], [("Y", "always", "a")]), ("a2", 0, ["Y"], []),
         ("b1", 1, ["Y"], [("X", "always", "b")]), ("b2", 1, ["X"], [("Y", "always", "c")])],
        procs=2,
    )


def _busy_scenario():
    # Five nodes with two processes each and twelve transactions from four
    # clients over overlapping replica groups: a node's processes are often
    # all busy while more messages to it are in flight.
    groups = {f"I{n}": [n, (n + 1) % 5, (n + 2) % 5] for n in range(5)}
    txns = [(f"t{i}", i % 4, [f"I{i % 5}", f"I{(i + 2) % 5}"],
             [(f"I{(i + 1) % 5}", "always", f"v{i}"), (f"I{(i + 3) % 5}", "always", f"w{i}")])
            for i in range(12)]
    return make_scenario({item: None for item in groups}, groups, 3, 1, txns, procs=2)


def test_enabled_choices_match_scanning_reference():
    for scen, variant in admitted_pairs():
        for seed in (None, 0, 1):
            _checked_run(scen, variant, seed)
    scen = _backlog_scenario()
    for tag in VARIANTS:
        variant = AlgorithmVariant(tag)
        for seed in range(4):
            _checked_run(scen, variant, seed)
        # Half the fair run, then a clone. The run crashes node 2 and
        # completes under seed 7; after it, the clone completes under seed 3.
        fair = run(scen.config, variant, scen, Schedule("fair"))
        sim = Simulation(scen.config, variant, scen)
        for d in fair.decisions[:len(fair.decisions) // 2]:
            _check_enumeration(sim)
            sim.apply(d)
        twin = sim.clone()
        _check_enumeration(sim)
        sim.apply(Decision("crash", node=2))
        _checked_drive(sim, 7)
        assert any(s.kind == "crash" for s in sim.steps)
        _checked_drive(twin, 3)
        assert not twin.crashed
    # A no-seamless run whose coordinator times out on the crashed replica,
    # and a clone of it taken while the timer is armed.
    scen = scenario_solo(1)
    sim = Simulation(scen.config, AlgorithmVariant("no-seamless"), scen)
    sim.apply(Decision("crash", node=2))
    while not sim.has_armed_timer():
        _check_enumeration(sim)
        sim.apply(FairPolicy().next_decision(sim))
    twin = sim.clone()
    for s in (sim, twin):
        _checked_drive(s, None if s is sim else 5)
        assert any(step.kind == NOTE and step.tag == "timeout" for step in s.steps)


@pytest.mark.parametrize("seed", range(5))
def test_enabled_choices_match_scanning_reference_on_busy_nodes(seed):
    policy = _checked_run(_busy_scenario(), AlgorithmVariant("base"), seed)
    assert policy.busy > 0


# SHA-256 over the canonical step JSON of the corpus below, taken before the
# engine indexed its processes and messages; any engine change must keep it.
GOLDEN_CORPUS_SHA256 = "b9e8eda16b301aaba5d1d4f1a254867e772cc7102d40b6b5950218099e74afc4"


def test_golden_trace_corpus():
    """Every builtin scenario x variant under the fair policy, random seeds
    0-2 at both granularities, and the fair script with the last node
    crashing halfway: 352 runs whose traces must not change by one byte."""
    digest = hashlib.sha256()
    runs = 0
    for scen, variant in admitted_pairs():
        fair = run(scen.config, variant, scen, Schedule("fair"))
        schedules = [
            Schedule("random", seed=seed, granularity=granularity)
            for seed in range(3)
            for granularity in ("exact", "atomic")
        ]
        schedules.append(inject_crash(
            Schedule("scripted", list(fair.decisions)),
            scen.config.n_nodes - 1, len(fair.decisions) // 2,
        ))
        for res in [fair] + [run(scen.config, variant, scen, s) for s in schedules]:
            runs += 1
            for s in res.trace.steps:
                digest.update(dumps_canonical(s.to_json()).encode() + b"\n")
    assert runs == 352
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256


# --------------------------------------------------------------------------
# Clones: a clone continues exactly as the original would
# --------------------------------------------------------------------------


def _memory(sim):
    return {i: m.snapshot() for i, m in sim.memories.items()}


def _assert_clones_continue(scen, variant, schedule, every):
    """Replay the schedule's run decision by decision; at every `every`-th
    decision, clone, drive the clone with the remaining decisions and compare
    it with the uninterrupted run. Returns how many clones were taken with a
    live handler resumed by TIMEOUT, and with a straggler handler."""
    ref = run(scen.config, variant, scen, schedule)
    want = _serialize(ref.trace)
    sim = Simulation(scen.config, variant, scen, granularity=schedule.granularity)
    timeouts = stragglers = 0
    for i, d in enumerate(ref.decisions):
        if i % every == 0:
            handlers = [p.handler for p in sim.procs.values() if p.handler is not None]
            timeouts += any(any(v is TIMEOUT for v in h.sent) for h in handlers)
            stragglers += any(h.gen is None for h in handlers)
            clone = sim.clone()
            steps, memory, inflight = list(sim.steps), _memory(sim), dict(sim.inflight)
            for rest in ref.decisions[i:]:
                clone.apply(rest)
            clone.finish()
            assert _serialize(clone.result().trace) == want
            assert _memory(clone) == ref.final_memory
            # Advancing the clone left the original where it was.
            assert sim.steps == steps and _memory(sim) == memory and sim.inflight == inflight
        sim.apply(d)
    sim.finish()
    assert _serialize(sim.result().trace) == want
    return timeouts, stragglers


def test_clone_continues_identically():
    for scen, variant in admitted_pairs():
        for granularity in ("exact", "atomic"):
            _assert_clones_continue(scen, variant, Schedule("random", seed=3, granularity=granularity), 7)
    # A crash mid-run: handlers closed, deliveries to the crashed node dropped.
    scen, variant = _backlog_scenario(), AlgorithmVariant("base")
    fair = run(scen.config, variant, scen, Schedule("fair"))
    _assert_clones_continue(scen, variant, inject_crash(
        Schedule("scripted", list(fair.decisions)), 2, len(fair.decisions) // 2), 3)
    # no-seamless on rfids with node 0 down from the start: validation times
    # out into the fallback, and late replies reach idle clients.
    scen, variant = get_scenario("rfids"), AlgorithmVariant("no-seamless")
    crashed = Schedule("scripted", [Decision("crash", node=0)], tolerant=True)
    timeouts, stragglers = _assert_clones_continue(scen, variant, crashed, 3)
    assert timeouts > 0 and stragglers > 0


# --------------------------------------------------------------------------
# Golden explorations: the explorer's output, and the order of its schedules
# --------------------------------------------------------------------------

# Taken when schedules lost `complete` and decisions lost `pin`; the search
# and its terminals were otherwise as when sleep sets first joined the
# visited-state cache.
GOLDEN_SCHEDULE_ORDER_SHA256 = "237f55bb049fee29a4a70542acfde6edddc31b963566f8c2c807bb5721a76cf5"
# Taken when a coordinator's key stopped holding the order of its replies:
# within 300 runs fids-replicated/no-fast then reaches 3 histories, not 2.
GOLDEN_EXPLORATION_SHA256 = "f909e31c40f82db51866d51c54a9cf150b4eab831a2ec6c125b43885fb4ac614"
GOLDEN_VIOLATION_EXPLORATION_SHA256 = "60aee945754962b87d822045daa998e5a8907ef01e261c3a0dad2f4e66fb3033"
GOLDEN_MATRIX_JSON_SHA256 = "672abb271a1cba0a1fad954b42551d2fd895af57b0bc7c6215fe63542f4f2b7e"
# Taken when the search counts moved into the result's "search" object, which
# the exploration pins leave out.
GOLDEN_RANDOM_EXPLORATION_SHA256 = "b53c9286235863fe28c21b5883645104073c1e5ec4a199d3bc3d7aac2fd27f5d"
# Taken before the explorer backtracked from snapshots, when every schedule
# replayed its prefix from the initial state.
GOLDEN_MATRIX_MARKDOWN_SHA256 = "823017ac517f5ab042b4acb78cec11de726cb5bf7f28c85ab1a1379af4598519"


@pytest.fixture(scope="module")
def golden_explorations():
    """Exhaustive exploration bounded at 300 runs of every admitted
    variant on fids, fids-replicated and rfids."""
    return [
        (scen, variant, explore(scen, variant, mode="exhaustive", max_schedules=300))
        for scen, variant in admitted_pairs()
        if scen.name in EXPLORED_SCENARIOS
    ]


@pytest.fixture(scope="module")
def violation_exploration():
    """fids/base explored exhaustively with a 4,000-run bound: the search
    completes at 709 runs, with one violating history."""
    fids, base = get_scenario("fids"), AlgorithmVariant("base")
    return fids, base, explore(fids, base, mode="exhaustive", max_schedules=4000)


def _space_json(res, schedules: bool = True) -> str:
    """The result JSON less its "search" counts, which measure the search
    rather than the explored space. With schedules=False, less each
    violation's schedule too: the first violating run in DFS order, which
    also moves with the search."""
    out = res.to_json()
    del out["search"]
    if not schedules:
        for v in out["violations"]:
            del v["schedule"]
    return dumps_canonical(out)


def test_golden_exploration_corpus(golden_explorations, monkeypatch):
    """The golden explorations' result JSON, and for fids/base the sequence
    of terminal schedules, must not change by one byte."""
    digest = hashlib.sha256()
    for _, _, res in golden_explorations:
        digest.update(_space_json(res).encode() + b"\n")
    assert len(golden_explorations) == 14
    assert digest.hexdigest() == GOLDEN_EXPLORATION_SHA256

    terminals = terminal_schedules(monkeypatch)
    explore_exhaustive(AlgorithmVariant("base"), get_scenario("fids"), bound=300)
    order = hashlib.sha256()
    for _, schedule in terminals:
        order.update(dumps_canonical(schedule.to_json()).encode() + b"\n")
    assert order.hexdigest() == GOLDEN_SCHEDULE_ORDER_SHA256


def test_golden_violation_exploration(violation_exploration):
    """The violating history with its witness and schedule, byte for byte."""
    _, _, res = violation_exploration
    assert len(res.violations) == 1
    digest = hashlib.sha256(_space_json(res).encode()).hexdigest()
    assert digest == GOLDEN_VIOLATION_EXPLORATION_SHA256


def test_exploration_json_is_a_fresh_value(violation_exploration):
    _, _, res = violation_exploration
    before = res.to_json()
    out = res.to_json()
    out["violations"][0]["schedule"].clear()
    out["terminalHistories"].clear()
    assert res.to_json() == before and res.violations[0]["schedule"]


def test_golden_random_exploration():
    """Random mode's result JSON, 50 samples from seed 3, for every admitted
    variant on fids, fids-replicated and rfids."""
    digest, pairs = hashlib.sha256(), 0
    for scen, variant in admitted_pairs():
        if scen.name in EXPLORED_SCENARIOS:
            res = explore(scen, variant, mode="random", max_schedules=50, seed=3)
            digest.update(_space_json(res).encode() + b"\n")
            pairs += 1
    assert pairs == 14
    assert digest.hexdigest() == GOLDEN_RANDOM_EXPLORATION_SHA256


def test_violation_schedules_replay(golden_explorations, violation_exploration):
    """A reported violation's schedule is its whole run, fair tail included:
    engine.run replays it to the violation's history and leaves nothing in
    flight and no choice enabled. Of the golden explorations, only fids/base
    reports a violation within 300 runs; its complete search reports the
    same one violating history."""
    explorations = golden_explorations + [violation_exploration]
    replayed = 0
    for scen, variant, res in explorations:
        for v in res.violations:
            schedule = Schedule.from_json(v["schedule"])
            result = run(scen.config, variant, scen, schedule)
            assert derive_history(result.trace).canonical() == v["history"]
            steps = result.trace.steps
            sent = {s.msg_id for s in steps if s.kind == SEND}
            received = {s.msg_id for s in steps if s.kind == RECV}
            dropped = {s.data["msgId"] for s in steps if s.kind == NOTE and s.tag == "drop"}
            assert sent == received | dropped
            # The fair policy finds nothing to add after the script.
            assert result.decisions == schedule.decisions
            replayed += 1
    assert replayed == 2


def test_exploration_stops_runs_without_the_fair_tail(monkeypatch):
    """Only a first-seen violation drives the fair tail, and fids/no-fast
    has none in its whole space."""
    calls = 0
    next_decision = FairPolicy.next_decision

    def counted(self, sim):
        nonlocal calls
        calls += 1
        return next_decision(self, sim)

    monkeypatch.setattr(FairPolicy, "next_decision", counted)
    scen = get_scenario("fids")
    res = explore_exhaustive(AlgorithmVariant("no-fast"), scen)
    assert res.complete and not res.violations
    assert calls == 0


# --------------------------------------------------------------------------
# The stateful search: complete on fids, whatever the frontier order
# --------------------------------------------------------------------------

# Distinct frontier states of each complete fids search.
FIDS_STATES = {"base": 1064, "no-fast": 237, "weak-ir": 1819, "no-ddap": 1819}


@pytest.fixture(scope="module")
def complete_fids_searches():
    """The exhaustive search of fids, at the default run bound, for every
    variant that runs on fids."""
    fids = get_scenario("fids")
    return {tag: explore_exhaustive(AlgorithmVariant(tag), fids) for tag in FIDS_STATES}


def _violating(res) -> set[str]:
    return {v["history"] for v in res.violations}


def test_complete_search_is_independent_of_frontier_order(complete_fids_searches, monkeypatch):
    """Each state is expanded once, so the order of a frontier's choices
    decides only which path reaches a state first: reversing it gives the
    same states and a result JSON that differs only in the search counts and
    the violations' schedules."""
    ordered = explore_module._ordered
    monkeypatch.setattr(explore_module, "_ordered", lambda choices: ordered(choices)[::-1])
    fids = get_scenario("fids")
    for tag, res in complete_fids_searches.items():
        reversed_res = explore_exhaustive(AlgorithmVariant(tag), fids)
        assert res.complete and reversed_res.complete, tag
        assert res.states == reversed_res.states == FIDS_STATES[tag], tag
        assert _space_json(reversed_res, schedules=False) == _space_json(res, schedules=False), tag
    assert len(complete_fids_searches["base"].violations) == 1


def test_complete_search_covers_random_sampling(complete_fids_searches):
    """Every history that 1,000 random samples reach, and every violation
    among them, the complete search reaches too."""
    fids = get_scenario("fids")
    for tag, res in complete_fids_searches.items():
        sampled = explore_random(AlgorithmVariant(tag), fids, n=1000)
        assert set(sampled.terminal_histories) <= set(res.terminal_histories), tag
        assert _violating(sampled) <= _violating(res), tag


# The facts of every complete space whose search takes at most 0.5 s: the
# sha256 of its result JSON less the search counts and the violations'
# schedules. Taken while a coordinator's key still held its replies in the
# order they arrived; the order-free key reaches the same histories and
# violations with fewer states.
COMPLETE_SPACE_FACTS = {
    ("fids", "base"): "47e7e84056d54d98ca0cf41c5ab3f366509de18c3175139bc14f333ad1421c30",
    ("fids", "no-fast"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids", "weak-ir"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids", "no-ddap"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids-replicated", "base"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids-replicated", "weak-ir"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids-replicated", "no-seamless"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("fids-replicated", "no-ddap"): "7cd357c4d30a3a8f497bb6aaa356e4473bb7473eb3fa6ce15f55ce50d51f8f9e",
    ("solo-r0", "base"): "c851e2b1ea0625d0cd0e352b75887c3f2ba9f0061a728cb77405831553822086",
    ("solo-r0", "no-fast"): "c851e2b1ea0625d0cd0e352b75887c3f2ba9f0061a728cb77405831553822086",
    ("solo-r0", "weak-ir"): "c851e2b1ea0625d0cd0e352b75887c3f2ba9f0061a728cb77405831553822086",
    ("solo-r0", "no-seamless"): "360a7b9086331e1c0e8d171af25645c868d406f9f9a61656e4279bd3d308cfba",
    ("solo-r0", "no-ddap"): "c851e2b1ea0625d0cd0e352b75887c3f2ba9f0061a728cb77405831553822086",
}


def test_complete_space_facts(complete_fids_searches):
    """Each complete space's terminal histories and violations, whatever
    the reductions that reach them."""
    for (name, tag), want in COMPLETE_SPACE_FACTS.items():
        if name == "fids":
            res = complete_fids_searches[tag]
        else:
            res = explore_exhaustive(AlgorithmVariant(tag), get_scenario(name))
        assert res.complete, (name, tag)
        digest = hashlib.sha256(_space_json(res, schedules=False).encode()).hexdigest()
        assert digest == want, (name, tag)


def test_stored_state_tries_only_the_choices_that_slept_there():
    """A run that meets a stored state stops there if it carries every
    choice that slept when the state was stored. Otherwise it tries only the
    stored sleeping choices it does not carry, and the state's entry shrinks
    to the choices asleep in both."""
    scen, variant = get_scenario("fids"), AlgorithmVariant("base")
    sim = Simulation(scen.config, variant, scen, granularity="atomic")
    fair = FairPolicy()
    while len(explore_module._next_choices(sim)) < 3:
        sim.apply(fair.next_decision(sim))
    choices = explore_module._ordered(explore_module._next_choices(sim))
    keys = [sim.choice_key(c) for c in choices]
    assert len(set(keys)) == len(keys) and None not in keys
    fingerprint = sim.fingerprint()

    def meet(stored, sleep):
        stack, seen = [], {fingerprint: frozenset(stored)}
        descent = explore_module._Descent(stack, seen, frozenset(sleep))
        return descent.next_decision(sim.clone()), descent.stopped, stack, seen[fingerprint]

    assert meet(keys[:2], keys)[:3] == (None, "revisit", [])
    decision, stopped, stack, entry = meet(keys[:2], keys[1:])
    assert (decision, stopped, stack, entry) == (choices[0], None, [], frozenset(keys[1:2]))
    decision, stopped, stack, entry = meet(keys, [])
    assert decision == choices[0] and stopped is None and entry == frozenset()
    assert len(stack) == len(choices) - 1


def test_dropped_clone_recreates_no_generator(monkeypatch):
    """A clone re-creates a live handler's generator only when it first
    resumes that handler: a dropped clone re-creates none, and one step
    re-creates the stepped handler's alone."""
    made = []
    for name in ("coordinator", "node_handler"):
        factory = getattr(ProtocolEnv, name)
        monkeypatch.setattr(ProtocolEnv, name,
                            lambda self, *args, _factory=factory: made.append(args) or _factory(self, *args))
    scen, variant = get_scenario("fids"), AlgorithmVariant("base")
    sim = Simulation(scen.config, variant, scen, granularity="atomic")
    fair = FairPolicy()
    # Until both coordinators and a node handler are live.
    while sum(p.handler is not None for p in sim.procs.values()) < 3:
        sim.apply(fair.next_decision(sim))
    live = [p for p in sim.procs.values() if p.handler is not None and p.handler.pending is not None]
    assert live
    before = len(made)
    sim.clone()
    assert len(made) == before
    clone = sim.clone()
    clone.apply(live[0].step)
    assert len(made) == before + 1
    # The re-created handler continues as the original does.
    sim.apply(live[0].step)
    assert _serialize(clone.result().trace) == _serialize(sim.result().trace)


def test_fingerprint_keys_the_canonical_state():
    """States that differ only in message ids, or in which process of a node
    runs a handler, share a fingerprint. A past response or a value a live
    handler received, which the rest of the state need not show, changes it."""
    scen, variant = get_scenario("fids"), AlgorithmVariant("base")
    c0, c1 = ProcessRef.client(0), ProcessRef.client(1)

    def invoked(order):
        sim = Simulation(scen.config, variant, scen, granularity="atomic")
        for ref in order:
            sim.apply(Decision("step", proc=ref))  # the invocation
            sim.apply(Decision("step", proc=ref))  # its read request
        return sim

    a, b = invoked([c0, c1]), invoked([c1, c0])
    read_a, read_b = ([m for m in sim.inflight.values() if m.txn == "t1"] for sim in (a, b))
    assert len(read_a) == len(read_b) == 1 and read_a[0].msg_id != read_b[0].msg_id
    assert a.fingerprint() == b.fingerprint()

    # The delivery takes node 0's process 0; a clone with the two processes'
    # handlers swapped runs the read on process 1.
    delivered = a.clone()
    delivered.apply(read_a[0].deliver)
    swapped = delivered.clone()
    p0, p1 = swapped._node_procs[0]
    p0.handler, p1.handler = p1.handler, p0.handler
    assert delivered.fingerprint() == swapped.fingerprint() != a.fingerprint()
    delivered.apply(Decision("step", proc=ProcessRef.node_proc(0, 0)))  # read and reply
    swapped.apply(Decision("step", proc=ProcessRef.node_proc(0, 1)))
    assert delivered.fingerprint() == swapped.fingerprint()

    sim = Simulation(scen.config, variant, scen, granularity="atomic")
    fair = FairPolicy()
    while not sim.responses:
        sim.apply(fair.next_decision(sim))
    assert not sim.all_decided()
    key = sim.fingerprint()
    changed = sim.clone()
    old = changed.responses[0]
    changed.responses[0] = replace(old, fields={**old.fields, "readSet": [["X1", "other"]]})
    assert changed.fingerprint() != key
    changed = sim.clone()
    handler = next(p.handler for p in changed.procs.values() if p.handler and p.handler.sent)
    handler.sent[0] = "other"
    assert changed.fingerprint() != key
    assert sim.clone().fingerprint() == key


def test_fingerprint_ignores_timer_ages():
    """A timer's age is not in the state, since the explorer fires a timer
    only when nothing else is enabled; whether a timer is armed is."""
    scen, variant = get_scenario("fids-replicated"), AlgorithmVariant("no-seamless")
    sim = Simulation(scen.config, variant, scen, granularity="atomic")
    fair = FairPolicy()
    while not sim.has_armed_timer():
        sim.apply(fair.next_decision(sim))
    key = sim.fingerprint()
    older = sim.clone()
    for _ in range(3):
        older.apply(Decision("tick"))
    assert older.fingerprint() == key
    unarmed = sim.clone()
    (timer,) = unarmed.armed_timers()
    handler = unarmed.procs[timer.proc].handler
    handler.waiting = replace(handler.waiting, timeout=None)
    assert unarmed.fingerprint() != key


def _replies_delivered(order) -> Simulation:
    """fids-replicated at atomic granularity: t1 invokes and sends its reads
    of X1, nodes 0 and 1 answer, and their replies reach t1 in `order`. The
    second one meets t1's quorum, so the two form one run of receives."""
    scen, variant = get_scenario("fids-replicated"), AlgorithmVariant("base")
    sim = Simulation(scen.config, variant, scen, granularity="atomic")
    drv = Driver(sim)
    t1 = ProcessRef.client(0)
    drv.step(t1)  # the invocation
    drv.step(t1)  # the read requests
    for node in (0, 1):
        drv.run_proc(drv.deliver_where(lambda m, node=node: m.dst == ("node", node)))
    replies = {m.src.node: m for m in drv.inflight(lambda m: m.dst == ("client", 0))}
    for node in order:
        drv.deliver(replies[node].msg_id)
    return sim


def test_coordinator_key_ignores_the_order_of_a_run_of_replies():
    """A coordinator's key sorts the replies it received between two of its
    own effects, so both orders of t1's two read replies give one state, one
    choice key for t1's next step, and the same state after it."""
    a, b = _replies_delivered((0, 1)), _replies_delivered((1, 0))
    t1 = a.procs[ProcessRef.client(0)].step
    assert a.steps[-1].msg_id != b.steps[-1].msg_id
    assert a.fingerprint() == b.fingerprint()
    assert a.choice_key(t1) == b.choice_key(t1) is not None
    a.apply(t1)
    b.apply(t1)  # the value-learned note, then the validate requests
    assert a.fingerprint() == b.fingerprint()


def _reply_moved_across_the_note(sent: list, i: int) -> None:
    sent[i + 1], sent[i + 2] = sent[i + 2], sent[i + 1]


def _reply_payload_changed(sent: list, i: int) -> None:
    m = sent[i + 1]
    sent[i + 1] = replace(m, payload={**m.payload, "body": {**m.payload["body"], "seq": 7}}, key=None)


@pytest.mark.parametrize("edit", [_reply_moved_across_the_note, _reply_payload_changed])
def test_coordinator_key_keeps_each_run_in_place_and_its_replies(edit):
    """The key keeps a run of replies between the values that bound it, and
    each reply's content: moving a reply across the note that follows its
    run, or changing its payload, changes the state."""
    sim = _replies_delivered((0, 1))
    t1 = ProcessRef.client(0)
    sim.apply(Decision("step", proc=t1))  # the note, then the validate requests
    sent = sim.procs[t1].handler.sent
    i = next(i for i, v in enumerate(sent) if v is not None)
    assert [v.payload["kind"] for v in sent[i:i + 2]] == ["readReply", "readReply"]
    assert sent[i + 2] is None and len(sent) > i + 3
    edited = sim.clone()
    edit(edited.procs[t1].handler.sent, i)
    assert edited.fingerprint() != sim.fingerprint()


def _recorded_coordinators(scen, variant, seed: int, crash: int | None = None) -> list:
    """(program, sent values) of every coordinator of one random exact run,
    which starts with a crash of node `crash` when one is given."""
    sim = Simulation(scen.config, variant, scen)
    if crash is not None:
        sim.apply(Decision("crash", node=crash))
    policy, coordinators = RandomPolicy(seed), {}
    while (d := policy.next_decision(sim)) is not None:
        sim.apply(d)
        for p in sim._clients:
            h = p.handler
            if h is not None and h.coordinator:
                # The handler appends to `sent` in place until it returns.
                coordinators.setdefault(h.txn, (h.origin, h.sent))
    return list(coordinators.values())


def test_coordinator_ignores_the_order_within_a_run_of_replies():
    """What the coordinator key relies on: re-created from its sent values
    with each run of received messages shuffled, a coordinator yields what
    the recorded one yielded for the rest of its run. Coordinators of random
    runs of fids-replicated under every variant, with abort votes; of
    rfids/base, whose 2-of-3 quorums leave a reply that comes in during the
    next round; and of rfids/no-seamless with node 0 crashed, whose
    validation times out. Read refusals, which random runs do not reach,
    are checked where test_protocols scripts them."""
    spaces = [("fids-replicated", tag, None) for tag in VARIANTS]
    spaces += [("rfids", "base", None), ("rfids", "no-seamless", 0)]
    rng = random.Random(11)
    moved = timeouts = stragglers = aborts = 0
    for name, tag, crash in spaces:
        scen, variant = get_scenario(name), AlgorithmVariant(tag)
        env = ProtocolEnv(variant, scen, scen.config)
        for seed in range(4):
            for prog, sent in _recorded_coordinators(scen, variant, seed, crash):
                moved += check_message_runs_permute(env, prog, sent, rng)
                timeouts += any(v is TIMEOUT for v in sent)
                expected = None  # the reply kind of the latest request
                for value, effect in zip(sent, coordinator_effects(env, prog, sent)):
                    if type(value) is Message:
                        stragglers += value.payload["kind"] != expected
                        aborts += value.payload["body"]["vote"] == "abort"
                    if isinstance(effect, SendMsg):
                        expected = effect.payload["kind"] + "Reply"
    assert moved > 100 and timeouts > 0 and stragglers > 0 and aborts > 0


def test_timeout_fallback_terminals_replay(monkeypatch):
    """On solo-r1 a crash leaves no-seamless validation waiting for the
    crashed node, so the coordinator's timer fires once nothing else is
    enabled, and the run takes the restart fallback. Such a terminal's
    schedule holds the ticks up to the timer's expiry, and it replays
    through engine.run to the terminal's history."""
    terminals = terminal_schedules(monkeypatch)
    scen, variant = get_scenario("solo-r1"), AlgorithmVariant("no-seamless")
    res = explore_exhaustive(variant, scen, bound=200)
    assert len(terminals) == res.terminals
    fallbacks = 0
    for history, schedule in terminals:
        trace = run(scen.config, variant, scen, schedule).trace
        assert derive_history(trace).canonical() == history
        timeouts = [s for s in trace.steps if s.kind == NOTE and s.tag == "timeout"]
        restarts = [s for s in trace.steps if s.kind == SEND and s.payload["kind"] == "restart"]
        if timeouts and restarts:
            assert any(d.t == "tick" for d in schedule.decisions)
            fallbacks += 1
    assert fallbacks > 0


def test_invisible_atomic_steps_run_no_primitive():
    """step_is_invisible reads only a section's first effect, so the
    explorer's eager firing is sound only if an atomic section that starts
    with a send, a note or a response runs no primitive. Random atomic runs
    of every builtin scenario x admitted variant, seeds 0-4."""
    invisible = 0
    for scen, variant in admitted_pairs():
        for seed in range(5):
            sim = Simulation(scen.config, variant, scen, granularity="atomic")
            policy = RandomPolicy(seed)
            while (d := policy.next_decision(sim)) is not None:
                checked = d.t == "step" and sim.step_is_invisible(d.proc)
                start = len(sim.steps)
                sim.apply(d)
                if checked:
                    assert all(s.kind != PRIM for s in sim.steps[start:]), (scen.name, variant.tag, seed)
                    invisible += 1
    assert invisible > 0


def test_golden_matrix_report(matrix_report):
    """`pdtsim matrix`'s JSON and markdown files, byte for byte."""
    assert hashlib.sha256(matrix_report["json_text"].encode()).hexdigest() == GOLDEN_MATRIX_JSON_SHA256
    assert hashlib.sha256(matrix_report["markdown"].encode()).hexdigest() == GOLDEN_MATRIX_MARKDOWN_SHA256
