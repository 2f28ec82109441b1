from __future__ import annotations

import hashlib

import pytest

from pdtsim import run
from pdtsim.engine import (
    TIMEOUT,
    Decision,
    Schedule,
    SimConfig,
    Simulation,
    drive,
    inject_crash,
    make_policy,
)
from pdtsim.errors import AlreadyCrashed, PlacementError, ScheduleStuck
from pdtsim.explore import explore, explore_exhaustive
from pdtsim.model import ProcessRef, txn_depth
from pdtsim.protocols import VARIANTS, AlgorithmVariant
from pdtsim.scenarios import fids_schedule, get_scenario, scenario_fids, scenario_solo
from pdtsim.traceio import dumps_canonical

from conftest import EXPLORED_SCENARIOS, Driver, admitted_pairs, make_scenario


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
    sched = Schedule("scripted", [Decision("crash", node=1)], complete=True)
    res = run(scen.config, base, scen, sched)
    crash_i = next(s.i for s in res.trace.steps if s.kind == "crash")
    for s in res.trace.steps[crash_i + 1:]:
        assert not (s.proc is not None and s.proc.kind == "node" and s.proc.node == 1)
    assert res.trace.coordinator_response("t1").outcome == "commit"


def test_dropped_messages_get_drop_notes(base):
    scen = scenario_solo(1)
    sched = Schedule("scripted", [Decision("crash", node=0)], complete=True)
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
    bad = Schedule("scripted", [Decision("deliver", msg=99)], complete=False)
    with pytest.raises(ScheduleStuck):
        run(scen.config, base, scen, bad)


def test_crash_budget_enforced(base):
    scen = scenario_fids()  # f = 0
    sched = Schedule("scripted", [Decision("crash", node=0)], complete=False)
    with pytest.raises(ScheduleStuck):
        run(scen.config, base, scen, sched)


def test_inject_crash_unused_node_appends_crash_only(base):
    # The item lives on node 0; node 1 holds nothing, so crashing it changes
    # nothing but the crash step itself (and the budget must allow it).
    scen = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0, [("t1", 0, ["X"], [("X", "always", "v")])],
        n_nodes=2, procs=1, crash_budget=1,
    )
    plain = run(scen.config, base, scen, Schedule("fair"))
    sched = inject_crash(Schedule("scripted", []), 1, 0)
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
                tolerant=True, complete=True,
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
    if sim.crashes_used < sim.scenario.crash_budget:
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


class _CheckedPolicy:
    """Wraps a policy; before every decision, compares the engine's indexed
    enumeration with the scanning reference."""

    def __init__(self, policy):
        self.policy = policy
        self.checked = 0

    def next_decision(self, sim):
        assert sim.enabled_choices() == _reference_choices(sim)
        assert sim.overdue_deliveries() == _reference_overdue(sim)
        for c in range(sim.config.n_clients):
            ref = ProcessRef.client(c)
            fresh = sum(1 for m in sim.inflight.values() if m.dst == ("client", c))
            assert sim.procs[ref].inbound == fresh
        self.checked += 1
        return self.policy.next_decision(sim)


def _checked_run(scen, variant, schedule):
    sim = Simulation(scen.config, variant, scen, granularity=schedule.granularity)
    policy = _CheckedPolicy(make_policy(schedule))
    drive(sim, policy)
    assert policy.checked > 0
    return sim.result()


def _backlog_scenario():
    # Two transactions per client, so a client's next invocation waits on
    # the stragglers of its previous one.
    return make_scenario(
        {"X": None, "Y": None}, {"X": [0, 1, 2], "Y": [0, 1, 2]}, 3, 1,
        [("a1", 0, ["X"], [("Y", "always", "a")]), ("a2", 0, ["Y"], []),
         ("b1", 1, ["Y"], [("X", "always", "b")]), ("b2", 1, ["X"], [("Y", "always", "c")])],
        procs=2,
    )


def test_enabled_choices_match_scanning_reference():
    for scen, variant in admitted_pairs():
        for seed in range(2):
            _checked_run(scen, variant, Schedule("random", seed=seed))
    scen = _backlog_scenario()
    for tag in VARIANTS:
        variant = AlgorithmVariant(tag)
        for seed in range(4):
            _checked_run(scen, variant, Schedule("random", seed=seed))
        fair = run(scen.config, variant, scen, Schedule("fair"))
        half = len(fair.decisions) // 2
        crashed = Schedule(
            "scripted", list(fair.decisions[:half]) + [Decision("crash", node=2)],
            tolerant=True, completion_seed=7,
        )
        res = _checked_run(scen, variant, crashed)
        assert any(s.kind == "crash" for s in res.trace.steps)


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

# SHA-256s taken before the explorer backtracked from snapshots, when every
# schedule replayed its prefix from the initial state.
GOLDEN_EXPLORATION_SHA256 = "c5a1c7c71d00c82ab772578e2ce486641d347c935862fbff457ac36012670b1f"
GOLDEN_SCHEDULE_ORDER_SHA256 = "79bad20538f1d9d89adda1b5ad6bf4bde608a9c7cc590197d677c578b9aa6907"
GOLDEN_MATRIX_JSON_SHA256 = "1128472beb4d787ef60fb2c0e25ea47c093339662a7a18b93ba578e5e13f43ce"
GOLDEN_MATRIX_MARKDOWN_SHA256 = "823017ac517f5ab042b4acb78cec11de726cb5bf7f28c85ab1a1379af4598519"


def test_golden_exploration_corpus():
    """Exhaustive exploration bounded at 300 schedules of every admitted
    variant on fids, fids-replicated and rfids: the result JSON, and for
    fids/base the sequence of terminal schedules, must not change by one
    byte."""
    digest = hashlib.sha256()
    runs = 0
    for scen, variant in admitted_pairs():
        if scen.name not in EXPLORED_SCENARIOS:
            continue
        res = explore(scen, variant, mode="exhaustive", max_schedules=300)
        digest.update(dumps_canonical(res.to_json()).encode() + b"\n")
        runs += 1
    assert runs == 14
    assert digest.hexdigest() == GOLDEN_EXPLORATION_SHA256

    scen, order = get_scenario("fids"), hashlib.sha256()
    explore_exhaustive(
        scen.config, AlgorithmVariant("base"), scen, bound=300,
        on_terminal=lambda sched: order.update(dumps_canonical(sched.to_json()).encode() + b"\n"),
    )
    assert order.hexdigest() == GOLDEN_SCHEDULE_ORDER_SHA256


def test_golden_matrix_report(matrix_report):
    """`pdtsim matrix`'s JSON and markdown files, byte for byte."""
    assert hashlib.sha256(matrix_report["json_text"].encode()).hexdigest() == GOLDEN_MATRIX_JSON_SHA256
    assert hashlib.sha256(matrix_report["markdown"].encode()).hexdigest() == GOLDEN_MATRIX_MARKDOWN_SHA256
