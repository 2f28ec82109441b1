"""Deterministic discrete-event engine.

Handlers are resumable generators that yield one effect per handler step
(primitive op, send, note) or block on WaitRecv; the engine executes effects,
records trace steps, and resolves every nondeterministic choice through a
Schedule. One scheduling decision advances logical time by one tick; delta and
gst are measured in ticks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    AlreadyCrashed,
    PlacementError,
    RunawayRun,
    ScheduleStuck,
)
from .memory import NodeMemory
from .model import (
    CRASH,
    INVOKE,
    NOTE,
    PRIM,
    RECV,
    RESPONSE,
    SEND,
    ExecutionTrace,
    ProcessRef,
    Step,
    TransactionProgram,
)

MAX_DECISIONS = 200_000  # safety valve against non-terminating schedules
ASYNC_GST = 10**9  # effectively "never stabilizes" for finite runs
GRANULARITIES = ("exact", "atomic")


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    procs_per_node: int = 1
    n_clients: int = 1
    delta: int = 64
    gst: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1 or self.procs_per_node < 1 or self.delta < 1 or self.gst < 0:
            raise PlacementError(f"invalid sim config {self!r}")

    def to_json(self) -> dict:
        return {
            "nNodes": self.n_nodes,
            "procsPerNode": self.procs_per_node,
            "nClients": self.n_clients,
            "delta": self.delta,
            "gst": self.gst,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        return SimConfig(d["nNodes"], d["procsPerNode"], d["nClients"], d["delta"], d["gst"], d["seed"])


# --------------------------------------------------------------------------
# Handler effects
# --------------------------------------------------------------------------


@dataclass
class PrimOp:
    obj: str
    op: str  # read | write | cas
    args: list = field(default_factory=list)


@dataclass
class SendMsg:
    dst: tuple  # ("node", node_id) or ("client", client_idx)
    payload: dict


@dataclass
class EmitNote:
    tag: str
    data: dict


@dataclass
class WaitRecv:
    timeout: int | None = None  # ticks from the blocking point


class _Timeout:
    def __repr__(self):
        return "TIMEOUT"


TIMEOUT = _Timeout()


@dataclass
class _Response:
    value: Any  # coordinator outcome dict, or None for message handlers


@dataclass
class Message:
    msg_id: int
    txn: str
    src: ProcessRef
    dst: tuple
    payload: dict
    sent_tick: int
    sent_step: int


# --------------------------------------------------------------------------
# Scheduling decisions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    t: str  # "step" | "deliver" | "crash" | "tick"
    proc: ProcessRef | None = None  # step target
    msg: int | None = None  # deliver target
    pin: int | None = None  # optional node-process index for deliver
    node: int | None = None  # crash target

    def to_json(self) -> dict:
        d: dict[str, Any] = {"t": self.t}
        if self.proc is not None:
            d["proc"] = self.proc.to_json()
        if self.msg is not None:
            d["msg"] = self.msg
        if self.pin is not None:
            d["pin"] = self.pin
        if self.node is not None:
            d["node"] = self.node
        return d

    @staticmethod
    def from_json(d: dict) -> "Decision":
        return Decision(
            d["t"],
            proc=ProcessRef.from_json(d["proc"]) if "proc" in d else None,
            msg=d.get("msg"),
            pin=d.get("pin"),
            node=d.get("node"),
        )


TICK = Decision("tick")


@dataclass
class Schedule:
    """Total control of nondeterminism; replaying the same schedule on the
    same (config, algorithm, scenario) yields a bit-identical trace.

    Kinds: "scripted" replays a recorded decision list (optionally completing
    with the fair policy), "random" is a seeded uniform policy, "fair" is the
    deterministic default policy. A scripted schedule may carry a
    completion_seed to finish with a seeded policy instead of the fair one.
    """

    kind: str  # "scripted" | "random" | "fair"
    decisions: list[Decision] = field(default_factory=list)
    seed: int | None = None
    granularity: str = "exact"  # "exact" | "atomic" (one step runs a handler section)
    tolerant: bool = False  # skip script decisions that are no longer enabled
    complete: bool = True  # finish with a policy after the script ends
    completion_seed: int | None = None  # None -> fair completion

    def to_json(self) -> dict:
        d: dict[str, Any] = {"kind": self.kind, "granularity": self.granularity}
        if self.kind == "scripted":
            d["decisions"] = [x.to_json() for x in self.decisions]
            d["tolerant"] = self.tolerant
            d["complete"] = self.complete
            if self.completion_seed is not None:
                d["completionSeed"] = self.completion_seed
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @staticmethod
    def from_json(d: dict) -> "Schedule":
        return Schedule(
            d["kind"],
            [Decision.from_json(x) for x in d.get("decisions", [])],
            d.get("seed"),
            d.get("granularity", "exact"),
            d.get("tolerant", False),
            d.get("complete", True),
            d.get("completionSeed"),
        )


def inject_crash(schedule: Schedule, node: int, after_step_index: int) -> Schedule:
    """Insert a crash decision at the given position of a scripted schedule.

    The suffix replays tolerantly: delivery decisions targeting the crashed
    node become drops and decisions that no longer apply are skipped.
    """
    if after_step_index < 0:
        raise ValueError("afterStepIndex must be >= 0")
    for d in schedule.decisions[: after_step_index + 1]:
        if d.t == "crash" and d.node == node:
            raise AlreadyCrashed(f"node {node} already crashes in this schedule")
    pos = min(after_step_index, len(schedule.decisions))
    for d in schedule.decisions[pos:]:
        if d.t == "crash" and d.node == node:
            raise AlreadyCrashed(f"node {node} already crashes in this schedule")
    new = list(schedule.decisions)
    new.insert(pos, Decision("crash", node=node))
    return Schedule(
        "scripted",
        new,
        seed=schedule.seed,
        granularity=schedule.granularity,
        tolerant=True,
        complete=True,
    )


# --------------------------------------------------------------------------
# Process / handler bookkeeping
# --------------------------------------------------------------------------


class _Handler:
    __slots__ = ("gen", "txn", "coordinator", "pending", "waiting", "wait_since")

    def __init__(self, gen, txn: str, coordinator: bool):
        self.gen = gen
        self.txn = txn
        self.coordinator = coordinator
        self.pending: Any = None  # effect or _Response awaiting a step decision
        self.waiting: WaitRecv | None = None
        self.wait_since: int = 0


class _Proc:
    __slots__ = ("ref", "handler", "queue")

    def __init__(self, ref: ProcessRef):
        self.ref = ref
        self.handler: _Handler | None = None
        self.queue: list[TransactionProgram] = []  # client transaction backlog


@dataclass
class RunResult:
    trace: ExecutionTrace
    decisions: list[Decision]
    final_memory: dict[int, dict[str, Any]]
    max_delivery_lag: int


class Simulation:
    """One deterministic run. Instances share nothing; construct one per run."""

    def __init__(self, config: SimConfig, variant, scenario, granularity: str = "exact"):
        from . import protocols  # local import: protocols yields engine effects

        self.config = config
        self.variant = variant
        self.scenario = scenario
        if granularity not in GRANULARITIES:
            raise ScheduleStuck(f"unknown granularity {granularity!r}")
        self.granularity = granularity
        scenario.placement.validate_against(config.n_nodes)

        self.memories = {
            i: NodeMemory(i, scenario.local_items(i), scenario.placement.initials)
            for i in range(config.n_nodes)
        }
        self.procs: dict[ProcessRef, _Proc] = {}
        for c in range(config.n_clients):
            self.procs[ProcessRef.client(c)] = _Proc(ProcessRef.client(c))
        for n in range(config.n_nodes):
            for p in range(config.procs_per_node):
                ref = ProcessRef.node_proc(n, p)
                self.procs[ref] = _Proc(ref)
        for prog in scenario.transactions:
            ref = ProcessRef.client(prog.client)
            if ref not in self.procs:
                raise PlacementError(f"transaction {prog.txn_id} on unknown client {prog.client}")
            self.procs[ref].queue.append(prog)

        self.env = protocols.ProtocolEnv(variant, scenario, config)
        self.steps: list[Step] = []
        self.inflight: dict[int, Message] = {}
        self.crashed: set[int] = set()
        self.tick = 0
        self.next_msg_id = 0
        self.crashes_used = 0
        self.max_delivery_lag = 0
        self.decisions_taken: list[Decision] = []
        self.decided_count = 0

    # -- trace recording ---------------------------------------------------

    def _log(self, kind: str, proc: ProcessRef | None, txn: str | None, **fields) -> Step:
        step = Step(len(self.steps), kind, proc, txn, fields)
        self.steps.append(step)
        return step

    # -- handler driving ---------------------------------------------------

    def _advance(self, proc: _Proc, value: Any = None) -> None:
        """Resume the generator and stage its next effect (or block / finish)."""
        h = proc.handler
        assert h is not None
        try:
            effect = h.gen.send(value) if h.gen is not None else None
        except StopIteration as stop:
            h.pending = _Response(stop.value)
            h.waiting = None
            return
        if isinstance(effect, WaitRecv):
            h.waiting = effect
            h.wait_since = self.tick
            h.pending = None
        else:
            h.pending = effect
            h.waiting = None

    def _execute_pending(self, proc: _Proc) -> None:
        """Run one staged effect as one handler step."""
        h = proc.handler
        assert h is not None and h.pending is not None
        eff = h.pending
        h.pending = None
        if isinstance(eff, PrimOp):
            mem = self.memories[proc.ref.node]
            ret, nontrivial = mem.apply(proc.ref.node, eff.op, eff.obj, eff.args)
            self._log(
                PRIM, proc.ref, h.txn,
                obj=eff.obj, op=eff.op, nontrivial=nontrivial, args=list(eff.args), ret=ret,
            )
            self._advance(proc, ret)
            return
        if isinstance(eff, SendMsg):
            msg = Message(
                self.next_msg_id, h.txn, proc.ref, eff.dst, eff.payload, self.tick, len(self.steps)
            )
            self.next_msg_id += 1
            self._log(SEND, proc.ref, h.txn, msgId=msg.msg_id, payload=eff.payload)
            self.inflight[msg.msg_id] = msg
            self._advance(proc, msg.msg_id)
            return
        if isinstance(eff, EmitNote):
            self._log(NOTE, proc.ref, h.txn, tag=eff.tag, data=eff.data)
            self._advance(proc, None)
            return
        if isinstance(eff, _Response):
            if h.coordinator:
                v = eff.value
                self._log(
                    RESPONSE, proc.ref, h.txn,
                    outcome=v["outcome"], readSet=v["readSet"], writeSet=v["writeSet"],
                )
                self.decided_count += 1
            else:
                self._log(RESPONSE, proc.ref, h.txn, outcome=None, readSet=None, writeSet=None)
            proc.handler = None
            return
        raise TypeError(f"handler yielded unknown effect {eff!r}")

    def _timer_expired(self, h: _Handler) -> bool:
        return (
            h.waiting is not None
            and h.waiting.timeout is not None
            and self.tick - h.wait_since >= h.waiting.timeout
        )

    # -- choice enumeration -------------------------------------------------

    def _client_can_invoke(self, proc: _Proc) -> bool:
        if proc.handler is not None or not proc.queue:
            return False
        # Next invocation waits until the previous transaction's stragglers
        # are drained, so a mid-handler recv always matches the open handler.
        for m in self.inflight.values():
            if m.dst == ("client", proc.ref.idx):
                return False
        return True

    def _steppable(self, proc: _Proc) -> bool:
        if proc.ref.kind == "node" and proc.ref.node in self.crashed:
            return False
        h = proc.handler
        if h is not None:
            return h.pending is not None or self._timer_expired(h)
        return proc.ref.kind == "client" and self._client_can_invoke(proc)

    def _deliverable(self, msg: Message) -> bool:
        kind, target = msg.dst
        if kind == "node":
            if target in self.crashed:
                return False
            return any(
                p.handler is None and not p.queue
                for p in self.procs.values()
                if p.ref.kind == "node" and p.ref.node == target
            )
        proc = self.procs[ProcessRef.client(target)]
        h = proc.handler
        if h is None:
            return True  # drained by a degenerate recv+response handler
        return h.waiting is not None and h.txn == msg.txn

    def enabled_choices(self) -> list[Decision]:
        """Exactly: next steps of non-idle processes, deliveries to live
        destinations, and crash decisions while the budget lasts."""
        out: list[Decision] = []
        for ref in sorted(self.procs, key=ProcessRef.sort_key):
            if self._steppable(self.procs[ref]):
                out.append(Decision("step", proc=ref))
        for mid in sorted(self.inflight):
            if self._deliverable(self.inflight[mid]):
                out.append(Decision("deliver", msg=mid))
        if self.crashes_used < self.scenario.crash_budget:
            for n in range(self.config.n_nodes):
                if n not in self.crashed:
                    out.append(Decision("crash", node=n))
        return out

    def step_is_invisible(self, ref: ProcessRef) -> bool:
        """True when the process's next step cannot touch shared memory or
        consume a shared resource: an invocation, a send, a note, or a
        response. Such steps commute with every other enabled choice."""
        proc = self.procs.get(ref)
        if proc is None:
            return False
        h = proc.handler
        if h is None:
            return True  # next step is an invocation
        if h.pending is None:
            return False  # timer resume; the continuation is unknown
        return isinstance(h.pending, (SendMsg, EmitNote, _Response))

    def overdue_deliveries(self) -> list[Decision]:
        """Messages that the synchrony rule forces into every choice set."""
        out = []
        for mid in sorted(self.inflight):
            msg = self.inflight[mid]
            deadline = max(msg.sent_tick, self.config.gst) + self.config.delta
            if self.tick >= deadline - 1 and self._deliverable(msg):
                out.append(Decision("deliver", msg=mid))
        return out

    def has_armed_timer(self) -> bool:
        return any(
            p.handler is not None
            and p.handler.waiting is not None
            and p.handler.waiting.timeout is not None
            for p in self.procs.values()
        )

    # -- decision application -----------------------------------------------

    def _enabled(self, d: Decision) -> bool:
        if d.t == "tick":
            return True
        if d.t == "step":
            return d.proc in self.procs and self._steppable(self.procs[d.proc])
        if d.t == "deliver":
            msg = self.inflight.get(d.msg)
            if msg is None:
                return False
            if msg.dst[0] == "node" and msg.dst[1] in self.crashed:
                return True  # applying it records the drop
            if d.pin is not None and msg.dst[0] == "node":
                p = self.procs.get(ProcessRef.node_proc(msg.dst[1], d.pin))
                return p is not None and p.handler is None
            return self._deliverable(msg)
        if d.t == "crash":
            return (
                d.node is not None
                and 0 <= d.node < self.config.n_nodes
                and d.node not in self.crashed
                and self.crashes_used < self.scenario.crash_budget
            )
        return False

    def apply(self, d: Decision) -> None:
        if len(self.decisions_taken) >= MAX_DECISIONS:
            raise RunawayRun(f"run exceeded {MAX_DECISIONS} decisions")
        self.decisions_taken.append(d)
        self.tick += 1
        if d.t == "tick":
            return
        if d.t == "step":
            self._apply_step(self.procs[d.proc])
        elif d.t == "deliver":
            self._apply_deliver(d)
        elif d.t == "crash":
            self._apply_crash(d.node)
        else:
            raise ScheduleStuck(f"unknown decision {d!r}")

    def _apply_step(self, proc: _Proc) -> None:
        h = proc.handler
        if h is None:
            prog = proc.queue.pop(0)
            self._log(INVOKE, proc.ref, prog.txn_id)
            gen = self.env.coordinator(prog)
            proc.handler = _Handler(gen, prog.txn_id, coordinator=True)
            self._advance(proc, None)
            return
        if h.pending is None and self._timer_expired(h):
            self._log(NOTE, proc.ref, h.txn, tag="timeout", data={"waitedTicks": self.tick - h.wait_since})
            h.waiting = None
            self._advance(proc, TIMEOUT)
            return
        if self.granularity == "atomic":
            # Run the handler's whole pending section (until it blocks on a
            # receive or finishes); used by the explorer, where handler
            # sections are the scheduling unit.
            while proc.handler is not None and proc.handler.pending is not None:
                self._execute_pending(proc)
        else:
            self._execute_pending(proc)

    def _apply_deliver(self, d: Decision) -> None:
        msg = self.inflight.get(d.msg)
        if msg is None:
            raise ScheduleStuck(f"deliver of unknown/delivered message {d.msg}")
        kind, target = msg.dst
        if kind == "node" and target in self.crashed:
            del self.inflight[msg.msg_id]
            self._log(NOTE, None, msg.txn, tag="drop", data={"msgId": msg.msg_id, "node": target})
            return
        self.max_delivery_lag = max(self.max_delivery_lag, self.tick - msg.sent_tick)
        del self.inflight[msg.msg_id]
        if kind == "node":
            proc = self._pick_node_proc(target, d.pin)
            self._log(RECV, proc.ref, msg.txn, msgId=msg.msg_id, payload=msg.payload)
            gen = self.env.node_handler(target, msg)
            proc.handler = _Handler(gen, msg.txn, coordinator=False)
            self._advance(proc, None)
        else:
            proc = self.procs[ProcessRef.client(target)]
            self._log(RECV, proc.ref, msg.txn, msgId=msg.msg_id, payload=msg.payload)
            if proc.handler is None:
                # Late straggler: drain with a degenerate handler.
                h = _Handler(None, msg.txn, coordinator=False)
                h.pending = _Response(None)
                proc.handler = h
            else:
                h = proc.handler
                assert h.waiting is not None and h.txn == msg.txn
                h.waiting = None
                self._advance(proc, msg)

    def _pick_node_proc(self, node: int, pin: int | None) -> _Proc:
        if pin is not None:
            proc = self.procs.get(ProcessRef.node_proc(node, pin))
            if proc is None or proc.handler is not None:
                raise ScheduleStuck(f"pinned process {node}/{pin} is not idle")
            return proc
        for p in range(self.config.procs_per_node):
            proc = self.procs[ProcessRef.node_proc(node, p)]
            if proc.handler is None:
                return proc
        raise ScheduleStuck(f"no idle process on node {node}")

    def _apply_crash(self, node: int) -> None:
        if node in self.crashed:
            raise AlreadyCrashed(f"node {node} already crashed")
        if self.crashes_used >= self.scenario.crash_budget:
            raise ScheduleStuck(
                f"crash budget f={self.scenario.crash_budget} exhausted"
            )
        self.crashes_used += 1
        self.crashed.add(node)
        self._log(CRASH, None, None, node=node)
        for proc in self.procs.values():
            if proc.ref.kind == "node" and proc.ref.node == node and proc.handler is not None:
                if proc.handler.gen is not None:
                    proc.handler.gen.close()
                proc.handler = None

    def finish(self) -> None:
        """Flush drop notes for undeliverable messages to crashed nodes."""
        for mid in sorted(self.inflight):
            msg = self.inflight[mid]
            if msg.dst[0] == "node" and msg.dst[1] in self.crashed:
                del self.inflight[mid]
                self._log(NOTE, None, msg.txn, tag="drop", data={"msgId": mid, "node": msg.dst[1]})

    def all_decided(self) -> bool:
        return self.decided_count >= len(self.scenario.transactions)

    def result(self, schedule_json: Any = None) -> RunResult:
        trace = ExecutionTrace(
            self.steps,
            scenario=self.scenario,
            algorithm=self.variant,
            schedule=schedule_json,
            config=self.config,
        )
        return RunResult(
            trace,
            self.decisions_taken,
            {i: m.snapshot() for i, m in self.memories.items()},
            self.max_delivery_lag,
        )


# --------------------------------------------------------------------------
# Policies: deterministic choosers that resolve every decision
# --------------------------------------------------------------------------


class FairPolicy:
    """Default deterministic scheduler: overdue deliveries first, then local
    handler work, then the oldest message, ticking only to fire timers.
    Delivery follows send order, so surviving messages keep their relative
    order across re-runs."""

    def next_decision(self, sim: Simulation) -> Decision | None:
        overdue = sim.overdue_deliveries()
        if overdue:
            return overdue[0]
        choices = sim.enabled_choices()
        steps = [c for c in choices if c.t == "step"]
        if steps:
            return steps[0]
        delivers = [c for c in choices if c.t == "deliver"]
        if delivers:
            ordered = sorted(delivers, key=lambda c: (sim.inflight[c.msg].sent_tick, c.msg))
            return ordered[0]
        if sim.has_armed_timer():
            return TICK
        return None


class RandomPolicy:
    """Seeded uniform choice over enabled steps/deliveries (never crashes),
    still honoring the post-GST delivery bound."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def next_decision(self, sim: Simulation) -> Decision | None:
        overdue = sim.overdue_deliveries()
        if overdue:
            return overdue[0]
        choices = [c for c in sim.enabled_choices() if c.t != "crash"]
        if choices:
            return choices[self.rng.randrange(len(choices))]
        if sim.has_armed_timer():
            return TICK
        return None


class ScriptPolicy:
    """Replays a recorded decision list, optionally tolerating decisions that
    no longer apply (used by crash-injected replays), optionally completing
    the run with the fair policy."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.pos = 0
        if schedule.completion_seed is not None:
            self.completion = RandomPolicy(schedule.completion_seed)
        else:
            self.completion = FairPolicy()

    def next_decision(self, sim: Simulation) -> Decision | None:
        while self.pos < len(self.schedule.decisions):
            d = self.schedule.decisions[self.pos]
            self.pos += 1
            if sim._enabled(d):
                return d
            if not self.schedule.tolerant:
                raise ScheduleStuck(f"scripted decision {d.to_json()} is not enabled")
            # Tolerant skip still consumes a tick so later timing lines up.
            return TICK
        if self.schedule.complete:
            return self.completion.next_decision(sim)
        return None


def make_policy(schedule: Schedule):
    if schedule.kind == "scripted":
        return ScriptPolicy(schedule)
    if schedule.kind == "random":
        return RandomPolicy(schedule.seed or 0)
    if schedule.kind == "fair":
        return FairPolicy()
    raise ScheduleStuck(f"unknown schedule kind {schedule.kind!r}")


def drive(sim: Simulation, policy) -> None:
    """Apply the policy's decisions until it has none, then flush drops."""
    while (d := policy.next_decision(sim)) is not None:
        sim.apply(d)
    sim.finish()


def run(config: SimConfig, variant, scenario, schedule: Schedule) -> RunResult:
    """Run one execution to quiescence (or script exhaustion) and return its trace."""
    sim = Simulation(config, variant, scenario, granularity=schedule.granularity)
    drive(sim, make_policy(schedule))
    return sim.result(schedule.to_json())

