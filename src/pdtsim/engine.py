"""Deterministic discrete-event engine.

Handlers are resumable generators that yield one effect per handler step
(primitive op, send, note) or block on WaitRecv; the engine executes effects,
records trace steps, and resolves every nondeterministic choice through a
Schedule. One scheduling decision advances logical time by one tick; delta and
gst are measured in ticks.

A handler is a deterministic function of its arguments and of the values sent
into it. Simulation.clone relies on this: generators cannot be copied, so a
clone keeps each live handler's origin and the values sent into it, and
re-creates the generator from its factory call, re-sending those values, only
when the clone first resumes that handler. A clone that is dropped, or that
never touches a handler, re-creates nothing. A send returns nothing to its
handler, so message ids never enter a handler's state; Simulation.fingerprint
relies on this.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby, takewhile
from typing import Any

from .errors import (
    AlreadyCrashed,
    MalformedInput,
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
    json_int,
    json_list,
    json_object,
)

MAX_DECISIONS = 200_000  # safety valve against non-terminating schedules
ASYNC_GST = 10**9  # effectively "never stabilizes" for finite runs
GRANULARITIES = ("exact", "atomic")
DECISION_KINDS = ("step", "deliver", "crash", "tick")


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    procs_per_node: int = 1
    n_clients: int = 1
    delta: int = 64
    gst: int = 0

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
        }

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        d = json_object(d, "sim config")
        values = [d[k] for k in ("nNodes", "procsPerNode", "nClients", "delta", "gst")]
        if any(type(v) is not int for v in values):
            raise MalformedInput(f"sim config fields must be integers: {d!r}")
        return SimConfig(*values)


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
    deliver: "Decision"  # the one delivery decision for this message
    slot: int = field(compare=False, repr=False)  # the destination's slot (Simulation.schedulable)
    key: tuple | None = field(default=None, compare=False, repr=False)  # canonical(), cached

    def canonical(self) -> tuple:
        """(txn, source, destination, payload) without the message id, and
        with a node source named by its node alone: no handler reads the
        node-process index of a sender (coordinators read `src.node`)."""
        if self.key is None:
            src = self.src
            self.key = (self.txn, src.kind, src.idx if src.node is None else src.node,
                        self.dst, repr(self.payload))
        return self.key


# --------------------------------------------------------------------------
# Scheduling decisions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    t: str  # "step" | "deliver" | "crash" | "tick"
    proc: ProcessRef | None = None  # step target
    msg: int | None = None  # deliver target
    node: int | None = None  # crash target

    def to_json(self) -> dict:
        d: dict[str, Any] = {"t": self.t}
        if self.proc is not None:
            d["proc"] = self.proc.to_json()
        if self.msg is not None:
            d["msg"] = self.msg
        if self.node is not None:
            d["node"] = self.node
        return d

    @staticmethod
    def from_json(d: dict) -> "Decision":
        d = json_object(d, "decision")
        if d.get("t") not in DECISION_KINDS:
            raise MalformedInput(
                f"decision kind {d.get('t')!r} is not one of {', '.join(DECISION_KINDS)}"
            )
        return Decision(
            d["t"],
            proc=ProcessRef.from_json(d["proc"]) if "proc" in d else None,
            msg=json_int(d, "msg", "decision"),
            node=json_int(d, "node", "decision"),
        )


TICK = Decision("tick")


@dataclass
class Schedule:
    """Total control of nondeterminism; replaying the same schedule on the
    same (config, algorithm, scenario) yields a bit-identical trace.

    Kinds: "scripted" replays a recorded decision list and then finishes
    with the fair policy, "random" is a seeded uniform policy, "fair" is the
    deterministic default policy. A delivery to a node takes the node's first
    idle process.
    """

    kind: str  # "scripted" | "random" | "fair"
    decisions: list[Decision] = field(default_factory=list)
    seed: int | None = None
    granularity: str = "exact"  # "exact" | "atomic" (one step runs a handler section)
    tolerant: bool = False  # skip script decisions that are no longer enabled

    def to_json(self) -> dict:
        d: dict[str, Any] = {"kind": self.kind, "granularity": self.granularity}
        if self.kind == "scripted":
            d["decisions"] = [x.to_json() for x in self.decisions]
            d["tolerant"] = self.tolerant
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @staticmethod
    def from_json(d: dict) -> "Schedule":
        d = json_object(d, "schedule")
        decisions = json_list(d.get("decisions", []), "schedule field 'decisions'")
        tolerant = d.get("tolerant", False)
        if type(tolerant) is not bool:
            raise MalformedInput(f"schedule field 'tolerant' must be a boolean: {d!r}")
        return Schedule(
            d["kind"],
            [Decision.from_json(x) for x in decisions],
            json_int(d, "seed", "schedule"),
            d.get("granularity", "exact"),
            tolerant,
        )


def inject_crash(schedule: Schedule, node: int, after_step_index: int) -> Schedule:
    """Insert a crash decision at the given position of a scripted schedule.

    The suffix replays tolerantly: delivery decisions targeting the crashed
    node become drops and decisions that no longer apply are skipped.
    """
    if after_step_index < 0:
        raise ValueError("afterStepIndex must be >= 0")
    if any(d.t == "crash" and d.node == node for d in schedule.decisions):
        raise AlreadyCrashed(f"node {node} already crashes in this schedule")
    pos = min(after_step_index, len(schedule.decisions))
    new = list(schedule.decisions)
    new.insert(pos, Decision("crash", node=node))
    return Schedule("scripted", new, granularity=schedule.granularity, tolerant=True)


# --------------------------------------------------------------------------
# Process / handler bookkeeping
# --------------------------------------------------------------------------


# Stands in for a cloned live handler's generator until its first resume.
_RECREATE = object()


class _Handler:
    __slots__ = ("gen", "txn", "coordinator", "origin", "sent", "pending", "waiting", "wait_since")

    def __init__(self, gen, txn: str, coordinator: bool, origin: Any = None):
        self.gen = gen
        self.txn = txn
        self.coordinator = coordinator
        # What the generator was made from: the program (coordinator) or the
        # message (node handler). With `sent`, every value sent into the
        # generator so far, it re-creates the generator in a clone.
        self.origin = origin
        self.sent: list = []
        self.pending: Any = None  # effect or _Response awaiting a step decision
        self.waiting: WaitRecv | None = None
        self.wait_since: int = 0

    def clone(self) -> "_Handler":
        h = _Handler(None, self.txn, self.coordinator, self.origin)
        # A finished generator (its _Response staged) is never resumed again,
        # and a straggler handler has none, so only a live one is re-created,
        # at the clone's first resume of it.
        if self.gen is not None and not isinstance(self.pending, _Response):
            h.gen = _RECREATE
            h.sent = list(self.sent)
        h.pending, h.waiting, h.wait_since = self.pending, self.waiting, self.wait_since
        return h

    def recreate(self, env, node: int | None):
        """A generator in this handler's state: made from the origin, with
        every value sent so far re-sent."""
        gen = env.coordinator(self.origin) if self.coordinator else env.node_handler(node, self.origin)
        for value in self.sent:
            gen.send(value)
        return gen


class _Proc:
    __slots__ = ("ref", "owner", "handler", "queue", "step", "inbound")

    def __init__(self, ref: ProcessRef):
        self.ref = ref
        # Its client, or its node: a message's destination in the same form.
        self.owner = ("client", ref.idx) if ref.node is None else ("node", ref.node)
        self.handler: _Handler | None = None
        self.queue: list[TransactionProgram] = []  # client transaction backlog
        self.step = Decision("step", proc=ref)  # the one step decision for this process
        self.inbound = 0  # in-flight messages addressed to this client

    def clone(self) -> "_Proc":
        p = _Proc.__new__(_Proc)
        p.ref, p.owner, p.step, p.inbound = self.ref, self.owner, self.step, self.inbound
        p.queue = list(self.queue)
        p.handler = None if self.handler is None else self.handler.clone()
        return p


@dataclass
class RunResult:
    trace: ExecutionTrace
    decisions: list[Decision]
    final_memory: dict[int, dict[str, Any]]
    max_delivery_lag: int


class Simulation:
    """One deterministic run; construct one per run, or clone() one.

    Its processes are built in one list: the clients by index, then each
    node's processes by index. That is ProcessRef.sort_key's order, in which
    steps are enumerated, and `_set_procs` indexes the list by position.

    Each destination has a slot: node n is slot n, client c is slot
    n_nodes + c. `_idle[n]` counts node n's processes without a handler (0
    once n has crashed), as each client's `inbound` counts the in-flight
    messages addressed to it; both are kept up to date where handlers start
    and end and messages are sent and received, so enumerating the choices
    scans no process pool.

    A clone shares only what no run mutates: the config, variant, scenario
    and ProtocolEnv, and the Steps, Messages, Decisions and effects already
    created. Everything a run changes is copied, the `_idle` and `inbound`
    counters too.
    """

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
        self._set_procs(
            [_Proc(ProcessRef.client(c)) for c in range(config.n_clients)]
            + [_Proc(ProcessRef.node_proc(n, p))
               for n in range(config.n_nodes) for p in range(config.procs_per_node)]
        )
        self._idle = [config.procs_per_node] * config.n_nodes
        self._crash_choices = [Decision("crash", node=n) for n in range(config.n_nodes)]
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
        self.max_delivery_lag = 0
        self.decisions_taken: list[Decision] = []
        self.responses: list[Step] = []  # the coordinator responses, in trace order

    def clone(self) -> "Simulation":
        """A copy in this run's current state, from which it continues as
        this run would. Advancing either leaves the other unchanged."""
        sim = Simulation.__new__(Simulation)
        sim.__dict__.update(self.__dict__)  # shared parts and int counters
        sim.memories = {i: m.clone() for i, m in self.memories.items()}
        sim._set_procs([p.clone() for p in self.procs.values()])
        sim.steps = list(self.steps)
        sim.inflight = dict(self.inflight)
        sim.crashed = set(self.crashed)
        sim._idle = list(self._idle)
        sim.decisions_taken = list(self.decisions_taken)
        sim.responses = list(self.responses)
        return sim

    def _set_procs(self, procs: list[_Proc]) -> None:
        """Index the build-order process list: by ref, clients by index, and
        each node's processes by index."""
        self.procs: dict[ProcessRef, _Proc] = {p.ref: p for p in procs}
        per_node = self.config.procs_per_node
        first = len(procs) - self.config.n_nodes * per_node  # the first node process
        self._clients = procs[:first]
        self._node_procs = [procs[i:i + per_node] for i in range(first, len(procs), per_node)]

    # -- trace recording ---------------------------------------------------

    def _log(self, kind: str, proc: ProcessRef | None, txn: str | None, **fields) -> Step:
        step = Step(len(self.steps), kind, proc, txn, fields)
        self.steps.append(step)
        return step

    # -- handler driving ---------------------------------------------------

    def _advance(self, proc: _Proc, value: Any = None) -> None:
        """Resume the generator and stage its next effect (or block / finish).
        A handler without one (a straggler drain, a finished handler's clone)
        has its `_Response` staged and waits on nothing: it is never resumed."""
        h = proc.handler
        try:
            if h.gen is _RECREATE:
                h.gen = h.recreate(self.env, proc.ref.node)
            h.sent.append(value)
            effect = h.gen.send(value)
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
        """Run one staged effect as one handler step. The process has a
        handler; ScheduleStuck if it has nothing staged (it waits)."""
        h = proc.handler
        eff = h.pending
        if eff is None:
            raise ScheduleStuck(f"process {proc.ref.to_json()} has no pending step")
        h.pending = None
        if isinstance(eff, PrimOp):
            ret, nontrivial = self.memories[proc.ref.node].apply(eff.op, eff.obj, eff.args)
            self._log(
                PRIM, proc.ref, h.txn,
                obj=eff.obj, op=eff.op, nontrivial=nontrivial, args=list(eff.args), ret=ret,
            )
            self._advance(proc, ret)
            return
        if isinstance(eff, SendMsg):
            kind, target = eff.dst
            if kind == "client":
                self._clients[target].inbound += 1
                slot = self.config.n_nodes + target
            else:
                slot = target
            mid = self.next_msg_id
            msg = Message(mid, h.txn, proc.ref, eff.dst, eff.payload, self.tick,
                          Decision("deliver", msg=mid), slot)
            self.next_msg_id += 1
            self._log(SEND, proc.ref, h.txn, msgId=msg.msg_id, payload=eff.payload)
            self.inflight[msg.msg_id] = msg
            self._advance(proc, None)
            return
        if isinstance(eff, EmitNote):
            self._log(NOTE, proc.ref, h.txn, tag=eff.tag, data=eff.data)
            self._advance(proc, None)
            return
        if isinstance(eff, _Response):
            if h.coordinator:
                v = eff.value
                self.responses.append(self._log(
                    RESPONSE, proc.ref, h.txn,
                    outcome=v["outcome"], readSet=v["readSet"], writeSet=v["writeSet"],
                ))
            else:
                self._log(RESPONSE, proc.ref, h.txn, outcome=None, readSet=None, writeSet=None)
                if proc.ref.node is not None:
                    self._idle[proc.ref.node] += 1
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
        # Called for an idle client. The next invocation waits until the
        # previous transaction's stragglers are drained, so a mid-handler
        # recv always matches the open handler.
        return bool(proc.queue) and proc.inbound == 0

    def _steppable(self, proc: _Proc) -> bool:
        h = proc.handler
        if h is None:
            # Only a client can step while idle. A crashed node's processes
            # are always idle: the crash closes their handlers, and
            # deliveries to a crashed node become drops.
            return proc.ref.kind == "client" and self._client_can_invoke(proc)
        return h.pending is not None or self._timer_expired(h)

    def schedulable(self) -> tuple[list[Decision], list[Decision]]:
        """The enabled steps, in process order, and the enabled deliveries,
        in msg-id order: enabled_choices() without the crash choices."""
        steps = [p.step for p in self.procs.values() if self._steppable(p)]
        # What each destination slot accepts: any message while it has an
        # idle process (a node) or no handler (a client, whose degenerate
        # recv+response handler drains a straggler), only its transaction's
        # while it waits (a client), and nothing else.
        accepts: list[Any] = [idle > 0 for idle in self._idle]
        for p in self._clients:
            h = p.handler
            accepts.append(True if h is None else h.waiting is not None and h.txn)
        # Message ids only grow and entries are only ever deleted, so the
        # dict's insertion order is msg-id order.
        deliveries = [m.deliver for m in self.inflight.values()
                      if (a := accepts[m.slot]) is True or a == m.txn]
        return steps, deliveries

    def enabled_choices(self) -> list[Decision]:
        """Exactly: next steps of non-idle processes, deliveries to live
        destinations, and crash decisions while the budget lasts."""
        steps, deliveries = self.schedulable()
        out = steps + deliveries
        if len(self.crashed) < self.scenario.placement.f:
            out += [d for d in self._crash_choices if d.node not in self.crashed]
        return out

    def step_is_invisible(self, ref: ProcessRef) -> bool:
        """True when the process's next step cannot touch shared memory or
        consume a shared resource: an invocation, a send, a note, or a
        response. Such steps commute with every other enabled choice.

        At "atomic" granularity a step runs a whole handler section, and
        this looks only at its first effect. That stays sound because a
        section that starts with a send, a note or a response runs no
        primitive: coordinators never touch memory, and node handlers never
        wait on a receive, so a node handler is one section, and one that
        touches memory starts with a primitive."""
        h = self.procs[ref].handler
        if h is None:
            return True  # next step is an invocation
        if h.pending is None:
            return False  # timer resume; the continuation is unknown
        return isinstance(h.pending, (SendMsg, EmitNote, _Response))

    def overdue(self, d: Decision) -> bool:
        """Whether the synchrony rule forces an enabled delivery into every
        choice set: once tick >= max(sent_tick, gst) + delta - 1."""
        last = self.tick + 1 - self.config.delta  # the latest overdue sent tick
        return self.config.gst <= last and self.inflight[d.msg].sent_tick <= last

    def overdue_deliveries(self) -> list[Decision]:
        """The enabled deliveries that are overdue. Sent ticks never decrease
        in msg-id order, so they are the first ones."""
        return list(takewhile(self.overdue, self.schedulable()[1]))

    def has_armed_timer(self) -> bool:
        return bool(self.armed_timers())

    def armed_timers(self) -> list[Decision]:
        """The step decisions of the processes whose handler waits on a
        timer, expired or not. Each one resumes its handler with TIMEOUT once
        the timer expires."""
        return [
            p.step for p in self.procs.values()
            if p.handler is not None and p.handler.waiting is not None
            and p.handler.waiting.timeout is not None
        ]

    def ticks_to_expiry(self, ref: ProcessRef) -> int:
        """Ticks until the process's armed timer expires; 0 once it has."""
        h = self.procs[ref].handler
        return max(0, h.waiting.timeout - (self.tick - h.wait_since))

    # -- decision application -----------------------------------------------

    def _enabled(self, d: Decision) -> bool:
        """Whether a scripted decision can be taken now: a tick, one of
        enabled_choices(), or the delivery of an in-flight message to a
        crashed node, which apply records as a drop."""
        if d.t == "tick" or d in self.enabled_choices():
            return True
        msg = self.inflight.get(d.msg)
        return (msg is not None and d == msg.deliver
                and msg.dst[0] == "node" and msg.dst[1] in self.crashed)

    def apply(self, d: Decision) -> None:
        if len(self.decisions_taken) >= MAX_DECISIONS:
            raise RunawayRun(f"run exceeded {MAX_DECISIONS} decisions")
        # Decisions that no enabled set holds and no later check catches
        # stop here, before the run changes.
        if d.t == "step":
            proc = self.procs.get(d.proc)
            if proc is None:
                raise ScheduleStuck(f"decision {d.to_json()} names no process of this run")
            if proc.handler is None and not proc.queue:
                raise ScheduleStuck(f"decision {d.to_json()} steps an idle process with nothing to invoke")
        elif d.t == "crash" and d.node not in self.memories:
            raise ScheduleStuck(f"decision {d.to_json()} names no node of this run")
        self.decisions_taken.append(d)
        self.tick += 1
        if d.t == "tick":
            return
        if d.t == "step":
            self._apply_step(proc)
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
            proc.handler = _Handler(gen, prog.txn_id, coordinator=True, origin=prog)
            self._advance(proc, None)
            return
        if h.pending is None and self._timer_expired(h):
            self._log(NOTE, proc.ref, h.txn, tag="timeout", data={"waitedTicks": self.tick - h.wait_since})
            h.waiting = None
            self._advance(proc, TIMEOUT)
            return
        self._execute_pending(proc)
        if self.granularity == "atomic":
            # Run the rest of the handler's pending section (until it blocks
            # on a receive or finishes); used by the explorer, where handler
            # sections are the scheduling unit.
            while proc.handler is not None and proc.handler.pending is not None:
                self._execute_pending(proc)

    def _apply_deliver(self, d: Decision) -> None:
        msg = self.inflight.get(d.msg)
        if msg is None:
            raise ScheduleStuck(f"deliver of unknown/delivered message {d.msg}")
        kind, target = msg.dst
        if kind == "node" and target in self.crashed:
            self._drop(msg)
            return
        self.max_delivery_lag = max(self.max_delivery_lag, self.tick - msg.sent_tick)
        del self.inflight[msg.msg_id]
        if kind == "node":
            proc = self._pick_node_proc(target)
            self._idle[target] -= 1
            self._log(RECV, proc.ref, msg.txn, msgId=msg.msg_id, payload=msg.payload)
            gen = self.env.node_handler(target, msg)
            proc.handler = _Handler(gen, msg.txn, coordinator=False, origin=msg)
            self._advance(proc, None)
        else:
            proc = self._clients[target]
            h = proc.handler
            if h is not None and (h.waiting is None or h.txn != msg.txn):
                raise ScheduleStuck(
                    f"client {target} is not waiting for message {msg.msg_id} of {msg.txn}"
                )
            proc.inbound -= 1
            self._log(RECV, proc.ref, msg.txn, msgId=msg.msg_id, payload=msg.payload)
            if h is None:
                # Late straggler: drain with a degenerate handler.
                h = _Handler(None, msg.txn, coordinator=False)
                h.pending = _Response(None)
                proc.handler = h
            else:
                h.waiting = None
                self._advance(proc, msg)

    def _pick_node_proc(self, node: int) -> _Proc:
        for proc in self._node_procs[node]:
            if proc.handler is None:
                return proc
        raise ScheduleStuck(f"no idle process on node {node}")

    def _apply_crash(self, node: int) -> None:
        if node in self.crashed:
            raise AlreadyCrashed(f"node {node} already crashed")
        if len(self.crashed) >= self.scenario.placement.f:
            raise ScheduleStuck(f"crash budget f={self.scenario.placement.f} exhausted")
        self.crashed.add(node)
        self._idle[node] = 0
        self._log(CRASH, None, None, node=node)
        for proc in self._node_procs[node]:
            if proc.handler is not None:
                gen = proc.handler.gen
                if gen is not None and gen is not _RECREATE:
                    gen.close()
                proc.handler = None

    def _drop(self, msg: Message) -> None:
        """Remove a message addressed to a crashed node, with its drop note."""
        del self.inflight[msg.msg_id]
        self._log(NOTE, None, msg.txn, tag="drop", data={"msgId": msg.msg_id, "node": msg.dst[1]})

    def finish(self) -> None:
        """Flush drop notes for undeliverable messages to crashed nodes."""
        for msg in list(self.inflight.values()):
            if msg.dst[0] == "node" and msg.dst[1] in self.crashed:
                self._drop(msg)

    def all_decided(self) -> bool:
        return len(self.responses) >= len(self.scenario.transactions)

    # -- state fingerprint ---------------------------------------------------

    def fingerprint(self) -> int:
        """A 64-bit hash of this run's state up to node-process symmetry, for
        the explorer's visited-state cache. Built on demand; runs pay nothing
        for it.

        Two runs with the same canonical state reach the same committed
        histories from here on. The state is:
          * every node's memory cells;
          * per client: its queue length, its in-flight inbound count and its
            handler's key;
          * per node: its processes' handler keys as a multiset (sorted), since
            node processes are interchangeable: a node handler depends only
            on (node, message), coordinators read only `src.node`, and a
            delivery takes any idle process (the engine takes the first);
          * in-flight messages as a sorted multiset of Message.canonical();
          * the crashed nodes, and the coordinator responses emitted so far,
            from which the history is derived.
        A handler's key is its txn, its origin (a message's canonical form, or
        whether it is a coordinator), the values sent into it with messages
        replaced by their canonical form, and whether its timer is armed. Its
        pending effect and waiting status follow from origin and sent values.
        No message id enters it: a send returns nothing to its handler. Nor
        does a timer's age: the explorer fires a timer only when nothing else
        is enabled, so how long it has been armed changes nothing that follows
        (see explore.py).

        A coordinator's key leaves out the order of the messages within each
        run of consecutive receives: the run is one sorted tuple, and each
        other value sent (the None after a send or note, TIMEOUT) keeps its
        place between runs. No coordinator can see that order:
          * it consumes messages only in the WaitRecv loops of
            protocols._read_phase and protocols._round, and the client slot
            accepts no message while an effect is pending, so a run is
            consumed by one loop with no effect between its messages;
          * those loops keep their replies as a dict keyed by node, read
            through max(sorted(...)), their refusals and commit votes as
            sets and the write seqs as a max, and skip a message of another
            kind or round wherever it comes;
          * every early exit (quorum met, refusals exhausted, an abort vote)
            ends the run, since the loop's next value follows a send or a
            note, or the coordinator returns; so the exit comes with the
            run's last message in every order that consumes the whole run.
        So every order that consumes a given run ends in the same state.
        Node handlers receive no message and keep their sent values in order.

        The key is Python's hash() of that tuple, so two distinct states
        share a key only if their tuples collide. Taking hash() as a uniform
        64-bit function, n distinct states collide with probability at most
        n*n/2**65: below 1e-9 for 100,000 states. A collision can only merge
        two states, so a search would skip the second one's successors. A
        search's output depends only on which keys are equal, not on their
        values, so string hash randomization does not change it. Handler keys
        are sorted by their hash; a tie keeps process order, which can only
        miss a merge."""
        try:
            return hash(self._canonical_state(hash))
        except TypeError:
            # A cell or read value is a JSON array or object. Values that
            # print alike stay equal under repr, so this path only runs slower.
            return hash(repr(self._canonical_state(repr)))

    def _canonical_state(self, order) -> tuple:
        """fingerprint's tuple; `order` sorts each node's handler keys."""
        # tuple() of lists, not of generators: a generator's tuple is built by
        # resizing, which leaves freed tuples piling up in CPython's per-size
        # free lists.
        return (
            tuple([tuple(m.cells.values()) for m in self.memories.values()]),
            tuple([(len(p.queue), p.inbound, _handler_key(p.handler)) for p in self._clients]),
            tuple([tuple(sorted([_handler_key(p.handler) for p in procs], key=order))
                   for procs in self._node_procs]),
            tuple(sorted([m.canonical() for m in self.inflight.values()])),
            tuple(sorted(self.crashed)),
            tuple(sorted([(s.txn, repr(s.fields)) for s in self.responses])),
        )

    def choice_owner(self, d: Decision) -> tuple | None:
        """What an enabled choice acts on: a delivery's destination, or a
        step's client or node, as ("client", idx) or ("node", node). None for
        a crash, a tick or a timer's step, which depend on every choice."""
        if d.t == "deliver":
            return self.inflight[d.msg].dst
        if d.t == "step":
            proc = self.procs[d.proc]
            if proc.handler is None or proc.handler.waiting is None:
                return proc.owner
        return None

    def choice_key(self, d: Decision) -> tuple | None:
        """An enabled choice named as the fingerprint names the state:
        (owner, the message's canonical form) for a delivery, (owner, the
        handler's key) for a step. Choices that lead to symmetric states
        share a key. None where choice_owner is None."""
        owner = self.choice_owner(d)
        if owner is None:
            return None
        if d.t == "deliver":
            return owner, self.inflight[d.msg].canonical()
        key = _handler_key(self.procs[d.proc].handler)
        try:
            hash(key)
        except TypeError:
            key = repr(key)  # a JSON array or object among its values
        return owner, key

    def result(self, schedule_json: Any = None) -> RunResult:
        trace = ExecutionTrace(
            self.steps,
            scenario=self.scenario,
            algorithm=self.variant,
            schedule=schedule_json,
        )
        return RunResult(
            trace,
            self.decisions_taken,
            {i: m.snapshot() for i, m in self.memories.items()},
            self.max_delivery_lag,
        )


def _handler_key(h: _Handler | None) -> tuple | None:
    """A handler's state for Simulation.fingerprint: txn, origin, sent values
    and whether a timer is armed, with messages in their canonical form. A
    coordinator's sent values are segments: each maximal run of received
    messages as one sorted tuple, and each other value (the None after a
    send or note, TIMEOUT) in its place between them."""
    if h is None:
        return None
    origin = h.origin.canonical() if type(h.origin) is Message else h.coordinator
    if h.coordinator:
        segments = []
        for received, values in groupby(h.sent, lambda v: type(v) is Message):
            if received:
                segments.append(tuple(sorted([m.canonical() for m in values])))
            else:
                segments += values
        sent = tuple(segments)
    else:
        sent = tuple(h.sent)  # node handlers receive no message
    w = h.waiting
    return (h.txn, origin, sent, w is not None and w.timeout is not None)


# --------------------------------------------------------------------------
# Policies: deterministic choosers that resolve every decision
# --------------------------------------------------------------------------


class FairPolicy:
    """Default deterministic scheduler: overdue deliveries first, then local
    handler work, then the oldest message, ticking only to fire timers; it
    never crashes a node. Delivery follows send order, so surviving messages
    keep their relative order across re-runs."""

    def next_decision(self, sim: Simulation) -> Decision | None:
        steps, deliveries = sim.schedulable()
        # Deliveries come in msg-id order, in which sent ticks never
        # decrease (a message's sent tick is the tick of its send), so if
        # any enabled delivery is overdue, the first one is.
        if deliveries and sim.overdue(deliveries[0]):
            return deliveries[0]
        choices = steps + deliveries
        if choices:
            return self.pick(choices)
        if sim.has_armed_timer():
            return TICK
        return None

    def pick(self, choices: list[Decision]) -> Decision:
        # Choices list steps before deliveries, and messages in msg-id
        # order; a later id never has an earlier sent tick, so the first
        # choice is a step if any, else the oldest message.
        return choices[0]


class RandomPolicy(FairPolicy):
    """The fair policy with a seeded uniform pick among its choices: still
    overdue deliveries first (the post-GST delivery bound), never a crash."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, choices: list[Decision]) -> Decision:
        return choices[self.rng.randrange(len(choices))]


class UntilDecided:
    """Stops the wrapped policy once every transaction has decided. Every
    coordinator response is then in the trace, so the committed history and
    every transaction's depth are fixed: nothing that follows changes them."""

    def __init__(self, policy):
        self.policy = policy

    def next_decision(self, sim: Simulation) -> Decision | None:
        return None if sim.all_decided() else self.policy.next_decision(sim)


class ScriptPolicy:
    """Replays a recorded decision list, optionally tolerating decisions that
    no longer apply (used by crash-injected replays), then completes the run
    with the fair policy."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.pos = 0
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
        return self.completion.next_decision(sim)


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
    """Run one execution to quiescence and return its trace."""
    sim = Simulation(config, variant, scenario, granularity=schedule.granularity)
    drive(sim, make_policy(schedule))
    return sim.result(schedule.to_json())

