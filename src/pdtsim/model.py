"""Trace vocabulary and analysis: steps, transactions, causality, depth, histories.

Everything in here is a pure function over immutable, already-recorded traces;
nothing mutates engine state. The analysis of a trace (handlers, depths,
intervals, causal pasts) lives in one ``TraceIndex`` cached on the trace.
Step records mirror the JSON-lines wire format one to one (camelCase keys
inside ``fields``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .errors import (InvariantViolation, MalformedInput, MalformedResponse, OrphanStep,
                     PlacementError, Undecided)

# Step kinds as they appear on the wire.
INVOKE = "invoke"
RESPONSE = "response"
PRIM = "prim"
SEND = "send"
RECV = "recv"
CRASH = "crash"
NOTE = "note"
STEP_KINDS = (INVOKE, RESPONSE, PRIM, SEND, RECV, CRASH, NOTE)
_TXN_TYPES = (str, type(None))  # a step's txn: a transaction id, or null

VALUE_LEARNED = "valueLearned"


@dataclass(frozen=True)
class ProcessRef:
    """Identity of a client or node process. Clients have node == None."""

    kind: str  # "client" | "node"
    node: int | None
    idx: int

    def sort_key(self) -> tuple:
        return (0 if self.kind == "client" else 1, self.node if self.node is not None else -1, self.idx)

    def to_json(self) -> dict:
        return {"kind": self.kind, "node": self.node, "idx": self.idx}

    @staticmethod
    def from_json(d: dict, procs: dict | None = None) -> "ProcessRef":
        """The process ``d`` names. With ``procs``, the one ProcessRef kept
        there for it, added on first sight: ``procs`` is keyed only by
        validated fields, so ``idx: true`` never finds the entry of idx 1."""
        d = json_object(d, "process")
        kind, node, idx = d.get("kind"), d.get("node"), d.get("idx")
        node_ok = node is None if kind == "client" else type(node) is int
        if kind not in ("client", "node") or not node_ok or type(idx) is not int:
            raise MalformedInput(f"malformed process {d!r}")
        if procs is None:
            return ProcessRef(kind, node, idx)
        key = (kind, node, idx)
        ref = procs.get(key)
        if ref is None:
            ref = procs[key] = ProcessRef(kind, node, idx)
        return ref

    @staticmethod
    def client(idx: int) -> "ProcessRef":
        return ProcessRef("client", None, idx)

    @staticmethod
    def node_proc(node: int, idx: int) -> "ProcessRef":
        return ProcessRef("node", node, idx)


def json_object(d: Any, what: str) -> dict:
    """``d`` itself if it is a JSON object; MalformedInput otherwise."""
    if not isinstance(d, dict):
        raise MalformedInput(f"{what} must be a JSON object, not {d!r}")
    return d


def json_int(d: dict, key: str, what: str, required: bool = False) -> int | None:
    """``d[key]`` if it is an integer; None if it is absent or null and not
    required; MalformedInput otherwise (KeyError if required and absent)."""
    v = d[key] if required else d.get(key)
    if (required or v is not None) and type(v) is not int:
        raise MalformedInput(f"{what} field {key!r} must be an integer, not {v!r}")
    return v


def json_list(v: Any, what: str) -> list:
    """``v`` itself if it is a JSON array; MalformedInput otherwise."""
    if not isinstance(v, list):
        raise MalformedInput(f"{what} must be a JSON array, not {v!r}")
    return v


@dataclass
class Step:
    """One trace record. ``fields`` holds the kind-specific wire fields."""

    i: int
    kind: str
    proc: ProcessRef | None
    txn: str | None
    fields: dict = field(default_factory=dict)

    # Common kind-specific accessors; absent fields read as None.
    @property
    def obj(self):
        return self.fields.get("obj")

    @property
    def op(self):
        return self.fields.get("op")

    @property
    def nontrivial(self) -> bool:
        return bool(self.fields.get("nontrivial"))

    @property
    def msg_id(self):
        return self.fields.get("msgId")

    @property
    def payload(self):
        return self.fields.get("payload")

    @property
    def outcome(self):
        return self.fields.get("outcome")

    @property
    def read_set(self):
        return self.fields.get("readSet")

    @property
    def write_set(self):
        return self.fields.get("writeSet")

    @property
    def tag(self):
        return self.fields.get("tag")

    @property
    def data(self):
        return self.fields.get("data")

    def to_json(self) -> dict:
        rec: dict[str, Any] = {
            "i": self.i,
            "kind": self.kind,
            "proc": self.proc.to_json() if self.proc else None,
            "txn": self.txn,
        }
        rec.update(self.fields)
        return rec

    @staticmethod
    def from_json(rec: dict, i: int, procs: dict) -> "Step":
        """The step at position i of its trace, from its wire record.

        The record is taken over, not copied: its ``i``, ``kind``, ``proc``
        and ``txn`` are popped and the dict that is left becomes ``fields``.
        ``procs`` is passed on to ``ProcessRef.from_json``, so the steps read
        with one ``procs`` share one ProcessRef per process."""
        fields = json_object(rec, "trace step")
        pos = fields.pop("i", None)
        if type(pos) is not int or pos != i:
            raise MalformedInput(f"trace step {i}: 'i' must be {i}, not {pos!r}")
        kind = fields.pop("kind", None)
        if kind not in STEP_KINDS:
            raise MalformedInput(
                f"trace step {i}: 'kind' must be one of {', '.join(STEP_KINDS)}, not {kind!r}"
            )
        txn = fields.pop("txn", None)
        if type(txn) not in _TXN_TYPES:
            raise MalformedInput(f"trace step {i}: 'txn' must be a string or null, not {txn!r}")
        wire = fields.pop("proc", None)
        proc = None if wire is None else ProcessRef.from_json(wire, procs)
        if kind != PRIM:
            _check_keyed_fields(kind, fields, i)
        elif proc is None or proc.node is None:  # a primitive runs on a node's memory
            raise MalformedInput(f"trace step {i}: a prim step needs a node process, not {wire!r}")
        elif type(fields.get("obj")) is not str:  # the prim fields analysis keys on
            raise MalformedInput(
                f"trace step {i}: prim field 'obj' must be a string, not {fields.get('obj')!r}"
            )
        elif fields.get("op") not in ("read", "write", "cas"):
            raise MalformedInput(f"trace step {i}: prim field 'op' must be one of read, write, "
                                 f"cas, not {fields.get('op')!r}")
        return Step(i, kind, proc, txn, fields)


# The integer fields that trace analysis keys dicts and sets on, by step kind
# and, under "drop", in a drop note's data.
_INT_FIELDS = {SEND: ("msgId",), RECV: ("msgId",), CRASH: ("node",), "drop": ("msgId", "node")}


def _check_keyed_fields(kind: str, fields: dict, i: int) -> None:
    """MalformedInput unless the fields that trace analysis keys on are
    typed: the integers of _INT_FIELDS, and a response's [item, value] pairs."""
    if kind == NOTE and fields.get("tag") == "drop":
        kind, fields = "drop", json_object(fields.get("data"), f"trace step {i}: drop note 'data'")
    for key in _INT_FIELDS.get(kind, ()):
        if type(fields.get(key)) is not int:
            raise MalformedInput(
                f"trace step {i}: {kind} field {key!r} must be an integer, not {fields.get(key)!r}"
            )
    if kind == RESPONSE:
        for key in ("readSet", "writeSet"):
            entries = fields.get(key)
            if entries is not None and not (isinstance(entries, list) and all(
                isinstance(e, list) and len(e) == 2 and type(e[0]) is str for e in entries
            )):
                raise MalformedInput(
                    f"trace step {i}: response field {key!r} must list [item, value] pairs, "
                    f"not {entries!r}"
                )


@dataclass
class TransactionProgram:
    """Declarative transaction: ordered read set plus a conditional write rule.

    Each write rule entry is (target item, condition, value); condition is one
    of "always", "allReadsInitial", "never". "allReadsInitial" fires only when
    every recorded read returned its item's initial value.
    """

    txn_id: str
    client: int
    read_set: list[str]
    write_rule: list[tuple[str, str, Any]]

    CONDITIONS = ("always", "allReadsInitial", "never")

    def data_set(self) -> set[str]:
        # Static superset: reads plus every potential write target.
        return set(self.read_set) | {t for t, _, _ in self.write_rule}

    def writes_for(self, recorded: dict[str, Any], initials: dict[str, Any]) -> list[tuple[str, Any]]:
        """Evaluate the write rule against recorded read values."""
        all_initial = all(recorded[r] == initials[r] for r in self.read_set)
        out = []
        for target, cond, value in self.write_rule:
            if cond == "always" or (cond == "allReadsInitial" and all_initial):
                out.append((target, value))
        return out

    def to_json(self) -> dict:
        return {
            "txnId": self.txn_id,
            "client": self.client,
            "readSet": list(self.read_set),
            "writeRule": [
                {"target": t, "condition": c, "value": v} for t, c, v in self.write_rule
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "TransactionProgram":
        d = json_object(d, "transaction")
        read_set = json_list(d["readSet"], "transaction field 'readSet'")
        rule = [
            json_object(w, "write rule")
            for w in json_list(d["writeRule"], "transaction field 'writeRule'")
        ]
        if any(type(x) is not str for x in [d["txnId"], *read_set, *(w["target"] for w in rule)]):
            raise MalformedInput(f"transaction ids and item names must be strings: {d!r}")
        for w in rule:
            if w["condition"] not in TransactionProgram.CONDITIONS:
                raise MalformedInput(f"unknown write-rule condition {w['condition']!r}")
        return TransactionProgram(
            d["txnId"],
            json_int(d, "client", "transaction", required=True),
            list(read_set),
            [(w["target"], w["condition"], w["value"]) for w in rule],
        )


@dataclass
class DataPlacement:
    """Items with initial values, their replica groups, and the k/f parameters."""

    initials: dict[str, Any]
    groups: dict[str, tuple[int, ...]]
    k: int
    f: int

    def __post_init__(self):
        for item in self.initials:
            if item not in self.groups:
                raise PlacementError(f"item {item!r} has no replica group")
        for item, nodes in self.groups.items():
            if item not in self.initials:
                raise PlacementError(f"placement for unknown item {item!r}")
            if len(nodes) != self.k:
                raise PlacementError(
                    f"item {item!r} has {len(nodes)} replicas, expected k={self.k}"
                )
            if len(set(nodes)) != len(nodes):
                # A quorum would count the repeated node twice.
                raise PlacementError(f"item {item!r} names a replica node twice: {list(nodes)}")
        if self.f < 0 or self.k < 1:
            raise PlacementError(f"bad replication parameters k={self.k} f={self.f}")
        if self.f >= 1 and 2 * (self.k - self.f) <= self.k:
            # Quorum intersection: any two (k-f) quorums of a group must share a node.
            raise PlacementError(f"f={self.f} is not < k/2 for k={self.k}")

    @property
    def items(self) -> list[str]:
        return sorted(self.initials)

    def validate_against(self, n_nodes: int) -> None:
        for item, grp in self.groups.items():
            for node in grp:
                if not (0 <= node < n_nodes):
                    raise PlacementError(f"item {item!r} placed on unknown node {node}")

    def to_json(self) -> dict:
        return {
            "items": [{"id": i, "initial": self.initials[i]} for i in self.items],
            "placement": {i: list(self.groups[i]) for i in self.items},
            "k": self.k,
            "f": self.f,
        }

    @staticmethod
    def from_json(d: dict) -> "DataPlacement":
        items = [json_object(e, "item") for e in json_list(d["items"], "scenario field 'items'")]
        groups = {
            i: tuple(json_list(nodes, f"placement of item {i!r}"))
            for i, nodes in json_object(d["placement"], "scenario field 'placement'").items()
        }
        if any(type(e["id"]) is not str for e in items) or any(
            type(n) is not int for nodes in groups.values() for n in nodes
        ):
            raise MalformedInput("item ids must be strings and replica nodes integers")
        initials = {e["id"]: e["initial"] for e in items}
        k, f = (json_int(d, key, "scenario", required=True) for key in ("k", "f"))
        return DataPlacement(initials, groups, k, f)


@dataclass
class ExecutionTrace:
    """Recorded execution plus references to what produced it (when known)."""

    steps: list[Step]
    scenario: Any = None  # scenarios.Scenario; loose-typed to avoid an import cycle
    algorithm: Any = None  # protocols.AlgorithmVariant
    schedule: Any = None  # json-able schedule spec

    @cached_property
    def index(self) -> "TraceIndex":
        """The trace's shared analysis; steps must not change once it is built."""
        return TraceIndex(self.steps)

    def txns(self) -> list[str]:
        return list(self.index.txn_steps)

    def coordinator_response(self, txn: str) -> Step | None:
        return self.index.responses.get(txn)

    def decided(self, txn: str) -> bool:
        return self.coordinator_response(txn) is not None


# ---------------------------------------------------------------------------
# Trace analysis
#
# Handler reconstruction, per process: an invoke opens a handler; a recv
# opens one if none is open (message or drain handler), otherwise it belongs
# to the open handler (a coordinator waiting mid-handler); a response closes
# the open handler. The engine guarantees handlers are well nested per
# process, so the scan is unambiguous.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Message:
    """A sent message's send step, its recv step or None, and the crashed
    node it was dropped at or None."""

    send: int
    recv: int | None = None
    dropped_at: int | None = None


class TraceIndex:
    """Every derived view of one trace, each computed on first use.

    A trace is immutable once recorded, so ``ExecutionTrace.index`` builds
    one index per trace and every checker asks it instead of re-deriving
    handlers, depths, intervals or crashes. Happened-before is answered per
    response by one backward reachability pass (``ancestors``); nothing here
    holds the full pair set. The passes of ``messages``, ``crashes`` and
    ``handlers`` check the structure they derive.
    """

    def __init__(self, steps: list[Step]):
        # Only the step list, not the trace: the trace holds its index, and
        # a reference cycle would keep every analysed trace alive until the
        # cyclic collector runs.
        self.steps = steps
        self._ancestors: dict[int, bytearray] = {}

    @cached_property
    def txn_steps(self) -> dict[str, list[int]]:
        """Step indices of each transaction, ascending; transactions in order
        of first appearance."""
        out: dict[str, list[int]] = {}
        for s in self.steps:
            if s.txn is not None:
                out.setdefault(s.txn, []).append(s.i)
        return out

    @cached_property
    def crashes(self) -> dict[int, int]:
        """Step index of each node's crash (the engine crashes a node at most
        once); InvariantViolation if a node takes a step after its crash."""
        out: dict[int, int] = {}
        for s in self.steps:
            if s.kind == CRASH:
                out.setdefault(s.fields["node"], s.i)
            elif s.proc is not None and s.proc.node in out:  # a client's node, None, never crashes
                raise InvariantViolation(f"step {s.i} on node {s.proc.node} "
                                         f"after its crash at {out[s.proc.node]}")
        return out

    @cached_property
    def learned_notes(self) -> dict[str, list[int]]:
        """Step indices of each transaction's valueLearned notes, ascending."""
        steps = self.steps
        return {
            txn: [i for i in idx if steps[i].kind == NOTE and steps[i].tag == VALUE_LEARNED]
            for txn, idx in self.txn_steps.items()
        }

    @cached_property
    def responses(self) -> dict[str, Step]:
        """Each transaction's first coordinator response carrying an outcome."""
        out: dict[str, Step] = {}
        for s in self.steps:
            if (
                s.kind == RESPONSE
                and s.proc is not None
                and s.proc.kind == "client"
                and s.outcome is not None
            ):
                out.setdefault(s.txn, s)
        return out

    def response(self, txn: str) -> Step:
        resp = self.responses.get(txn)
        if resp is None:
            raise Undecided(f"transaction {txn!r} is not decided in this trace")
        return resp

    @cached_property
    def handlers(self) -> list[int | None]:
        """Handler id (dense ints) of each step; None for crash/engine notes."""
        out: list[int | None] = [None] * len(self.steps)
        open_handler: dict[ProcessRef, int] = {}
        next_id = 0
        for s in self.steps:
            if s.proc is None:
                continue
            if s.kind == INVOKE or (s.kind == RECV and s.proc not in open_handler):
                open_handler[s.proc] = next_id
                next_id += 1
            if s.kind != RESPONSE:
                out[s.i] = open_handler.get(s.proc)
            elif s.proc in open_handler:
                out[s.i] = open_handler.pop(s.proc)
            else:
                raise InvariantViolation(f"response {s.i} closes no open handler")
        return out

    @cached_property
    def messages(self) -> dict[Any, Message]:
        """Each sent message by msgId. InvariantViolation unless each is sent
        once and received at most once, after its send and in its transaction;
        then MalformedInput if a drop note names a node with no crash step."""
        steps = self.steps
        out: dict[Any, Message] = {}
        drops: list[Step] = []
        for s in steps:
            if s.kind == SEND:
                if s.msg_id in out:
                    raise InvariantViolation(f"duplicate send msgId {s.msg_id}")
                out[s.msg_id] = Message(s.i)
            elif s.kind == RECV:
                m = out.get(s.msg_id)
                if m is None:
                    raise InvariantViolation(f"recv {s.i} has no prior send")
                if m.recv is not None:
                    raise InvariantViolation(f"message {s.msg_id} delivered twice")
                if steps[m.send].txn != s.txn:
                    raise InvariantViolation("send/recv transaction mismatch")
                m.recv = s.i
            elif s.kind == NOTE and s.tag == "drop":
                drops.append(s)
        for s in drops:
            node = s.data["node"]
            if node not in self.crashes:
                raise MalformedInput(f"trace step {s.i}: drop note names node {node}, "
                                     "which has no crash step")
            if s.data["msgId"] in out:
                out[s.data["msgId"]].dropped_at = node
        return out

    @cached_property
    def preds(self) -> list[list[int]]:
        """Immediate happened-before predecessors of each step: the previous
        step of its handler and, for a recv, the matching send. Every
        predecessor has a smaller index, and an invoke, which opens its
        handler, has none."""
        handlers = self.handlers
        out: list[list[int]] = [[] for _ in self.steps]
        last_in_handler: dict[int, int] = {}
        for s in self.steps:
            h = handlers[s.i]
            if h is not None:
                if h in last_in_handler:
                    out[s.i].append(last_in_handler[h])
                last_in_handler[h] = s.i
        for m in self.messages.values():
            if m.recv is not None:
                out[m.recv].append(m.send)
        return out

    def ancestors(self, step_index: int) -> bytearray:
        """Mask over step indices: ``mask[j]`` is 1 iff step j happened-before
        ``step_index`` (strictly). Cached per step."""
        mask = self._ancestors.get(step_index)
        if mask is None:
            preds = self.preds
            mask = bytearray(len(preds))
            stack = list(preds[step_index])
            while stack:
                j = stack.pop()
                if not mask[j]:
                    mask[j] = 1
                    stack.extend(preds[j])
            self._ancestors[step_index] = mask
        return mask

    @cached_property
    def depths(self) -> list[int | None]:
        """Depth of every handler step; None for crash steps and engine notes.

        A coordinator invocation has depth 0; a recv is 1 + depth of the
        matching send; every other step takes the max depth of the steps
        before it in the same handler. So depth never decreases along a
        `preds` edge, nor along a happened-before path: a step without a
        depth has no handler, so it can only start or end a path.
        """
        handlers = self.handlers
        messages = self.messages
        depths: list[int | None] = [None] * len(self.steps)
        handler_max: dict[int, int] = {}
        for s in self.steps:
            h = handlers[s.i]
            if h is None:
                continue
            prior = handler_max.get(h, 0)
            if s.kind == INVOKE:
                d = 0
            elif s.kind == RECV:
                sd = depths[messages[s.msg_id].send]
                d = max(prior, (sd or 0) + 1)
            else:
                d = prior
            depths[s.i] = d
            handler_max[h] = max(prior, d)
        return depths

    def prefix_partial_depths(self, txn: str) -> list[int]:
        """partialDepth of the transaction for every prefix length 0..n."""
        past = self.ancestors(self.response(txn).i)
        depths = self.depths
        out: list[int] = []
        cur = 0
        for i in self.txn_steps[txn]:
            d = depths[i]
            if d is not None and past[i] and d > cur:
                # Prefixes of length <= i do not contain step i.
                out.extend([cur] * (i + 1 - len(out)))
                cur = d
        out.extend([cur] * (len(self.steps) + 1 - len(out)))
        return out

    @cached_property
    def intervals(self) -> dict[str, tuple[int, int]]:
        """Closed [start, end] step-index interval of each transaction.

        The interval starts at the coordinator invocation and ends once every
        handler of the transaction has responded and every send has either
        been received or had its target node crash. A handler with no
        response or an unresolved send leaves the interval open through the
        end of the trace.
        """
        steps = self.steps
        messages = self.messages
        crashes = self.crashes
        handlers = self.handlers
        out: dict[str, tuple[int, int]] = {}
        for txn, txn_steps in self.txn_steps.items():
            start = None
            end = 0
            closed = True
            open_handlers: set[int] = set()
            for i in txn_steps:
                s = steps[i]
                if s.kind == RESPONSE:
                    open_handlers.discard(handlers[i])
                    end = max(end, i)
                elif handlers[i] is not None:
                    open_handlers.add(handlers[i])
                if s.kind == INVOKE and start is None:
                    start = i
                elif s.kind == SEND:
                    m = messages[s.msg_id]
                    if m.recv is not None:
                        end = max(end, m.recv)
                    elif m.dropped_at is not None:
                        # The send stops blocking the interval at the target's crash.
                        end = max(end, crashes[m.dropped_at], i)
                    else:
                        closed = False
            if start is not None:
                out[txn] = (start, end if closed and not open_handlers else len(steps) - 1)
        return out

    def concurrent(self, t1: str, t2: str) -> bool:
        iv = self.intervals
        if t1 not in iv or t2 not in iv:
            return False
        (s1, e1), (s2, e2) = iv[t1], iv[t2]
        return s1 <= e2 and s2 <= e1


def handler_of_steps(trace: ExecutionTrace) -> list[int | None]:
    """Map each step index to a handler id (dense ints), None for crash/engine notes."""
    return list(trace.index.handlers)


def happened_before(trace: ExecutionTrace) -> set[tuple[int, int]]:
    """The smallest transitive relation from handler program order and send->recv.

    This materializes every pair, quadratic in the trace length; checkers ask
    ``trace.index.ancestors`` for one step's causal past instead.
    """
    preds = trace.index.preds
    # Ancestor bitmasks in trace order, which is a linearization of the DAG.
    past: list[int] = [0] * len(preds)
    rel: set[tuple[int, int]] = set()
    for i, ps in enumerate(preds):
        mask = 0
        for j in ps:
            mask |= (1 << j) | past[j]
        past[i] = mask
        while mask:
            low = mask & -mask
            rel.add((low.bit_length() - 1, i))
            mask ^= low
    return rel


def step_depths(trace: ExecutionTrace) -> list[int | None]:
    """Depth of every handler step; None for crash steps and engine notes."""
    return list(trace.index.depths)


def step_depth(trace: ExecutionTrace, step_index: int) -> int:
    d = trace.index.depths[step_index]
    if d is None:
        raise OrphanStep(f"step {step_index} is not a handler step")
    return d


def txn_depth(trace: ExecutionTrace, txn: str) -> int:
    """Depth of the coordinator handler's response step."""
    index = trace.index
    return index.depths[index.response(txn).i]  # type: ignore[return-value]


def partial_depth(trace: ExecutionTrace, prefix_len: int, txn: str) -> int:
    """Max depth of the txn's steps in the prefix that happened-before its response."""
    return trace.index.prefix_partial_depths(txn)[min(prefix_len, len(trace.steps))]


def value_learned_events(trace: ExecutionTrace, txn: str) -> dict[str, int]:
    """Step index of the last valueLearned note per read item of the transaction."""
    if not trace.decided(txn):
        raise Undecided(f"transaction {txn!r} is not decided in this trace")
    return {trace.steps[i].data["item"]: i for i in trace.index.learned_notes[txn]}


def intervals(trace: ExecutionTrace) -> dict[str, tuple[int, int]]:
    """Closed [start, end] step-index interval of each transaction (see TraceIndex.intervals)."""
    return dict(trace.index.intervals)


def concurrent(trace: ExecutionTrace, t1: str, t2: str) -> bool:
    return trace.index.concurrent(t1, t2)


# ---------------------------------------------------------------------------
# Derived committed histories
# ---------------------------------------------------------------------------


@dataclass
class CommittedHistory:
    """Per committed transaction, its reported operations in response order."""

    ops: dict[str, list[tuple[str, str, Any]]]  # txn -> [(kind, item, value)]
    initials: dict[str, Any] = field(default_factory=dict)

    def txns(self) -> list[str]:
        return list(self.ops)

    def canonical(self) -> str:
        parts = []
        for t in sorted(self.ops):
            ops = ";".join(f"{k}({i})={v!r}" for k, i, v in self.ops[t])
            parts.append(f"{t}:[{ops}]")
        return "|".join(parts)


def derive_history(trace: ExecutionTrace) -> CommittedHistory:
    """Committed transactions' operations, exactly as response steps report them."""
    ops: dict[str, list[tuple[str, str, Any]]] = {}
    for s in trace.steps:
        if s.kind != RESPONSE or s.outcome is None:
            continue
        if s.read_set is None or s.write_set is None:
            raise MalformedResponse(f"response step {s.i} is missing read/write sets")
        if s.outcome != "commit":
            continue
        entry = [("read", item, value) for item, value in s.read_set]
        entry += [("write", item, value) for item, value in s.write_set]
        ops[s.txn] = entry
    initials = {}
    if trace.scenario is not None:
        initials = dict(trace.scenario.placement.initials)
    return CommittedHistory(ops, initials)
