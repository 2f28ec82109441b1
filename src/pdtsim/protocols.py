"""The transactional protocols, as resumable client and node state machines.

One base algorithm plus four tweaks, each sacrificing one property:

  base         optimistic reads + single-round validation, quorum k-f
  no-fast      validation split into a lock round then a check round
  weak-ir      writing transactions also long-lock their read items
  no-seamless  validation waits for every node; timeout falls back to no-fast
  no-ddap      one long lock per node instead of per item; writers lock all nodes

Handlers are generators over engine effects; every yield is one handler step.
A handler is a deterministic function of its arguments and of the values sent
into it: it reads no clock, randomness or state outside them, and mutates
neither its arguments nor the values it receives. engine.Simulation.clone
relies on this to re-create a live handler by re-sending those values.
Per-item state is four base objects (val, seqNum, lockS, lockL); lockS guards
value/seqNum installation, lockL is the concurrency-control lock. Reads use
the lock-free check/recheck sequence so they stay trivial on shared memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .engine import TIMEOUT, EmitNote, PrimOp, SendMsg, SimConfig, WaitRecv
from .errors import MalformedInput, PlacementError
from .memory import GLOBAL_LOCK
from .model import VALUE_LEARNED, TransactionProgram, json_object

BASE = "base"
NO_FAST = "no-fast"
WEAK_IR = "weak-ir"
NO_SEAMLESS = "no-seamless"
NO_DDAP = "no-ddap"

VARIANTS = (BASE, NO_FAST, WEAK_IR, NO_SEAMLESS, NO_DDAP)

READ_RETRY_BOUND = 8  # attempts before a node answers an abort vote


@dataclass(frozen=True)
class AlgorithmVariant:
    tag: str

    def __post_init__(self):
        if self.tag not in VARIANTS:
            raise ValueError(f"unknown algorithm variant {self.tag!r}")

    def to_json(self) -> dict:
        return {"tag": self.tag}

    @staticmethod
    def from_json(d: dict) -> "AlgorithmVariant":
        d = json_object(d, "algorithm")
        if type(d.get("tag")) is not str:
            raise MalformedInput(f"algorithm field 'tag' must be a string, not {d.get('tag')!r}")
        return AlgorithmVariant(d["tag"])


def pmsg(kind: str, body: dict) -> dict:
    return {"kind": kind, "body": body}


class ProtocolEnv:
    """Per-run protocol context: variant, placement, contact/quorum helpers."""

    def __init__(self, variant: AlgorithmVariant, scenario, config: SimConfig):
        self.variant = variant
        self.config = config
        self.placement = scenario.placement
        self.all_nodes = list(range(config.n_nodes))
        # How long no-seamless validation waits before its restart fallback.
        # SimConfig requires delta >= 1, so it exceeds delta: the fallback
        # never fires in a synchronous run without a real crash.
        self.validation_timeout = 4 * config.delta
        if variant.tag == NO_SEAMLESS:
            everywhere = tuple(self.all_nodes)
            for item, grp in self.placement.groups.items():
                if tuple(sorted(grp)) != everywhere:
                    raise PlacementError(
                        "no-seamless requires a replicated-unsharded placement; "
                        f"item {item!r} is not on every node"
                    )

    @property
    def quorum(self) -> int:
        return self.placement.k - self.placement.f

    def item_nodes(self, items) -> list[int]:
        out: set[int] = set()
        for item in items:
            out.update(self.placement.groups[item])
        return sorted(out)

    def quorum_met(self, items, replied: set[int], total_needed: int | None = None) -> bool:
        for item in items:
            group = self.placement.groups[item]
            if sum(1 for n in group if n in replied) < self.quorum:
                return False
        if total_needed is not None and len(replied) < total_needed:
            return False
        return True

    def coordinator(self, prog: TransactionProgram) -> Iterator:
        return _coordinator(self, prog)

    def node_handler(self, node: int, msg) -> Iterator:
        kind = msg.payload["kind"]
        client = ("client", msg.src.idx)
        body = msg.payload["body"]
        if kind == "read":
            return _handle_read(self, node, client, body)
        if kind == "validate" and self.variant.tag == NO_DDAP:
            return _handle_validate_global(self, node, client, body)
        if kind in ("validate", "lock"):
            # no-fast's lock round is validation with an empty read set.
            return _handle_validate(self, node, client, body, kind + "Reply")
        if kind == "check":
            return _handle_check(self, node, client, body)
        if kind == "commit":
            return _handle_commit(self, node, body)
        if kind == "abort":
            return _handle_abort(self, node, body)
        if kind == "restart":
            return _handle_restart(self, node, body)
        raise ValueError(f"node {node} received unknown message kind {kind!r}")


# ---------------------------------------------------------------------------
# Client coordinator
# ---------------------------------------------------------------------------


def _coordinator(env: ProtocolEnv, prog: TransactionProgram):
    tid = prog.txn_id
    round_counter = [0]

    recorded, reads, writes = yield from _read_and_plan(env, prog, round_counter)
    if reads is None:
        return _read_abort(prog, recorded)
    if env.variant.tag == NO_FAST:
        outcome, seqs, contacted = yield from _two_round_validation(env, tid, reads, writes)
    else:
        outcome, seqs, contacted = yield from _validation(env, tid, reads, writes)
    if outcome == "timeout":
        # no-seamless: release the first attempt, then fall back to the
        # two-round algorithm, re-reading from scratch.
        for n in contacted:
            yield SendMsg(("node", n), pmsg("restart", _txn_body(tid, reads, writes)))
        recorded, reads, writes = yield from _read_and_plan(env, prog, round_counter)
        if reads is None:
            return _read_abort(prog, recorded)
        outcome, seqs, contacted = yield from _two_round_validation(env, tid, reads, writes)

    read_set = [[k, recorded[k][0]] for k in prog.read_set]
    write_set = [[k, v] for k, v in writes]
    if outcome == "commit":
        commit_writes = [[k, v, seqs[k] + 1] for k, v in writes]
        for n in contacted:
            yield SendMsg(("node", n), pmsg("commit", {
                "tid": tid, "reads": reads, "writes": commit_writes,
            }))
    else:
        for n in contacted:
            yield SendMsg(("node", n), pmsg("abort", _txn_body(tid, reads, writes)))
    return {"outcome": outcome, "readSet": read_set, "writeSet": write_set}


def _read_and_plan(env: ProtocolEnv, prog: TransactionProgram, round_counter):
    """Run the read phase, then evaluate the write rule on what it learned.

    Returns (recorded, reads, writes): reads as [item, seqNum] pairs and
    writes as (item, value) pairs, or both None when the read phase stopped
    early."""
    recorded = yield from _read_phase(env, prog, round_counter)
    if recorded.keys() != set(prog.read_set):
        return recorded, None, None
    reads = [[k, recorded[k][1]] for k in prog.read_set]
    writes = prog.writes_for({k: v for k, (v, _) in recorded.items()}, env.placement.initials)
    return recorded, reads, writes


def _read_phase(env: ProtocolEnv, prog: TransactionProgram, round_counter):
    """One key at a time: broadcast to the replica group, collect k-f replies,
    record the max-seqNum pair, announce the learned value.

    Stops early, returning only the items learned so far, once so many
    replicas refused the current round (out of read retries) that the rest
    can no longer form a k-f quorum."""
    recorded: dict[str, tuple[Any, int]] = {}
    for item in prog.read_set:
        round_counter[0] += 1
        rnd = round_counter[0]
        group = sorted(env.placement.groups[item])
        for n in group:
            yield SendMsg(("node", n), pmsg("read", {"key": item, "round": rnd}))
        replies: dict[int, tuple[Any, int]] = {}
        refused: set[int] = set()
        while len(replies) < env.quorum:
            m = yield WaitRecv()
            pl = m.payload
            if pl["kind"] != "readReply" or pl["body"].get("round") != rnd:
                continue
            if pl["body"]["vote"] != "ok":
                refused.add(m.src.node)
                if len(group) - len(refused) < env.quorum:
                    return recorded
                continue
            replies[m.src.node] = (pl["body"]["val"], pl["body"]["seq"])
        best = max(sorted(replies), key=lambda n: replies[n][1])
        val, seq = replies[best]
        recorded[item] = (val, seq)
        yield EmitNote(VALUE_LEARNED, {"item": item, "val": val, "seq": seq})
    return recorded


def _read_abort(prog: TransactionProgram, recorded) -> dict:
    """Decide abort after an unfinished read phase; no node holds anything
    for the transaction yet, so there is no validation or abort round."""
    read_set = [[k, recorded[k][0]] for k in prog.read_set if k in recorded]
    return {"outcome": "abort", "readSet": read_set, "writeSet": []}


def _decision_contacts(env: ProtocolEnv, reads, writes) -> list[int]:
    items = [k for k, _ in reads] + [k for k, _ in writes]
    if env.variant.tag == NO_DDAP and writes:
        return list(env.all_nodes)
    return env.item_nodes(items)


def _round(contact, kind, body, done, timeout=None):
    """Send one `kind` message to every contacted node, then collect their
    `kind + "Reply"` votes until done(replied nodes) holds.

    Returns (outcome, seqs): "commit", "abort" at the first non-commit vote,
    or "timeout" when no message arrives within `timeout` ticks. seqs is the
    max reported seqNum per write item of the body, zero when none reported.
    """
    for n in contact:
        yield SendMsg(("node", n), pmsg(kind, body))
    reply = kind + "Reply"
    seqs = {k: 0 for k, _ in body.get("writes", ())}
    replied: set[int] = set()
    while not done(replied):
        m = yield WaitRecv(timeout=timeout)
        if m is TIMEOUT:
            return "timeout", seqs
        pl = m.payload
        if pl["kind"] != reply:
            continue
        if pl["body"]["vote"] != "commit":
            return "abort", seqs
        replied.add(m.src.node)
        for k, s in pl["body"].get("writeSeqs", ()):
            seqs[k] = max(seqs[k], s)
    return "commit", seqs


def _txn_body(tid, reads, writes) -> dict:
    return {"tid": tid, "reads": reads, "writes": [[k, v] for k, v in writes]}


def _validation(env: ProtocolEnv, tid, reads, writes):
    """Single round: every contacted node checks read seqNums and long-locks
    write items; all-commit votes from per-group quorums decide commit.

    no-ddap writers also wait until only f nodes can be missing; no-seamless
    waits for every contacted node, and a timeout hands control back for the
    restart fallback. With no node to contact, the round sends nothing and
    its empty quorum holds at once: a commit without messages."""
    contact = _decision_contacts(env, reads, writes)
    items = [k for k, _ in reads] + [k for k, _ in writes]
    total_needed = timeout = None
    if env.variant.tag == NO_SEAMLESS:
        total_needed, timeout = len(contact), env.validation_timeout
    elif env.variant.tag == NO_DDAP and writes:
        total_needed = env.config.n_nodes - env.placement.f
    outcome, seqs = yield from _round(
        contact, "validate", _txn_body(tid, reads, writes),
        lambda replied: env.quorum_met(items, replied, total_needed), timeout=timeout,
    )
    return outcome, seqs, contact


def _two_round_validation(env: ProtocolEnv, tid, reads, writes):
    """no-fast: lock the write set first, then re-check read seqNums. The
    validation is two round trips by construction: a writer with an empty
    read set still runs a (degenerate) check round against its write nodes."""
    contact = _decision_contacts(env, reads, writes)
    witems = [k for k, _ in writes]
    seqs: dict[str, int] = {}
    if writes:
        outcome, seqs = yield from _round(
            env.item_nodes(witems), "lock", {"tid": tid, "writes": [[k, v] for k, v in writes]},
            lambda replied: env.quorum_met(witems, replied),
        )
        if outcome != "commit":
            return outcome, None, contact
    quorum_items = [k for k, _ in reads] or witems
    if quorum_items:
        outcome, _ = yield from _round(
            env.item_nodes(quorum_items), "check", {"tid": tid, "reads": reads},
            lambda replied: env.quorum_met(quorum_items, replied),
        )
        if outcome != "commit":
            return outcome, None, contact
    return "commit", seqs, contact


# ---------------------------------------------------------------------------
# Node message handlers
# ---------------------------------------------------------------------------


def _handle_read(env: ProtocolEnv, node: int, client, body):
    """Lock-free atomic read of (val, seqNum); only trivial primitives."""
    key = body["key"]
    for _ in range(READ_RETRY_BOUND):
        s1 = yield PrimOp(f"{key}.lockS", "read")
        if s1 is not None:
            continue  # wait-and-recheck; counts as a failed attempt
        seq = yield PrimOp(f"{key}.seqNum", "read")
        s2 = yield PrimOp(f"{key}.lockS", "read")
        if s2 is not None:
            continue
        val = yield PrimOp(f"{key}.val", "read")
        seq2 = yield PrimOp(f"{key}.seqNum", "read")
        if seq2 != seq:
            continue
        yield SendMsg(client, pmsg("readReply", {
            "key": key, "round": body.get("round"), "val": val, "seq": seq, "vote": "ok",
        }))
        return
    yield SendMsg(client, pmsg("readReply", {
        "key": key, "round": body.get("round"), "val": None, "seq": None, "vote": "abort",
    }))


def _local_items(env: ProtocolEnv, node: int, keys) -> list[str]:
    return sorted(k for k in set(keys) if node in env.placement.groups[k])


def _handle_validate(env: ProtocolEnv, node: int, client, body, reply: str):
    """base / weak-ir validation and no-fast's lock round: read items must be
    lock-free with matching seqNums; write items get lockL CASed. weak-ir
    writers also lock reads."""
    tid = body["tid"]
    reads = dict((k, s) for k, s in body.get("reads", ()))
    writes = dict((k, v) for k, v in body["writes"])
    lock_reads = env.variant.tag == WEAK_IR and bool(writes)
    success = True
    write_seqs = []
    cased: list[str] = []
    for key in _local_items(env, node, list(reads) + list(writes)):
        held = yield PrimOp(f"{key}.lockL", "read")
        if held is not None:
            success = False
            break
        if key in reads:
            seq = yield PrimOp(f"{key}.seqNum", "read")
            if seq != reads[key]:
                success = False
                break
        if key in writes or lock_reads:
            ok = yield PrimOp(f"{key}.lockL", "cas", [None, tid])
            if not ok:
                success = False
                break
            cased.append(f"{key}.lockL")
        if key in writes:
            seq = yield PrimOp(f"{key}.seqNum", "read")
            write_seqs.append([key, seq])
    if success:
        yield SendMsg(client, pmsg(reply, {"vote": "commit", "writeSeqs": write_seqs}))
    else:
        for obj in cased:
            yield PrimOp(obj, "write", [None])
        yield SendMsg(client, pmsg(reply, {"vote": "abort", "writeSeqs": []}))


def _handle_validate_global(env: ProtocolEnv, node: int, client, body):
    """no-ddap validation: one long lock per node. Writers CAS it on every
    node; read-only transactions only check it plus their seqNums."""
    tid = body["tid"]
    reads = dict((k, s) for k, s in body["reads"])
    writes = dict((k, v) for k, v in body["writes"])
    success = True
    locked = False
    write_seqs = []
    held = yield PrimOp(GLOBAL_LOCK, "read")
    if held is not None:
        success = False
    if success and writes:
        ok = yield PrimOp(GLOBAL_LOCK, "cas", [None, tid])
        if not ok:
            success = False
        else:
            locked = True
    if success:
        for key in _local_items(env, node, list(reads)):
            seq = yield PrimOp(f"{key}.seqNum", "read")
            if seq != reads[key]:
                success = False
                break
        if success:
            for key in _local_items(env, node, list(writes)):
                seq = yield PrimOp(f"{key}.seqNum", "read")
                write_seqs.append([key, seq])
    if success:
        yield SendMsg(client, pmsg("validateReply", {"vote": "commit", "writeSeqs": write_seqs}))
    else:
        if locked:
            yield PrimOp(GLOBAL_LOCK, "write", [None])
        yield SendMsg(client, pmsg("validateReply", {"vote": "abort", "writeSeqs": []}))


def _handle_check(env: ProtocolEnv, node: int, client, body):
    """no-fast round 2: verify read seqNums with no lock movement."""
    tid = body["tid"]
    reads = dict((k, s) for k, s in body["reads"])
    success = True
    for key in _local_items(env, node, list(reads)):
        held = yield PrimOp(f"{key}.lockL", "read")
        if held not in (None, tid):
            success = False
            break
        seq = yield PrimOp(f"{key}.seqNum", "read")
        if seq != reads[key]:
            success = False
            break
    yield SendMsg(client, pmsg("checkReply", {"vote": "commit" if success else "abort"}))


def _install_write(tid, key, val, seq):
    """Apply one committed write under lockS; a stale seqNum is skipped."""
    while True:
        ok = yield PrimOp(f"{key}.lockS", "cas", [None, tid])
        if ok:
            break
    cur = yield PrimOp(f"{key}.seqNum", "read")
    if cur < seq:
        yield PrimOp(f"{key}.seqNum", "write", [seq])
        yield PrimOp(f"{key}.val", "write", [val])
    yield PrimOp(f"{key}.lockS", "write", [None])


def _release_long_lock(tid, obj):
    held = yield PrimOp(obj, "read")
    if held == tid:
        yield PrimOp(obj, "write", [None])


def _release_writer_locks(env: ProtocolEnv, node: int, body):
    """Release the long locks a writer holds beyond its write items:
    no-ddap's node lock and weak-ir's read-item locks."""
    if not body["writes"]:
        return
    tid = body["tid"]
    if env.variant.tag == NO_DDAP:
        yield from _release_long_lock(tid, GLOBAL_LOCK)
    elif env.variant.tag == WEAK_IR:
        for key in _local_items(env, node, [k for k, _ in body["reads"]]):
            yield from _release_long_lock(tid, f"{key}.lockL")


def _handle_commit(env: ProtocolEnv, node: int, body):
    tid = body["tid"]
    for key, val, seq in sorted(body["writes"]):
        if node not in env.placement.groups[key]:
            continue
        yield from _install_write(tid, key, val, seq)
        if env.variant.tag != NO_DDAP:
            yield from _release_long_lock(tid, f"{key}.lockL")
    yield from _release_writer_locks(env, node, body)


def _handle_abort(env: ProtocolEnv, node: int, body):
    tid = body["tid"]
    if env.variant.tag != NO_DDAP:
        for key in _local_items(env, node, [k for k, _ in body["writes"]]):
            yield from _release_long_lock(tid, f"{key}.lockL")
    yield from _release_writer_locks(env, node, body)


def _handle_restart(env: ProtocolEnv, node: int, body):
    """no-seamless fallback signal: drop every long lock held for this txn."""
    tid = body["tid"]
    keys = [k for k, _ in body["reads"]] + [k for k, _ in body["writes"]]
    for key in _local_items(env, node, keys):
        yield from _release_long_lock(tid, f"{key}.lockL")
