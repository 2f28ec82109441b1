"""Mechanical verifiers for the formal properties, over recorded traces.

Each checker returns a Verdict whose witness, on failure, can be re-validated
against the raw trace (a dependency cycle, a contending step pair, a depth
mismatch, or a replayable crash-injection schedule).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from . import engine
from .engine import Schedule, SimConfig
from .errors import InvariantViolation, ScheduleIncompatible
from .memory import GLOBAL_LOCK, contending_pairs
from .model import (
    CRASH,
    INVOKE,
    NOTE,
    PRIM,
    RECV,
    RESPONSE,
    SEND,
    CommittedHistory,
    ExecutionTrace,
    Step,
    TransactionProgram,
    derive_history,
    happened_before,
    txn_depth,
)

# Seeded random completion attempts the seamless-ft sweep makes per injected
# crash after the fair one, before it reports a caveated fail.
SEAMLESS_COMPLETIONS = 64


@dataclass
class Verdict:
    prop: str
    passed: bool
    witness: Any = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "pass": self.passed,
            "witness": self.witness,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Serializability
# ---------------------------------------------------------------------------


def _reads(history: CommittedHistory) -> Iterator[tuple[str, bool, list]]:
    """Every committed read as (item, initial, alternatives), with one
    alternative (edges, choices) per source the read may have had. The
    transactions are indices into ``history.txns()``.

    If the value read is the item's initial value (``initial``), the first
    alternative is that the reader precedes every other writer of the item.
    Each other transaction w that wrote the value gives the alternative that
    w precedes the reader, with one choice per third writer u: u precedes w,
    or follows the reader. A choice is a list of one-edge alternatives.
    Values are compared, never hashed, so they may be any JSON value.
    """
    writers: dict[str, dict[int, Any]] = {}
    for t, ops in enumerate(history.ops.values()):
        for kind, item, value in ops:
            if kind == "write":
                writers.setdefault(item, {})[t] = value
    for t, ops in enumerate(history.ops.values()):
        for kind, item, value in ops:
            if kind != "read":
                continue
            others = [w for w in writers.get(item, {}) if w != t]
            initial = value == history.initials.get(item)
            alternatives = [([(t, w) for w in others], [])] if initial else []
            for w in others:
                if writers[item][w] == value:
                    choices = [[([(u, w)], []), ([(t, u)], [])] for u in others if u != w]
                    alternatives.append(([(w, t)], choices))
            yield item, initial, alternatives


def _dependency_edges(history: CommittedHistory) -> list[dict]:
    """The witness's precedence edges: a read of the initial value precedes
    every other writer of its item (read-initial); any other read follows
    each writer of its value (reads-from)."""
    txns, edges = history.txns(), []
    for item, initial, alternatives in _reads(history):
        reason = "read-initial" if initial else "reads-from"
        for pairs, _ in alternatives[:1] if initial else alternatives:
            edges += [{"from": txns[a], "to": txns[b], "item": item, "reason": reason} for a, b in pairs]
    return edges


def _find_cycle(txns: list[str], edges: list[dict]) -> list[str] | None:
    adj: dict[str, list[str]] = {t: [] for t in txns}
    for e in edges:
        adj[e["from"]].append(e["to"])
    color: dict[str, int] = {t: 0 for t in txns}
    stack: list[str] = []

    def dfs(t: str) -> list[str] | None:
        color[t] = 1
        stack.append(t)
        for nxt in adj[t]:
            if color[nxt] == 1:
                return stack[stack.index(nxt):]
            if color[nxt] == 0:
                cyc = dfs(nxt)
                if cyc is not None:
                    return cyc
        stack.pop()
        color[t] = 2
        return None

    for t in txns:
        if color[t] == 0:
            cyc = dfs(t)
            if cyc is not None:
                lo = cyc.index(min(cyc))
                return cyc[lo:] + cyc[:lo]
    return None


def _reaches(reach: list[int], a: int, b: int) -> bool:
    """Is b a, or must b follow a? Bit b of ``reach[a]`` says the latter."""
    return a == b or bool(reach[a] >> b & 1)


def _add_edge(reach: list[int], a: int, b: int) -> bool:
    """Closes ``reach`` under the new edge a -> b; False if it closes a cycle."""
    if _reaches(reach, b, a):
        return False
    after, bit = reach[b] | 1 << b, 1 << a
    for i, r in enumerate(reach):
        if i == a or r & bit:
            reach[i] = r | after
    return True


def _propagate(reach: list[int], constraints: list) -> list | None:
    """Unit propagation: drops every alternative whose edges close a cycle,
    takes the last one left, and drops a constraint that already holds,
    until nothing changes. Returns the open constraints, None on a conflict."""
    changed = True
    while changed:
        changed, still_open = False, []
        for alternatives in constraints:
            live = [alt for alt in alternatives if not any(_reaches(reach, b, a) for a, b in alt[0])]
            if len(live) == 1:
                edges, choices = live[0]
                if not all(_add_edge(reach, a, b) for a, b in edges):
                    return None
                still_open += choices
                changed = True
            elif not live:
                return None
            elif not any(not choices and all(_reaches(reach, a, b) for a, b in edges)
                         for edges, choices in live):
                still_open.append(live)
        constraints = still_open
    return constraints


def _earliest_first(txns: list[str], reach: list[int]) -> list[str]:
    """The topological order of ``reach`` that puts the earliest-listed
    transaction first wherever the graph lets it."""
    before = [sum(1 << i for i, r in enumerate(reach) if r >> j & 1) for j in range(len(txns))]
    order, placed = [], 0
    while len(order) < len(txns):
        j = next(j for j, b in enumerate(before) if not placed >> j & 1 and not b & ~placed)
        order.append(txns[j])
        placed |= 1 << j
    return order


def check_serializability(history: CommittedHistory) -> Verdict:
    """Exact at any size: is there a serial order of the committed
    transactions in which every read sees its item's last earlier write, or
    its initial value if no write comes earlier? Each transaction's reads
    precede its writes, as `derive_history` reports them.

    The reads' alternatives form a polygraph (Papadimitriou, JACM 1979). The
    search keeps the transitive closure of the edges taken so far, forces
    every choice one of whose sides would close a cycle (the pruning of
    Cobra, Tan et al., OSDI 2020), and branches only on what stays open.
    """
    txns = history.txns()
    stack = [([0] * len(txns), [alternatives for _, _, alternatives in _reads(history)])]
    while stack:
        reach, constraints = stack.pop()
        constraints = _propagate(reach, constraints)
        if constraints is None:
            continue
        if not constraints:
            return Verdict("serializability", True, witness={"serialOrder": _earliest_first(txns, reach)})
        first, rest = constraints[0], constraints[1:]
        stack += [(reach[:], [[alt], *rest]) for alt in reversed(first)]
    edges = _dependency_edges(history)
    return Verdict("serializability", False,
                   witness={"cycle": _find_cycle(txns, edges), "edges": edges})


def serializable_polygraph(history: CommittedHistory) -> bool:
    """`check_serializability`'s verdict alone, a name `perfbench` still uses."""
    return check_serializability(history).passed


# ---------------------------------------------------------------------------
# Progress and invisible reads
# ---------------------------------------------------------------------------


def check_weak_progress(traces: list[ExecutionTrace]) -> Verdict:
    """All transactions decided; solo (non-concurrent) transactions committed."""
    for idx, trace in enumerate(traces):
        programs = trace.scenario.transactions if trace.scenario else []
        ids = [p.txn_id for p in programs] or trace.txns()
        for t in ids:
            resp = trace.coordinator_response(t)
            if resp is None:
                return Verdict(
                    "weak-progress", False,
                    witness={"trace": idx, "txn": t, "reason": "undecided"},
                )
            solo = all(o == t or not trace.index.concurrent(t, o) for o in ids)
            if solo and resp.outcome != "commit":
                return Verdict(
                    "weak-progress", False,
                    witness={"trace": idx, "txn": t, "reason": "solo transaction aborted"},
                )
    return Verdict("weak-progress", True, details={"traces": len(traces)})


def check_weak_ir(trace: ExecutionTrace) -> Verdict:
    """Transactions whose reported write set is empty execute no non-trivial prims."""
    empty_ws = set()
    for s in trace.steps:
        if s.kind == RESPONSE and s.outcome is not None and not s.write_set:
            empty_ws.add(s.txn)
    for s in trace.steps:
        if s.kind == PRIM and s.nontrivial and s.txn in empty_ws:
            return Verdict(
                "weak-ir", False,
                witness={"txn": s.txn, "step": s.i, "obj": s.obj, "op": s.op},
            )
    return Verdict("weak-ir", True, details={"readOnlyTxns": sorted(empty_ws)})


def _nontrivial_footprint(trace: ExecutionTrace, txn: str) -> list[tuple]:
    out = []
    for s in trace.steps:
        if s.kind == PRIM and s.nontrivial and s.txn == txn:
            out.append((s.proc.node, s.obj, s.op, repr(s.fields.get("args")), repr(s.fields.get("ret"))))
    return sorted(out)


def _structural_projection(trace: ExecutionTrace, txn: str) -> list[tuple]:
    """A transaction's step sequence with message ids and indices erased."""
    out = []
    for s in trace.steps:
        if s.txn != txn:
            continue
        proc = s.proc.to_json() if s.proc else None
        if s.kind == PRIM:
            content = (s.obj, s.op, repr(s.fields.get("args")), repr(s.fields.get("ret")))
        elif s.kind in (SEND, RECV):
            content = (repr(s.payload),)
        elif s.kind == RESPONSE:
            content = (s.outcome, repr(s.read_set), repr(s.write_set))
        elif s.kind == NOTE:
            content = (s.tag, repr(s.data))
        else:
            content = ()
        out.append((s.kind, repr(proc), content))
    return out


def check_strong_ir(trace: ExecutionTrace) -> Verdict:
    """Twin substitution: re-run with each writing transaction replaced by a
    write-only twin (same values, empty read set) and compare non-trivial
    footprints; other transactions' step sequences must not change."""
    weak = check_weak_ir(trace)
    if not weak.passed:
        return Verdict("strong-ir", False, witness=weak.witness,
                       details={"reason": "weak invisible reads violated"})
    if trace.scenario is None or trace.algorithm is None:
        raise ScheduleIncompatible("strong-ir needs the trace's scenario/algorithm refs")

    checked = []
    for prog in trace.scenario.transactions:
        txn = prog.txn_id
        resp = trace.coordinator_response(txn)
        if resp is None or not resp.write_set:
            continue  # covered by the weak-IR clause
        if not prog.read_set:
            checked.append({"txn": txn, "twin": "identity"})
            continue
        schedule = _twin_schedule(trace.schedule)
        twin_prog = TransactionProgram(
            txn, prog.client, [], [(item, "always", value) for item, value in resp.write_set]
        )
        twin_scenario = replace(
            trace.scenario,
            transactions=[twin_prog if p.txn_id == txn else p for p in trace.scenario.transactions],
        )
        twin_res = engine.run(trace.scenario.config, trace.algorithm, twin_scenario, schedule)
        orig_fp = _nontrivial_footprint(trace, txn)
        twin_fp = _nontrivial_footprint(twin_res.trace, txn)
        if orig_fp != twin_fp:
            missing = [x for x in orig_fp if x not in twin_fp]
            extra = [x for x in twin_fp if x not in orig_fp]
            return Verdict(
                "strong-ir", False,
                witness={"txn": txn, "onlyInOriginal": missing, "onlyInTwin": extra},
            )
        for other in trace.scenario.transactions:
            if other.txn_id == txn:
                continue
            if _structural_projection(trace, other.txn_id) != _structural_projection(
                twin_res.trace, other.txn_id
            ):
                return Verdict(
                    "strong-ir", False,
                    witness={"txn": txn, "perturbed": other.txn_id},
                )
        checked.append({"txn": txn, "twin": "replayed"})
    return Verdict("strong-ir", True, details={"checked": checked})


def _twin_schedule(schedule_json: Any) -> Schedule:
    if schedule_json is None:
        return Schedule("fair")
    sched = Schedule.from_json(schedule_json)
    if sched.kind == "scripted":
        # The twin skips its read phase, so recorded decision lists do not
        # transfer (message ids diverge); the definition's substitution is
        # only checked for policy-driven schedules.
        raise ScheduleIncompatible(
            "cannot re-run a scripted schedule against a read-stripped twin"
        )
    return sched


# ---------------------------------------------------------------------------
# Disjoint-access parallelism
# ---------------------------------------------------------------------------


def _disjoint_access(trace: ExecutionTrace, prop: str, per_node: bool) -> Verdict:
    """The first contending step pair whose transactions share no data item,
    or, with ``per_node``, none on the contended node's shard."""
    data = {p.txn_id: p.data_set() for p in trace.scenario.transactions}
    for i, j in sorted(contending_pairs(trace)):
        if i > j:
            continue
        s1, s2 = trace.steps[i], trace.steps[j]
        node = s1.proc.node
        shared = data[s1.txn] & data[s2.txn]
        if per_node:
            shared &= set(trace.scenario.local_items(node))
        if not shared:
            return Verdict(
                prop, False,
                witness={"steps": [i, j], "obj": s1.obj, "node": node,
                         "txns": sorted([s1.txn, s2.txn])},
            )
    return Verdict(prop, True)


def check_dap(trace: ExecutionTrace) -> Verdict:
    """Transactions with disjoint data sets must never contend."""
    return _disjoint_access(trace, "dap", per_node=False)


def check_ddap(trace: ExecutionTrace) -> Verdict:
    """Contention on a node requires the data sets to intersect on that node's shard."""
    return _disjoint_access(trace, "ddap", per_node=True)


# ---------------------------------------------------------------------------
# Fast decision and read delay
# ---------------------------------------------------------------------------


def check_fast_decision(trace: ExecutionTrace) -> Verdict:
    """On a synchronous failure-free solo trace: knowledge of read values must
    grow every two message delays, and the decision lands within two delays of
    the last value learned."""
    crash_free = not any(s.kind == CRASH for s in trace.steps)
    if not crash_free:
        return Verdict("fast-decision", False,
                       witness={"reason": "trace is not failure-free"})
    index = trace.index
    results = []
    for txn in index.txn_steps:
        resp = trace.coordinator_response(txn)
        if resp is None:
            continue
        if any(o != txn and index.concurrent(txn, o) for o in index.txn_steps):
            return Verdict("fast-decision", False,
                           witness={"reason": f"{txn} did not run solo"})
        depth = txn_depth(trace, txn)
        notes = index.learned_notes[txn]
        learned_depths = [index.depths[i] for i in notes]
        pd = index.prefix_partial_depths(txn)
        # Partial depth never falls as the prefix grows, so among the prefixes
        # that hold the same `count` notes the first is the one to check.
        for count, length in enumerate([0] + [i + 1 for i in notes]):
            p = pd[length]
            if p < depth - 2 and (count >= len(notes) or learned_depths[count] > p + 2):
                return Verdict(
                    "fast-decision", False,
                    witness={
                        "txn": txn, "prefixLen": length, "partialDepth": p,
                        "txnDepth": depth, "learnedDepths": learned_depths,
                        "violated": "no new value within two delays",
                        "decisionSlack": depth - ((learned_depths[-1] if learned_depths else 0) + 2),
                    },
                )
        if learned_depths and depth > learned_depths[-1] + 2:
            return Verdict(
                "fast-decision", False,
                witness={
                    "txn": txn, "txnDepth": depth, "learnedDepths": learned_depths,
                    "violated": "decision more than two delays after full knowledge",
                    "decisionSlack": depth - (learned_depths[-1] + 2),
                },
            )
        results.append({"txn": txn, "depth": depth, "learnedDepths": learned_depths})
    return Verdict("fast-decision", True, details={"transactions": results})


def check_read_delay(trace: ExecutionTrace) -> Verdict:
    """With f >= 1, no read value can be learned before partial depth 2."""
    for txn in trace.txns():
        if trace.coordinator_response(txn) is None:
            continue
        pd = trace.index.prefix_partial_depths(txn)
        for i in trace.index.learned_notes[txn]:
            if pd[i + 1] < 2:
                return Verdict(
                    "read-delay", False,
                    witness={"txn": txn, "step": i, "partialDepth": pd[i + 1]},
                )
    return Verdict("read-delay", True)


# ---------------------------------------------------------------------------
# Seamless fault tolerance
# ---------------------------------------------------------------------------


def _coordinator_signature(trace: ExecutionTrace) -> list[tuple]:
    sig = []
    for s in trace.steps:
        if s.proc is None or s.proc.kind != "client":
            continue
        if s.kind == INVOKE:
            sig.append(("invoke", s.txn))
        elif s.kind == RESPONSE and s.outcome is not None:
            sig.append(("response", s.txn, s.outcome, repr(s.read_set), repr(s.write_set)))
    return sig


def _decided_depths(trace: ExecutionTrace) -> dict[str, int]:
    return {
        t: txn_depth(trace, t)
        for t in trace.txns()
        if trace.coordinator_response(t) is not None
    }


def check_seamless_ft(
    config: SimConfig,
    variant,
    scenario,
    schedule: Schedule,
    s: int,
) -> Verdict:
    """Inject one extra crash at every prefix position of the base run and
    search for a completion with identical coordinator invocation/response
    sequence and unchanged per-transaction depths. The search is a sound pass
    and a caveated fail: fair delivery first, then SEAMLESS_COMPLETIONS seeded
    random ones."""
    if s < 0:
        raise ValueError(f"the seamless-ft crash budget (--s) must be at least 0, got {s}")
    if s == 0:
        return Verdict("seamless-ft", True, details={"s": 0, "reason": "vacuous"})
    if scenario.placement.f < s:
        return Verdict("seamless-ft", False,
                       witness={"reason": f"f={scenario.placement.f} < s={s}"})
    base = engine.run(config, variant, scenario, schedule)
    base_crashes = [s_ for s_ in base.trace.steps if s_.kind == CRASH]
    if len(base_crashes) > s - 1:
        return Verdict("seamless-ft", False,
                       witness={"reason": f"base run has {len(base_crashes)} crashes, needs <= {s - 1}"})
    base_sig = _coordinator_signature(base.trace)
    base_depths = _decided_depths(base.trace)
    crashed_nodes = {s_.fields["node"] for s_ in base_crashes}

    first_pos = 0
    for i, d in enumerate(base.decisions):
        if d.t == "crash":
            first_pos = i + 1

    # Walk the base run once; each injection branches from a clone of it at
    # its position, and each completion attempt from a clone of that branch.
    # An attempt stops once every transaction has decided: the signature and
    # the depths compared are fixed from then on.
    sim = engine.Simulation(config, variant, scenario, granularity=schedule.granularity)
    for d in base.decisions[:first_pos]:
        sim.apply(d)
    injections = 0
    for pos in range(first_pos, len(base.decisions) + 1):
        for node in range(config.n_nodes):
            if node in crashed_nodes:
                continue
            injections += 1
            crash = engine.Decision("crash", node=node)
            injected = sim.clone()
            injected.apply(crash)
            for attempt in range(SEAMLESS_COMPLETIONS + 1):
                trial = injected.clone()
                policy = engine.RandomPolicy(attempt) if attempt else engine.FairPolicy()
                engine.drive(trial, engine.UntilDecided(policy))
                trace = ExecutionTrace(trial.steps)
                if _coordinator_signature(trace) == base_sig and _decided_depths(trace) == base_depths:
                    break
                if attempt == 0:
                    first_trace = trace  # the fair completion is the witness
            else:
                prefix = list(base.decisions[:pos]) + [crash]
                witness = Schedule("scripted", prefix, granularity=schedule.granularity)
                return Verdict(
                    "seamless-ft", False,
                    witness={
                        "prefix": pos, "node": node,
                        "schedule": witness.to_json(),
                        "baseDepths": base_depths,
                        "injectedDepths": _decided_depths(first_trace),
                        "signatureChanged": _coordinator_signature(first_trace) != base_sig,
                        "caveat": "no seamless completion found within budget",
                    },
                )
        if pos < len(base.decisions):
            sim.apply(base.decisions[pos])
    return Verdict("seamless-ft", True, details={"s": s, "injectionsTried": injections})


# ---------------------------------------------------------------------------
# Trace invariant suite
# ---------------------------------------------------------------------------


def verify_trace_invariants(trace: ExecutionTrace) -> None:
    """Check the structural invariants every generated trace must satisfy,
    raising InvariantViolation on the first that fails.

    Covers: message integrity, crash finality, happened-before acyclicity,
    depth monotonicity along happened-before, per-item seqNum monotonicity,
    long-lock safety, lock release by interval end (crash-free traces), read
    atomicity (when the scenario is attached), decision agreement, weak
    invisible reads, and the read-delay bound (when f >= 1 and k >= 3).
    """
    # Message integrity: unique matching sends, no double delivery.
    seen_recv: set[Any] = set()
    sends: dict[Any, Step] = {}
    for s in trace.steps:
        if s.kind == SEND:
            if s.msg_id in sends:
                raise InvariantViolation(f"duplicate send msgId {s.msg_id}")
            sends[s.msg_id] = s
        elif s.kind == RECV:
            if s.msg_id not in sends:
                raise InvariantViolation(f"recv {s.i} has no prior send")
            if s.msg_id in seen_recv:
                raise InvariantViolation(f"message {s.msg_id} delivered twice")
            if sends[s.msg_id].txn != s.txn:
                raise InvariantViolation("send/recv transaction mismatch")
            seen_recv.add(s.msg_id)

    # Crash finality.
    crashed_at: dict[int, int] = {}
    for s in trace.steps:
        if s.kind == CRASH:
            crashed_at[s.fields["node"]] = s.i
        elif s.proc is not None and s.proc.kind == "node" and s.proc.node in crashed_at:
            raise InvariantViolation(
                f"step {s.i} on node {s.proc.node} after its crash at {crashed_at[s.proc.node]}"
            )

    # Happened-before is a strict partial order aligned with trace order.
    hb = happened_before(trace)
    for (a, b) in hb:
        if not a < b:
            raise InvariantViolation(f"happened-before edge ({a},{b}) goes backwards")

    # Depth monotone along happened-before within a transaction.
    depths = trace.index.depths
    for (a, b) in hb:
        sa, sb = trace.steps[a], trace.steps[b]
        if sa.txn is not None and sa.txn == sb.txn and depths[a] is not None and depths[b] is not None:
            if not depths[a] <= depths[b]:
                raise InvariantViolation(f"depth not monotone on {a}->{b}")

    # seqNum monotone per (node, object).
    last_seq: dict[tuple[int, str], int] = {}
    for s in trace.steps:
        if s.kind == PRIM and s.op == "write" and s.obj.endswith(".seqNum"):
            key = (s.proc.node, s.obj)
            val = s.fields["args"][0]
            if not val >= last_seq.get(key, 0):
                raise InvariantViolation(f"seqNum decreased at step {s.i}")
            last_seq[key] = val

    # Long-lock safety: CAS wins only on free locks; writes release own locks.
    # Each lock's (step, holder) changes are kept for the release clause.
    holders: dict[tuple[int, str], Any] = {}
    lock_events: dict[tuple[int, str], list[tuple[int, Any]]] = {}
    for s in trace.steps:
        if s.kind != PRIM or not (s.obj.endswith(".lockL") or s.obj == GLOBAL_LOCK):
            continue
        key = (s.proc.node, s.obj)
        if s.op == "cas" and s.fields["ret"] is True:
            if holders.get(key) is not None:
                raise InvariantViolation(f"lock CAS won over a held lock at {s.i}")
            holders[key] = s.fields["args"][1]
        elif s.op == "write":
            holders[key] = s.fields["args"][0]
        else:
            continue
        lock_events.setdefault(key, []).append((s.i, holders[key]))

    # Every closed-interval transaction released its locks by interval end
    # (crash-free traces only; a crash may orphan a lock legitimately).
    if not crashed_at:
        for txn, (start, end) in trace.index.intervals.items():
            if end >= len(trace.steps) - 1:
                continue  # interval still open at trace end
            for key, events in lock_events.items():
                holder = None
                for i, v in events:
                    if i <= end:
                        holder = v
                if holder == txn:
                    raise InvariantViolation(f"{txn} still holds {key} at interval end {end}")

    # Read atomicity: every ok ReadReply pair matches a state the replica held.
    states: dict[tuple[int, str], set[tuple]] = {}
    cur_seq: dict[tuple[int, str], int] = {}
    cur_val: dict[tuple[int, str], Any] = {}
    if trace.scenario is not None:
        for node in range(trace.scenario.config.n_nodes):
            for item in trace.scenario.local_items(node):
                cur_seq[(node, item)] = 0
                cur_val[(node, item)] = trace.scenario.placement.initials[item]
                states[(node, item)] = {(0, repr(trace.scenario.placement.initials[item]))}
        for s in trace.steps:
            if s.kind != PRIM or s.op != "write":
                continue
            if s.obj.endswith(".seqNum"):
                key = (s.proc.node, s.obj[: -len(".seqNum")])
                if key in cur_seq:
                    cur_seq[key] = s.fields["args"][0]
            elif s.obj.endswith(".val"):
                key = (s.proc.node, s.obj[: -len(".val")])
                if key in cur_val:
                    cur_val[key] = s.fields["args"][0]
                    states[key].add((cur_seq[key], repr(cur_val[key])))
        for s in trace.steps:
            if s.kind != SEND or s.payload.get("kind") != "readReply":
                continue
            body = s.payload["body"]
            if body["vote"] != "ok":
                continue
            key = (s.proc.node, body["key"])
            if (body["seq"], repr(body["val"])) not in states[key]:
                raise InvariantViolation(f"ReadReply at {s.i} returned a state the replica never held")

    # Decision agreement: a commit broadcast happens only if no abort vote
    # reached the coordinator before it (late abort votes may drain after).
    first_commit_send: dict[str, int] = {}
    for s in trace.steps:
        if (
            s.kind == SEND
            and s.proc is not None
            and s.proc.kind == "client"
            and s.payload.get("kind") == "commit"
        ):
            first_commit_send.setdefault(s.txn, s.i)
    for s in trace.steps:
        if s.kind != RECV or s.proc is None or s.proc.kind != "client":
            continue
        body = (s.payload or {}).get("body") or {}
        if body.get("vote") == "abort" and s.txn in first_commit_send:
            if not s.i > first_commit_send[s.txn]:
                raise InvariantViolation(f"{s.txn} broadcast commit after receiving an abort vote at {s.i}")

    # Weak invisible reads holds on every generated trace of these protocols.
    weak = check_weak_ir(trace)
    if not weak.passed:
        raise InvariantViolation(f"weak-ir violated: {weak.witness}")

    # Fault-tolerant configurations can never learn a read value before
    # partial depth 2 (the read-delay lower bound, asserted at runtime).
    if (
        trace.scenario is not None
        and trace.scenario.placement.f >= 1
        and trace.scenario.placement.k >= 3
    ):
        rd = check_read_delay(trace)
        if not rd.passed:
            raise InvariantViolation(f"read-delay violated: {rd.witness}")


def _check_seamless_ft_of_trace(trace: ExecutionTrace, s: int = 1) -> Verdict:
    return check_seamless_ft(
        trace.scenario.config, trace.algorithm, trace.scenario, Schedule.from_json(trace.schedule), s=s,
    )


# Every property `pdtsim check` decides on one recorded trace, in the CLI's order.
# `pdtsim matrix` uses it too. Entries look their checker up when called, so a
# wrapper installed on a module function (a profiler, a tracer) sees the call.
CHECKERS_BY_NAME: dict[str, Callable[..., Verdict]] = {
    "serializability": lambda trace: check_serializability(derive_history(trace)),
    "weak-progress": lambda trace: check_weak_progress([trace]),
    "weak-ir": lambda trace: check_weak_ir(trace),
    "strong-ir": lambda trace: check_strong_ir(trace),
    "dap": lambda trace: check_dap(trace),
    "ddap": lambda trace: check_ddap(trace),
    "fast-decision": lambda trace: check_fast_decision(trace),
    "seamless-ft": _check_seamless_ft_of_trace,
    "read-delay": lambda trace: check_read_delay(trace),
}
PROPERTIES = tuple(CHECKERS_BY_NAME)

# Trace refs a property reads from the .meta.json sidecar.
SIDECAR_REFS: dict[str, tuple[str, ...]] = {
    "strong-ir": ("scenario", "algorithm"),
    "dap": ("scenario",),
    "ddap": ("scenario",),
    "seamless-ft": ("scenario", "schedule"),
}
