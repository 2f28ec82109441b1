"""Checks made apart from pdtsim.

Everything here reads recorded trace steps (kind, proc, txn and wire fields)
and recomputes what it needs itself: committed operations, final memory,
legal serial orders and contention witnesses. Nothing calls
pdtsim's analysis or checker code.
"""
from __future__ import annotations

import itertools
from typing import Any

GLOBAL_LOCK = "node.globalLock"

PROPERTIES = ("serializability", "fast-decision", "weak-ir", "strong-ir", "dap", "ddap", "seamless-ft")

# The paper's variant x property table: each tweak gives up exactly the
# property it is named for, the base algorithm gives up serializability.
PAPER_TABLE = {
    "base": {"serializability": False, "fast-decision": True, "weak-ir": True,
             "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": True},
    "no-fast": {"serializability": True, "fast-decision": False, "weak-ir": True,
                "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": True},
    "weak-ir": {"serializability": True, "fast-decision": True, "weak-ir": True,
                "strong-ir": False, "dap": True, "ddap": True, "seamless-ft": True},
    "no-seamless": {"serializability": True, "fast-decision": True, "weak-ir": True,
                    "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": False},
    "no-ddap": {"serializability": True, "fast-decision": True, "weak-ir": True,
                "strong-ir": True, "dap": False, "ddap": False, "seamless-ft": True},
}

# What each variant is named for losing.
NAMED_LOSS = {
    "base": {"serializability"},
    "no-fast": {"fast-decision"},
    "weak-ir": {"strong-ir"},
    "no-seamless": {"seamless-ft"},
    "no-ddap": {"dap", "ddap"},
}


def _is_client(step) -> bool:
    return step.proc is not None and step.proc.kind == "client"


def decisions(steps) -> dict[str, Any]:
    """txn -> outcome of its coordinator response."""
    return {
        s.txn: s.fields["outcome"]
        for s in steps
        if s.kind == "response" and _is_client(s) and s.fields.get("outcome") is not None
    }


def committed_ops(steps) -> dict[str, list[tuple[str, str, Any]]]:
    """Committed transactions' reads then writes, as their responses report them."""
    out = {}
    for s in steps:
        if s.kind == "response" and _is_client(s) and s.fields.get("outcome") == "commit":
            out[s.txn] = [("read", k, v) for k, v in s.fields["readSet"]] + [
                ("write", k, v) for k, v in s.fields["writeSet"]
            ]
    return out


def has_legal_serial_order(ops: dict[str, list], initials: dict[str, Any]) -> bool:
    """Brute force over every order of the committed transactions."""
    for order in itertools.permutations(ops):
        state = dict(initials)
        legal = True
        for txn in order:
            for kind, item, value in ops[txn]:
                if kind == "write":
                    state[item] = value
                elif state[item] != value:
                    legal = False
                    break
            if not legal:
                break
        if legal:
            return True
    return False


def bad_committed_reads(steps, initials: dict[str, Any]) -> list[tuple[str, str, Any]]:
    """Committed reads that return neither the initial value nor a value some
    other committed transaction wrote."""
    ops = committed_ops(steps)
    written = {(item, value): txn for txn, tops in ops.items() for kind, item, value in tops if kind == "write"}
    bad = []
    for txn, tops in ops.items():
        for kind, item, value in tops:
            if kind != "read" or value == initials[item]:
                continue
            if written.get((item, value)) in (None, txn):
                bad.append((txn, item, value))
    return bad


def replay_memory(steps, groups: dict[str, tuple[int, ...]], initials: dict[str, Any],
                  n_nodes: int) -> dict[int, dict[str, Any]]:
    """Each node's base objects after re-applying only the non-trivial prims,
    checking that every recorded CAS result matches the replayed state."""
    mem: dict[int, dict[str, Any]] = {}
    for node in range(n_nodes):
        cells: dict[str, Any] = {GLOBAL_LOCK: None}
        for item in sorted(i for i, grp in groups.items() if node in grp):
            cells.update({f"{item}.val": initials[item], f"{item}.seqNum": 0,
                          f"{item}.lockS": None, f"{item}.lockL": None})
        mem[node] = cells
    for s in steps:
        if s.kind != "prim" or not s.fields.get("nontrivial"):
            continue
        cells = mem[s.proc.node]
        obj, args = s.fields["obj"], s.fields["args"]
        if s.fields["op"] == "write":
            cells[obj] = args[0]
        elif s.fields["op"] == "cas":
            ok = cells[obj] == args[0]
            if ok != s.fields["ret"]:
                raise AssertionError(f"step {s.i}: CAS on {obj} returned {s.fields['ret']}, replay says {ok}")
            if ok:
                cells[obj] = args[1]
        else:
            raise AssertionError(f"step {s.i}: non-trivial {s.fields['op']!r}")
    return mem


def contention_witness_ok(steps, witness: dict, data_sets: dict[str, set[str]],
                          shard: set[str] | None) -> bool:
    """A dap/ddap FAIL witness, re-validated from the raw steps: two prims of
    the named transactions on the same node and object, at least one of them
    non-trivial, whose data sets are disjoint (on the node's shard for ddap)."""
    i, j = witness["steps"]
    a, b = steps[i], steps[j]
    if a.kind != "prim" or b.kind != "prim" or a.txn == b.txn:
        return False
    if sorted([a.txn, b.txn]) != witness["txns"]:
        return False
    if not (a.proc.node == b.proc.node == witness["node"]):
        return False
    if not (a.fields["obj"] == b.fields["obj"] == witness["obj"]):
        return False
    if not (a.fields.get("nontrivial") or b.fields.get("nontrivial")):
        return False
    common = data_sets[a.txn] & data_sets[b.txn]
    if shard is not None:
        common &= shard
    return not common
