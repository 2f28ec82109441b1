"""Instrumented per-node shared memory.

Every data item replica is four base objects ("X1.val", "X1.seqNum",
"X1.lockS", "X1.lockL") plus one "node.globalLock" per node. Every access is
one NodeMemory.apply of a read, write or cas, which the engine logs as exactly
one primitive step; reads are trivial, writes and both CAS outcomes are
non-trivial (a CAS may modify the object regardless of success; the
alternative reading, where a failed CAS is trivial, is noted but not adopted).
"""
from __future__ import annotations

from typing import Any

from .errors import CrossNodeAccess
from .model import PRIM, ExecutionTrace, Step

GLOBAL_LOCK = "node.globalLock"

READ = "read"
WRITE = "write"
CAS = "cas"


class NodeMemory:
    """Base objects of one node."""

    def __init__(self, node_id: int, items: list[str], initials: dict[str, Any]):
        self.node_id = node_id
        self.cells: dict[str, Any] = {GLOBAL_LOCK: None}
        for item in items:
            self.cells[f"{item}.val"] = initials[item]
            self.cells[f"{item}.seqNum"] = 0
            self.cells[f"{item}.lockS"] = None
            self.cells[f"{item}.lockL"] = None

    def apply(self, op: str, name: str, args: list) -> tuple[Any, bool]:
        """Run one primitive; returns (return value, nontrivial flag). The
        caller picks the memory of the process's own node, so an unknown
        object is one that this node does not hold."""
        cells = self.cells
        if name not in cells:
            raise CrossNodeAccess(f"no base object {name!r} on node {self.node_id}")
        if op == READ:
            return cells[name], False
        if op == WRITE:
            cells[name] = args[0]
            return None, True
        if op == CAS:
            ok = cells[name] == args[0]
            if ok:
                cells[name] = args[1]
            return ok, True
        raise ValueError(f"unknown primitive {op!r}")

    def snapshot(self) -> dict[str, Any]:
        return dict(self.cells)

    def clone(self) -> "NodeMemory":
        mem = NodeMemory.__new__(NodeMemory)
        mem.node_id = self.node_id
        mem.cells = dict(self.cells)
        return mem


def replay_nontrivial(trace: ExecutionTrace, node_id: int, items: list[str],
                      initials: dict[str, Any]) -> dict[str, Any]:
    """Re-apply only the non-trivial prims of one node against fresh objects.

    Read steps are side-effect-free, so this must reproduce the node's final
    memory state.
    """
    mem = NodeMemory(node_id, items, initials)
    for s in trace.steps:
        if s.kind != PRIM or not s.nontrivial:
            continue
        if s.proc is None or s.proc.node != node_id:
            continue
        mem.apply(s.op, s.obj, s.fields.get("args") or [])
    return mem.snapshot()


def contending_pairs(trace: ExecutionTrace) -> set[tuple[int, int]]:
    """All pairs of primitive steps that contend, in both orientations.

    Two prims contend when they come from distinct concurrent transactions,
    touch the same base object on the same node, and at least one of them is
    non-trivial.
    """
    by_obj: dict[tuple[int, str], list[Step]] = {}
    for s in trace.steps:
        if s.kind == PRIM and s.proc is not None and s.txn is not None:
            by_obj.setdefault((s.proc.node, s.obj), []).append(s)

    concurrent = trace.index.concurrent
    out: set[tuple[int, int]] = set()
    for steps in by_obj.values():
        for a in range(len(steps)):
            for b in range(a + 1, len(steps)):
                s1, s2 = steps[a], steps[b]
                if s1.txn == s2.txn:
                    continue
                if not (s1.nontrivial or s2.nontrivial):
                    continue
                if not concurrent(s1.txn, s2.txn):
                    continue
                out.add((s1.i, s2.i))
                out.add((s2.i, s1.i))
    return out
