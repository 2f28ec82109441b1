"""Scenario library: placements, transaction programs, and the builtin
adversarial schedules that drive the two counterexample executions.

The builtin schedules are not hand-written decision lists; a policy delivers
read traffic first, withholding each transaction's quorum-completing read
reply, then releases those replies in transaction order, then delivers
validations in each node's own priority order. `engine.drive` applies its
decisions, and the recorded decisions become a replayable script.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import ASYNC_GST, Decision, Message, Schedule, SimConfig, Simulation, drive
from .errors import PlacementError
from .model import DataPlacement, TransactionProgram, json_list, json_object

BOTTOM = None  # the uninitialized item value


@dataclass
class Scenario:
    name: str
    placement: DataPlacement
    transactions: list[TransactionProgram]
    config: SimConfig

    def __post_init__(self):
        ids = [t.txn_id for t in self.transactions]
        if len(set(ids)) != len(ids):
            raise PlacementError(f"duplicate transaction ids in scenario {self.name!r}")
        self.placement.validate_against(self.config.n_nodes)
        for t in self.transactions:
            for item in t.data_set():
                if item not in self.placement.initials:
                    raise PlacementError(f"{t.txn_id} touches unknown item {item!r}")
            written = set()
            for target, cond, value in t.write_rule:
                if target in written:
                    # Commit would install one value and the response report both.
                    raise PlacementError(f"{t.txn_id} writes {target!r} twice")
                written.add(target)
                if cond == "allReadsInitial" and value == self.placement.initials[target]:
                    raise PlacementError(
                        f"{t.txn_id} must write a non-initial value to {target!r}"
                    )
            if not (0 <= t.client < self.config.n_clients):
                raise PlacementError(f"{t.txn_id} assigned to unknown client {t.client}")

    def local_items(self, node: int) -> list[str]:
        return sorted(i for i, grp in self.placement.groups.items() if node in grp)

    def to_json(self) -> dict:
        d = self.placement.to_json()
        d["name"] = self.name
        d["transactions"] = [t.to_json() for t in self.transactions]
        d["sim"] = self.config.to_json()
        return d

    @staticmethod
    def from_json(d: dict) -> "Scenario":
        d = json_object(d, "scenario")
        placement = DataPlacement.from_json(d)
        txns = [
            TransactionProgram.from_json(t)
            for t in json_list(d["transactions"], "scenario field 'transactions'")
        ]
        config = SimConfig(
            n_nodes=max((n for grp in placement.groups.values() for n in grp), default=0) + 1,
            procs_per_node=max(1, len(txns)),
            n_clients=max((t.client for t in txns), default=0) + 1,
        )
        if "sim" in d:
            # The section overrides only the keys it gives.
            sim = json_object(d["sim"], "sim config")
            config = SimConfig.from_json({**config.to_json(), **sim})
        return Scenario(d.get("name", "scenario"), placement, txns, config)


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def _fids(name: str, groups: dict[str, tuple[int, ...]], k: int) -> Scenario:
    """The two FIDS transactions over X1 and X2, placed by ``groups`` on two nodes."""
    txns = [
        TransactionProgram("t1", 0, ["X1"], [("X2", "allReadsInitial", "v2")]),
        TransactionProgram("t2", 1, ["X2"], [("X1", "allReadsInitial", "v1")]),
    ]
    placement = DataPlacement({"X1": BOTTOM, "X2": BOTTOM}, groups, k=k, f=0)
    config = SimConfig(n_nodes=2, procs_per_node=2, n_clients=2, delta=64, gst=ASYNC_GST)
    return Scenario(name, placement, txns, config)


def scenario_fids() -> Scenario:
    """Two items sharded on two nodes; each transaction reads one item and,
    if it saw the initial value, writes the other."""
    return _fids("fids", {"X1": (0,), "X2": (1,)}, k=1)


def scenario_fids_replicated() -> Scenario:
    """The same two transactions with both items replicated on both nodes.
    This is the placement the no-seamless variant requires."""
    return _fids("fids-replicated", {"X1": (0, 1), "X2": (0, 1)}, k=2)


def _on_three_nodes(name: str, items: Sequence[str], txns: list[TransactionProgram],
                    gst: int = 0) -> Scenario:
    """``txns`` over ``items``, every item replicated on nodes 0-2 (k=3,
    f=1), with a client and a process per node for each transaction."""
    placement = DataPlacement({i: BOTTOM for i in items}, {i: (0, 1, 2) for i in items}, k=3, f=1)
    config = SimConfig(n_nodes=3, procs_per_node=len(txns), n_clients=len(txns), delta=64, gst=gst)
    return Scenario(name, placement, txns, config)


RFIDS_ITEMS = ("X1", "X2", "X3")


def _rfids_program(i: int, client: int) -> TransactionProgram:
    # T_i reads X_{(i mod 3)+1}; writes X_i if the read returned the initial value.
    read = f"X{(i % 3) + 1}"
    return TransactionProgram(f"t{i}", client, [read], [(f"X{i}", "allReadsInitial", f"v{i}")])


def scenario_rfids() -> Scenario:
    """Three items replicated on three nodes; three transactions whose
    read/write sets chain into a cycle."""
    txns = [_rfids_program(i, i - 1) for i in (1, 2, 3)]
    return _on_three_nodes("rfids", RFIDS_ITEMS, txns, gst=ASYNC_GST)


def scenario_rfids_solo(i: int) -> Scenario:
    """Just T_i from the replicated cycle, for the crash-injected solo runs."""
    return _on_three_nodes(f"rfids-solo-{i}", RFIDS_ITEMS, [_rfids_program(i, 0)])


def scenario_solo(reads: int) -> Scenario:
    """One client transaction with `reads` read items and one written item,
    replicated k=3 f=1, synchronous. Solo depth of the base algorithm on this
    scenario is 2*reads + 2 (one round trip per read, one to validate)."""
    read_set = [f"X{j}" for j in range(1, reads + 1)]
    prog = TransactionProgram("t1", 0, read_set, [("Y", "allReadsInitial", "w")])
    return _on_three_nodes(f"solo-r{reads}", [*read_set, "Y"], [prog])


def scenario_disjoint_writers() -> Scenario:
    """Two write-only transactions on disjoint items, replicated everywhere.
    Disjoint data sets make any contention a DAP/DDAP violation."""
    return _on_three_nodes("disjoint-writers", ["X1", "X2"], [
        TransactionProgram("w1", 0, [], [("X1", "always", "a")]),
        TransactionProgram("w2", 1, [], [("X2", "always", "b")]),
    ])


def scenario_readonly_pair() -> Scenario:
    """A read-only transaction concurrent with a writer on another item."""
    return _on_three_nodes("readonly-pair", ["X1", "X2"], [
        TransactionProgram("r1", 0, ["X1"], []),
        TransactionProgram("w2", 1, ["X2"], [("X1", "never", None), ("X2", "always", "b")]),
    ])


BUILTIN_SCENARIOS = {
    "fids": scenario_fids,
    "rfids": scenario_rfids,
    "fids-replicated": scenario_fids_replicated,
    "disjoint-writers": scenario_disjoint_writers,
    "readonly-pair": scenario_readonly_pair,
    "solo-r0": lambda: scenario_solo(0),
    "solo-r1": lambda: scenario_solo(1),
    "solo-r2": lambda: scenario_solo(2),
    "solo-r3": lambda: scenario_solo(3),
}


def get_scenario(name: str) -> Scenario:
    key = name.removeprefix("builtin:")
    if key not in BUILTIN_SCENARIOS:
        raise PlacementError(f"unknown builtin scenario {name!r}")
    return BUILTIN_SCENARIOS[key]()


# ---------------------------------------------------------------------------
# Counterexample schedule builder
# ---------------------------------------------------------------------------


class _CounterexamplePolicy:
    """The priority order of build_counterexample_schedule as a drive policy:
    like FairPolicy, it picks among the enabled steps and deliveries."""

    def __init__(self, scenario: Scenario, txn_order: list[str],
                 validate_order: dict[int, list[str]], blocked: Iterable[tuple[str, int]]):
        self.clients = {t.client for t in scenario.transactions if t.txn_id in txn_order}
        self.txn_rank = {t: i for i, t in enumerate(txn_order)}
        self.validate_rank = {node: {t: i for i, t in enumerate(order)}
                              for node, order in validate_order.items()}
        self.short = scenario.placement.k - scenario.placement.f - 1  # replies short of a quorum
        self.blocked = set(blocked)
        self.replies: Counter[str] = Counter()  # read replies delivered, per transaction

    def next_decision(self, sim: Simulation) -> Decision | None:
        steps, deliveries = sim.schedulable()
        for d in steps:
            if d.proc.kind == "node" or d.proc.idx in self.clients:
                return d
        pending = [m for m in (sim.inflight[d.msg] for d in deliveries)
                   if (m.txn, m.dst[1] if m.dst[0] == "node" else m.src.node) not in self.blocked]
        msg = min(pending, key=self.rank, default=None)
        if msg is None:
            return None
        if msg.payload["kind"] == "readReply":
            self.replies[msg.txn] += 1
        return msg.deliver

    def rank(self, msg: Message) -> tuple:
        kind, replies, last = msg.payload["kind"], self.replies[msg.txn], len(self.txn_rank)
        txn = self.txn_rank.get(msg.txn, last)
        if kind == "read" or kind == "readReply" and replies < self.short:
            return (0, msg.msg_id)
        if kind == "readReply" and replies == self.short:
            return (1, txn, msg.msg_id)
        if msg.dst[0] == "node":
            order = self.validate_rank.get(msg.dst[1], self.txn_rank)
            return (2, msg.dst[1], order.get(msg.txn, last), msg.msg_id)
        return (3, txn, msg.msg_id)


def build_counterexample_schedule(
    variant,
    scenario: Scenario,
    txn_order: list[str],
    validate_order: dict[int, list[str]],
    blocked: Iterable[tuple[str, int]] = (),
) -> Schedule:
    """Drive the adversarial construction and record it as a script.

    Each decision steps a node process or a named transaction's client if
    one can step, the first in process order. Otherwise it delivers the
    enabled message that ranks lowest:

      1. read requests, and the read replies that leave their transaction
         short of its k-f quorum, in msg-id order;
      2. each transaction's deciding read reply, the one that completes its
         quorum, in txn order;
      3. node-bound messages, by node, then by the node's transaction
         priority in `validate_order` (txn order if it has none), then by
         msg id;
      4. client-bound messages, in txn order, then by msg id.

    So every transaction runs to the brink of learning its read value, then
    learns it in txn order and sends its validations, which each node
    receives in its own order, each handler running to completion. A
    (txn, node) pair in `blocked` is never delivered; the run ends when
    nothing is left to take.
    """
    sim = Simulation(scenario.config, variant, scenario, granularity="exact")
    for t in scenario.transactions:
        if len(t.read_set) != 1:
            # Rank 2 counts one quorum per transaction.
            raise PlacementError("counterexample builder expects single-read transactions: "
                                 f"{t.txn_id} reads {len(t.read_set)} items")
    named = {t.txn_id for t in scenario.transactions}
    if missing := [t for t in txn_order if t not in named]:
        raise PlacementError(f"counterexample schedule needs transactions {', '.join(missing)}, "
                             f"which scenario {scenario.name!r} lacks")
    drive(sim, _CounterexamplePolicy(scenario, txn_order, validate_order, blocked))
    return Schedule("scripted", list(sim.decisions_taken), granularity="exact")


def fids_schedule(variant, scenario: Scenario) -> Schedule:
    return build_counterexample_schedule(
        variant, scenario,
        txn_order=["t1", "t2"],
        validate_order={0: ["t1", "t2"], 1: ["t2", "t1"]},
    )


def rfids_schedule(variant, scenario: Scenario) -> Schedule:
    # Node i never talks to t_{i+1}'s handlers; write order per node follows
    # the replicated-cycle construction.
    return build_counterexample_schedule(
        variant, scenario,
        txn_order=["t1", "t2", "t3"],
        validate_order={0: ["t2", "t3"], 1: ["t3", "t1"], 2: ["t1", "t2"]},
        blocked={("t1", 0), ("t2", 1), ("t3", 2)},
    )


def builtin_schedule(name: str, variant, scenario: Scenario) -> Schedule:
    key = name.removeprefix("builtin:")
    if key == "fids":
        return fids_schedule(variant, scenario)
    if key == "rfids":
        return rfids_schedule(variant, scenario)
    raise PlacementError(f"unknown builtin schedule {name!r}")
