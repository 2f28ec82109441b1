"""Scenario library: placements, transaction programs, and the builtin
adversarial schedules that drive the two counterexample executions.

The builtin schedules are not hand-written decision lists; a generator yields
the decisions of the counterexample phases (run every transaction to the
brink of learning its read value, then order validation deliveries per node)
to `engine.drive`, and the recorded decisions become a replayable script.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import (
    ASYNC_GST,
    Decision,
    Schedule,
    SimConfig,
    Simulation,
    drive,
)
from .errors import PlacementError
from .model import DataPlacement, ProcessRef, TransactionProgram, json_list, json_object

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
            for target, cond, value in t.write_rule:
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


def scenario_fids() -> Scenario:
    """Two items sharded on two nodes; each transaction reads one item and,
    if it saw the initial value, writes the other."""
    placement = DataPlacement(
        initials={"X1": BOTTOM, "X2": BOTTOM},
        groups={"X1": (0,), "X2": (1,)},
        k=1,
        f=0,
    )
    txns = [
        TransactionProgram("t1", 0, ["X1"], [("X2", "allReadsInitial", "v2")]),
        TransactionProgram("t2", 1, ["X2"], [("X1", "allReadsInitial", "v1")]),
    ]
    config = SimConfig(n_nodes=2, procs_per_node=2, n_clients=2, delta=64, gst=ASYNC_GST)
    return Scenario("fids", placement, txns, config)


def scenario_fids_replicated() -> Scenario:
    """The same two transactions with both items replicated on both nodes.
    This is the placement the no-seamless variant requires."""
    placement = DataPlacement(
        initials={"X1": BOTTOM, "X2": BOTTOM},
        groups={"X1": (0, 1), "X2": (0, 1)},
        k=2,
        f=0,
    )
    txns = [
        TransactionProgram("t1", 0, ["X1"], [("X2", "allReadsInitial", "v2")]),
        TransactionProgram("t2", 1, ["X2"], [("X1", "allReadsInitial", "v1")]),
    ]
    config = SimConfig(n_nodes=2, procs_per_node=2, n_clients=2, delta=64, gst=ASYNC_GST)
    return Scenario("fids-replicated", placement, txns, config)


RFIDS_ITEMS = ("X1", "X2", "X3")


def _rfids_placement() -> DataPlacement:
    return DataPlacement(
        initials={i: BOTTOM for i in RFIDS_ITEMS},
        groups={i: (0, 1, 2) for i in RFIDS_ITEMS},
        k=3,
        f=1,
    )


def _rfids_program(i: int) -> TransactionProgram:
    # T_i reads X_{(i mod 3)+1}; writes X_i if the read returned the initial value.
    read = f"X{(i % 3) + 1}"
    return TransactionProgram(f"t{i}", i - 1, [read], [(f"X{i}", "allReadsInitial", f"v{i}")])


def scenario_rfids() -> Scenario:
    """Three items replicated on three nodes; three transactions whose
    read/write sets chain into a cycle."""
    placement = _rfids_placement()
    txns = [_rfids_program(i) for i in (1, 2, 3)]
    config = SimConfig(n_nodes=3, procs_per_node=3, n_clients=3, delta=64, gst=ASYNC_GST)
    return Scenario("rfids", placement, txns, config)


def scenario_rfids_solo(i: int) -> Scenario:
    """Just T_i from the replicated cycle, for the crash-injected solo runs."""
    placement = _rfids_placement()
    prog = _rfids_program(i)
    prog = TransactionProgram(prog.txn_id, 0, prog.read_set, prog.write_rule)
    config = SimConfig(n_nodes=3, procs_per_node=1, n_clients=1, delta=64, gst=0)
    return Scenario(f"rfids-solo-{i}", placement, [prog], config)


def scenario_solo(reads: int) -> Scenario:
    """One client transaction with `reads` read items and one written item,
    replicated k=3 f=1, synchronous. Solo depth of the base algorithm on this
    scenario is 2*reads + 2 (one round trip per read, one to validate)."""
    items = {f"X{j}": BOTTOM for j in range(1, reads + 1)}
    items["Y"] = BOTTOM
    placement = DataPlacement(
        initials=items,
        groups={i: (0, 1, 2) for i in items},
        k=3,
        f=1,
    )
    prog = TransactionProgram(
        "t1", 0, [f"X{j}" for j in range(1, reads + 1)], [("Y", "allReadsInitial", "w")]
    )
    config = SimConfig(n_nodes=3, procs_per_node=1, n_clients=1, delta=64, gst=0)
    return Scenario(f"solo-r{reads}", placement, [prog], config)


def scenario_disjoint_writers() -> Scenario:
    """Two write-only transactions on disjoint items, replicated everywhere.
    Disjoint data sets make any contention a DAP/DDAP violation."""
    placement = DataPlacement(
        initials={"X1": BOTTOM, "X2": BOTTOM},
        groups={"X1": (0, 1, 2), "X2": (0, 1, 2)},
        k=3,
        f=1,
    )
    txns = [
        TransactionProgram("w1", 0, [], [("X1", "always", "a")]),
        TransactionProgram("w2", 1, [], [("X2", "always", "b")]),
    ]
    config = SimConfig(n_nodes=3, procs_per_node=2, n_clients=2, delta=64, gst=0)
    return Scenario("disjoint-writers", placement, txns, config)


def scenario_readonly_pair() -> Scenario:
    """A read-only transaction concurrent with a writer on another item."""
    placement = DataPlacement(
        initials={"X1": BOTTOM, "X2": BOTTOM},
        groups={"X1": (0, 1, 2), "X2": (0, 1, 2)},
        k=3,
        f=1,
    )
    txns = [
        TransactionProgram("r1", 0, ["X1"], []),
        TransactionProgram("w2", 1, ["X2"], [("X1", "never", None), ("X2", "always", "b")]),
    ]
    config = SimConfig(n_nodes=3, procs_per_node=2, n_clients=2, delta=64, gst=0)
    return Scenario("readonly-pair", placement, txns, config)


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


class _Yielded:
    """A drive policy that takes each decision from a generator."""

    def __init__(self, decisions: Iterator[Decision]):
        self.decisions = decisions

    def next_decision(self, sim: Simulation) -> Decision | None:
        return next(self.decisions, None)


def build_counterexample_schedule(
    config: SimConfig,
    variant,
    scenario: Scenario,
    txn_order: list[str],
    validate_order: dict[int, list[str]],
    blocked: Iterable[tuple[str, int]] = (),
) -> Schedule:
    """Drive the two-phase adversarial construction and record it as a script.

    Phase 1 runs every transaction, withholding the quorum-completing read
    reply, so nobody learns its read value. Phase 2 releases those replies in
    txn order. The drain phase then delivers node-bound messages per the
    given per-node transaction priority, running each handler to completion,
    with (txn, node) pairs in `blocked` never delivered at all; clients
    receive the rest in txn order. Each delivery is the message's own
    decision, so a node-bound one goes to the node's first idle process.
    """
    sim = Simulation(config, variant, scenario, granularity="exact")
    for t in scenario.transactions:
        if len(t.read_set) != 1:
            raise PlacementError("counterexample builder expects single-read transactions")
    client = {t.txn_id: sim.procs[ProcessRef.client(t.client)] for t in scenario.transactions}
    if missing := [t for t in txn_order if t not in client]:
        raise PlacementError(f"counterexample schedule needs transactions {', '.join(missing)}, "
                             f"which scenario {scenario.name!r} lacks")
    txn_rank = {t: i for i, t in enumerate(txn_order)}
    quorum = scenario.placement.k - scenario.placement.f
    blocked = set(blocked)
    released = {t: 0 for t in txn_order}  # read replies delivered in phase 1

    def unblocked(msg) -> bool:
        return (msg.txn, msg.dst[1] if msg.dst[0] == "node" else msg.src.node) not in blocked

    def run_client(t: str) -> Iterator[Decision]:
        while sim._steppable(client[t]):
            yield client[t].step

    def run_nodes() -> Iterator[Decision]:
        # Every node process with work steps once per round, until none has.
        nodes = [p for p in sim.procs.values() if p.ref.kind == "node"]
        while work := [p.step for p in nodes if sim._steppable(p)]:
            yield from work

    def serves_read(msg) -> bool:
        # Phase 1 delivers read requests, and read replies short of a quorum.
        if msg.dst[0] == "node":
            return msg.payload["kind"] == "read"
        return msg.payload["kind"] == "readReply" and released[msg.txn] < quorum - 1

    def drain_key(msg) -> tuple:
        # Node-bound messages first, per node in its validation priority;
        # then client-bound ones in txn order.
        if msg.dst[0] == "node":
            order = validate_order.get(msg.dst[1], txn_order)
            rank = order.index(msg.txn) if msg.txn in order else len(txn_order)
            return (0, msg.dst[1], rank, msg.msg_id)
        return (1, txn_rank.get(msg.txn, len(txn_order)), msg.msg_id)

    def phases() -> Iterator[Decision]:
        # Phase 1: invoke everyone, serve reads, withhold the deciding replies.
        for t in txn_order:
            yield from run_client(t)
        while True:
            yield from run_nodes()
            msg = next((m for m in sim.inflight.values() if unblocked(m) and serves_read(m)), None)
            if msg is None:
                break
            yield msg.deliver
            if msg.dst[0] == "client":
                released[msg.txn] += 1

        # Phase 2: let each transaction learn its value and send its validations.
        for t in txn_order:
            for msg in list(sim.inflight.values()):
                if (msg.txn == t and msg.dst[0] == "client" and unblocked(msg)
                        and msg.payload["kind"] == "readReply"):
                    yield msg.deliver
                    break
            yield from run_client(t)

        # Drain: nodes consume messages in the per-node priority order, each
        # handler running to completion; clients receive in send order.
        while True:
            yield from run_nodes()
            taken = len(sim.decisions_taken)
            for t in txn_order:
                yield from run_client(t)
            if len(sim.decisions_taken) == taken:
                pending = [m for m in sim.inflight.values() if unblocked(m)]
                msg = min(pending, key=drain_key, default=None)
                if msg is None:
                    return
                yield msg.deliver

    drive(sim, _Yielded(phases()))
    return Schedule("scripted", list(sim.decisions_taken), granularity="exact")


def fids_schedule(variant, scenario: Scenario | None = None) -> Schedule:
    scenario = scenario or scenario_fids()
    return build_counterexample_schedule(
        scenario.config, variant, scenario,
        txn_order=["t1", "t2"],
        validate_order={0: ["t1", "t2"], 1: ["t2", "t1"]},
    )


def rfids_schedule(variant, scenario: Scenario | None = None) -> Schedule:
    # Node i never talks to t_{i+1}'s handlers; write order per node follows
    # the replicated-cycle construction.
    scenario = scenario or scenario_rfids()
    return build_counterexample_schedule(
        scenario.config, variant, scenario,
        txn_order=["t1", "t2", "t3"],
        validate_order={0: ["t2", "t3"], 1: ["t3", "t1"], 2: ["t1", "t2"]},
        blocked={("t1", 0), ("t2", 1), ("t3", 2)},
    )


def builtin_schedule(name: str, variant, scenario: Scenario | None = None) -> Schedule:
    key = name.removeprefix("builtin:")
    if key == "fids":
        return fids_schedule(variant, scenario)
    if key == "rfids":
        return rfids_schedule(variant, scenario)
    raise PlacementError(f"unknown builtin schedule {name!r}")
