"""Seeded input generator for the benchmark workloads.

A generator seed goes in; pdtsim only ever sees the generated `Scenario`
objects and `Schedule`s. Make-up (see README.md):

* 8 items ``X1..X8`` with initial value ``None``, k=3 replicas, f=1.
* Two placements: ``sharded`` puts item ``Xi`` on nodes ``i, i+1, i+2``
  (mod 5) of 5 nodes; ``replicated`` puts every item on all 3 nodes, which
  ``no-seamless`` requires.
* Transactions are read-only, write-only or read-write in the ratio 3:2:5,
  exact per scenario. Readers read 1, 2, 3, 1, 2, 3, ... distinct items and
  writers write 1, 2, 1, 2, ... distinct items, each list shuffled, so every
  scenario of a size has the same make-up and only the seed's choices of
  order and items differ. Every write rule fires ("always") and writes the
  value ``"<txn>.<item>"``, unique per item, so reads-from is unambiguous.
  Transactions go round-robin to 4 clients.
* Engine defaults otherwise: 2 processes per node, delta 64, gst 0.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from pdtsim.engine import Schedule, SimConfig
from pdtsim.model import DataPlacement, TransactionProgram
from pdtsim.protocols import NO_SEAMLESS, VARIANTS
from pdtsim.scenarios import Scenario

ITEMS = [f"X{i}" for i in range(1, 9)]
N_CLIENTS = 4
PROCS_PER_NODE = 2
PLACEMENTS = ("sharded", "replicated")
MIX = (("read-only", 3), ("write-only", 2), ("read-write", 5))


def placement(kind: str) -> tuple[DataPlacement, int]:
    """The item placement of one scenario kind, and its node count."""
    if kind == "sharded":
        groups = {item: tuple(sorted((i + d) % 5 for d in range(3))) for i, item in enumerate(ITEMS)}
        n_nodes = 5
    elif kind == "replicated":
        groups = {item: (0, 1, 2) for item in ITEMS}
        n_nodes = 3
    else:
        raise ValueError(f"unknown placement kind {kind!r}")
    return DataPlacement({item: None for item in ITEMS}, groups, k=3, f=1), n_nodes


def shapes(n_txns: int) -> list[str]:
    """The transaction shapes of one scenario: MIX's ratio, largest remainder first."""
    total = sum(w for _, w in MIX)
    counts = {k: n_txns * w // total for k, w in MIX}
    by_remainder = sorted(MIX, key=lambda kw: -(n_txns * kw[1] % total))
    for k, _ in by_remainder[: n_txns - sum(counts.values())]:
        counts[k] += 1
    return [k for k, _ in MIX for _ in range(counts[k])]


def make_scenario(rng: random.Random, name: str, kind: str, n_txns: int) -> Scenario:
    place, n_nodes = placement(kind)
    order = shapes(n_txns)
    rng.shuffle(order)
    read_counts = [1 + k % 3 for k in range(sum(s != "write-only" for s in order))]
    write_counts = [1 + k % 2 for k in range(sum(s != "read-only" for s in order))]
    rng.shuffle(read_counts)
    rng.shuffle(write_counts)
    txns = []
    for j, shape in enumerate(order):
        tid = f"t{j + 1}"
        reads = [] if shape == "write-only" else sorted(rng.sample(ITEMS, read_counts.pop()))
        writes = [] if shape == "read-only" else sorted(rng.sample(ITEMS, write_counts.pop()))
        rule = [(item, "always", f"{tid}.{item}") for item in writes]
        txns.append(TransactionProgram(tid, j % N_CLIENTS, reads, rule))
    config = SimConfig(n_nodes=n_nodes, procs_per_node=PROCS_PER_NODE, n_clients=N_CLIENTS)
    return Scenario(name, place, txns, config)


@dataclass(frozen=True)
class Case:
    """One engine run: a scenario, a variant tag and a random exact schedule."""

    scenario: Scenario
    variant: str
    schedule: Schedule

    @property
    def label(self) -> str:
        return f"{self.scenario.name}/{self.variant}"


def variants_for(kind: str) -> list[str]:
    return [v for v in VARIANTS if kind == "replicated" or v != NO_SEAMLESS]


def case(kind: str, n_txns: int, variant: str, seed: int) -> Case:
    """The scenario of (placement, size, seed) under `variant`, with a random
    exact schedule of the same seed. Every input the benchmark runs is one of
    these, named by its four arguments."""
    rng = random.Random(f"{kind}:{n_txns}:{seed}")
    scen = make_scenario(rng, f"{kind}-{n_txns}-seed{seed}", kind, n_txns)
    return Case(scen, variant, Schedule("random", seed=seed, granularity="exact"))
