"""The serializability decider against a reference oracle.

The oracle replays every permutation of the committed transactions, so it is
exact but only fit for small histories. The decider must agree with it on
generated histories (reads-then-writes per transaction, read values drawn
from the initial value or other transactions' writes, write values that may
repeat, restore the initial value, or be JSON lists and objects) and on every
terminal history of the golden explorations. Every serial order the decider
names must replay legally.
"""
from __future__ import annotations

import copy
import itertools
import random
from typing import Iterable

from pdtsim import explore as explore_module
from pdtsim.checkers import Verdict, check_serializability
from pdtsim.explore import explore
from pdtsim.model import CommittedHistory

from conftest import EXPLORED_SCENARIOS, admitted_pairs

ITEMS = ["X1", "X2", "X3", "X4"]
# Initial values, and the values writers share: a read of one of them may
# have several sources.
SHARED_VALUES = [None, 0, "v", [1, "a"], {"k": [None]}]


def legal_order(history: CommittedHistory, order: Iterable[str]) -> bool:
    state = dict(history.initials)
    for txn in order:
        for kind, item, value in history.ops[txn]:
            if kind == "read":
                if state.get(item) != value:
                    return False
            else:
                state[item] = value
    return True


def oracle_serializable(history: CommittedHistory) -> bool:
    """Does some permutation of the committed transactions read legally?"""
    return any(legal_order(history, order) for order in itertools.permutations(history.txns()))


def assert_agrees(history: CommittedHistory, verdict: Verdict) -> None:
    """The decider's verdict matches the oracle's, and a PASS order replays."""
    assert verdict.passed == oracle_serializable(history), history.canonical()
    if verdict.passed:
        order = verdict.witness["serialOrder"]
        assert sorted(order) == sorted(history.txns()) and legal_order(history, order)
    else:
        assert set(verdict.witness) == {"cycle", "edges"}


def _write_value(rng: random.Random, txn: str, item: str, initial):
    roll = rng.random()
    if roll < 0.15:
        return copy.deepcopy(initial)
    if roll < 0.3:
        return copy.deepcopy(rng.choice(SHARED_VALUES))
    return rng.choice([f"{txn}:{item}", [txn, item], {"txn": txn, "item": [item]}])


def random_history(rng: random.Random, max_txns: int = 6) -> CommittedHistory:
    """Equal values are distinct objects, as in a trace read back from JSON."""
    n = rng.randint(1, max_txns)
    items = ITEMS[: rng.randint(1, len(ITEMS))]
    initials = {i: rng.choice(SHARED_VALUES) for i in items}
    writes_by_item: dict[str, list[tuple[str, object]]] = {i: [] for i in items}
    txn_writes = {}
    for t in range(n):
        txn = f"t{t}"
        wset = [i for i in items if rng.random() < 0.45]
        txn_writes[txn] = {i: _write_value(rng, txn, i, initials[i]) for i in wset}
        for i, v in txn_writes[txn].items():
            writes_by_item[i].append((txn, v))
    ops = {}
    for t in range(n):
        txn = f"t{t}"
        reads = []
        for i in items:
            if rng.random() < 0.45:
                candidates = [initials[i]] + [v for (w, v) in writes_by_item[i] if w != txn]
                reads.append(("read", i, copy.deepcopy(rng.choice(candidates))))
        writes = [("write", i, v) for i, v in sorted(txn_writes[txn].items())]
        ops[txn] = reads + writes
    return CommittedHistory(ops, initials)


def _ambiguous_reads(history: CommittedHistory) -> int:
    """Reads whose value the initial value and a writer, or several writers,
    may have supplied: the reads the decider branches on."""
    count = 0
    for txn, ops in history.ops.items():
        for kind, item, value in ops:
            if kind == "read":
                sources = [value == history.initials[item]] + [
                    v == value for other, other_ops in history.ops.items() if other != txn
                    for k, i, v in other_ops if k == "write" and i == item
                ]
                count += sum(sources) > 1
    return count


def test_brute_force_and_polygraph_agree():
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    ambiguous = 0
    for _ in range(400):
        h = random_history(rng)
        verdict = check_serializability(h)
        assert_agrees(h, verdict)
        outcomes[verdict.passed] += 1
        ambiguous += _ambiguous_reads(h)
    # The generator must exercise both verdicts, and reads with several
    # possible sources, for the agreement to mean much.
    assert outcomes[True] > 50 and outcomes[False] > 50 and ambiguous > 100


def test_agreement_on_small_edge_cases():
    rng = random.Random(7)
    for _ in range(300):
        h = random_history(rng, max_txns=3)
        assert_agrees(h, check_serializability(h))


def test_explored_histories_agree(monkeypatch):
    """Every terminal history of the 14 golden explorations (fids,
    fids-replicated and rfids, each admitted variant, 300 schedules),
    each checked once per exploration."""
    verdicts = []

    def checked(history: CommittedHistory) -> Verdict:
        verdict = check_serializability(history)
        assert_agrees(history, verdict)
        verdicts.append(verdict.passed)
        return verdict

    monkeypatch.setattr(explore_module, "check_serializability", checked)
    runs = 0
    for scen, variant in admitted_pairs():
        if scen.name in EXPLORED_SCENARIOS:
            explore(scen, variant, mode="exhaustive", max_schedules=300)
            runs += 1
    assert runs == 14
    assert len(verdicts) >= runs
