from __future__ import annotations

import pytest

from pdtsim.engine import Schedule
from pdtsim import run
from pdtsim.errors import CrossNodeAccess
from pdtsim.memory import NodeMemory, contending_pairs, replay_nontrivial
from pdtsim.protocols import AlgorithmVariant
from pdtsim.scenarios import scenario_disjoint_writers, scenario_solo

from conftest import make_scenario


@pytest.fixture
def mem():
    return NodeMemory(0, ["X1"], {"X1": None})


def test_fresh_objects(mem):
    assert mem.apply("read", "X1.seqNum", []) == (0, False)
    assert mem.apply("read", "X1.val", []) == (None, False)
    assert mem.apply("read", "X1.lockS", []) == (None, False)
    assert mem.apply("read", "node.globalLock", []) == (None, False)


def test_write_then_read(mem):
    ret, nontrivial = mem.apply("write", "X1.val", [5])
    assert nontrivial
    assert mem.apply("read", "X1.val", []) == (5, False)


def test_cas_semantics(mem):
    ok, nontrivial = mem.apply("cas", "X1.lockL", [None, "t1"])
    assert ok and nontrivial
    assert mem.apply("read", "X1.lockL", [])[0] == "t1"
    # CAS against a held lock fails, leaves the value, and is still non-trivial.
    ok, nontrivial = mem.apply("cas", "X1.lockL", [None, "t2"])
    assert not ok and nontrivial
    assert mem.apply("read", "X1.lockL", [])[0] == "t1"


def test_cross_node_access(mem):
    with pytest.raises(CrossNodeAccess):
        mem.apply("read", "X9.val", [])


def test_replay_nontrivial_reproduces_state(base):
    scen = scenario_solo(2)
    res = run(scen.config, base, scen, Schedule("fair"))
    for node in range(scen.config.n_nodes):
        replayed = replay_nontrivial(
            res.trace, node, scen.local_items(node), scen.placement.initials
        )
        assert replayed == res.final_memory[node]


def test_non_concurrent_txns_never_contend(base):
    # Same item, same objects, but sequential intervals: empty contention set.
    from pdtsim.engine import Simulation
    from conftest import run_sequential

    scen = make_scenario(
        {"X": None}, {"X": [0]}, 1, 0,
        [("t1", 0, [], [("X", "always", "a")]),
         ("t2", 0, ["X"], [])],
        procs=1,
    )
    res = run_sequential(Simulation(scen.config, base, scen))
    assert res.trace.coordinator_response("t2").read_set == [["X", "a"]]
    assert contending_pairs(res.trace) == set()


def test_contention_is_symmetric_and_nontrivial():
    scen = scenario_disjoint_writers()
    res = run(scen.config, AlgorithmVariant("no-ddap"), scen, Schedule("fair"))
    pairs = contending_pairs(res.trace)
    assert pairs, "disjoint writers must contend on the per-node global lock"
    for (i, j) in pairs:
        assert (j, i) in pairs
        s1, s2 = res.trace.steps[i], res.trace.steps[j]
        assert s1.obj == s2.obj and s1.proc.node == s2.proc.node
        assert s1.nontrivial or s2.nontrivial
        assert s1.txn != s2.txn


def test_base_disjoint_writers_do_not_contend(base):
    scen = scenario_disjoint_writers()
    res = run(scen.config, base, scen, Schedule("fair"))
    assert contending_pairs(res.trace) == set()
