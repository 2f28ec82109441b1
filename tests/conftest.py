from __future__ import annotations

import json

import pytest

from pdtsim.engine import Decision, EmitNote, PrimOp, Schedule, SendMsg, SimConfig, Simulation
from pdtsim.errors import PlacementError
from pdtsim.memory import NodeMemory
from pdtsim.model import DataPlacement, ProcessRef, TransactionProgram
from pdtsim.protocols import VARIANTS, AlgorithmVariant
from pdtsim.scenarios import BUILTIN_SCENARIOS, Scenario, get_scenario

# The scenarios of the golden explorations.
EXPLORED_SCENARIOS = ("fids", "fids-replicated", "rfids")


def admitted_pairs():
    """Every builtin scenario with every variant that accepts its placement."""
    for name in BUILTIN_SCENARIOS:
        for tag in VARIANTS:
            scen, variant = get_scenario(name), AlgorithmVariant(tag)
            try:
                Simulation(scen.config, variant, scen)
            except PlacementError:
                continue
            yield scen, variant


@pytest.fixture
def base():
    return AlgorithmVariant("base")


@pytest.fixture(scope="session")
def matrix_report(tmp_path_factory):
    """One `pdtsim matrix --out report.md --json report.json` per session:
    its exit code, the markdown table, the JSON file's text and the parsed
    JSON."""
    from pdtsim.cli import main

    out = tmp_path_factory.mktemp("matrix")
    md, js = out / "report.md", out / "report.json"
    code = main(["matrix", "--out", str(md), "--json", str(js)])
    text = js.read_text()
    return {"exit": code, "markdown": md.read_text(), "json_text": text, "json": json.loads(text)}


def make_scenario(items, groups, k, f, txns, *, n_nodes=None, procs=2, clients=None,
                  gst=0, name="test", crash_budget=None):
    """Compact scenario builder for protocol tests."""
    placement = DataPlacement(initials=dict(items), groups={i: tuple(g) for i, g in groups.items()},
                              k=k, f=f)
    programs = [TransactionProgram(t, c, list(r), [tuple(w) for w in ws]) for t, c, r, ws in txns]
    n_nodes = n_nodes or (max(n for g in groups.values() for n in g) + 1)
    clients = clients if clients is not None else max((p.client for p in programs), default=0) + 1
    config = SimConfig(n_nodes=n_nodes, procs_per_node=procs, n_clients=clients, gst=gst)
    return Scenario(name, placement, programs, config, crash_budget_override=crash_budget)


class HandlerHarness:
    """Drives a single node-handler generator against one node's memory,
    collecting its primitive ops and outgoing messages."""

    def __init__(self, memory: NodeMemory):
        self.memory = memory
        self.prims = []
        self.sent = []

    def run(self, gen):
        value = None
        while True:
            try:
                eff = gen.send(value)
            except StopIteration:
                return
            if isinstance(eff, PrimOp):
                ret, nontrivial = self.memory.apply(self.memory.node_id, eff.op, eff.obj, eff.args)
                self.prims.append((eff.obj, eff.op, list(eff.args), ret, nontrivial))
                value = ret
            elif isinstance(eff, SendMsg):
                self.sent.append(eff.payload)
                value = 0
            elif isinstance(eff, EmitNote):
                value = None
            else:
                raise AssertionError(f"node handler yielded {eff!r}")


class FakeMsg:
    """Just enough of engine.Message for ProtocolEnv.node_handler."""

    def __init__(self, payload, client_idx=0):
        self.payload = payload
        self.src = ProcessRef.client(client_idx)


class Driver:
    """Step-by-step control of a Simulation for scripted protocol tests."""

    def __init__(self, sim: Simulation):
        self.sim = sim

    def step(self, ref):
        self.sim.apply(Decision("step", proc=ref))

    def run_proc(self, ref):
        while self.sim._steppable(self.sim.procs[ref]):
            self.step(ref)

    def deliver(self, msg_id, pin=None):
        self.sim.apply(Decision("deliver", msg=msg_id, pin=pin))

    def inflight(self, pred=None):
        out = [self.sim.inflight[m] for m in sorted(self.sim.inflight)]
        return [m for m in out if pred is None or pred(m)] if pred else out

    def deliver_where(self, pred, pin=None):
        msgs = self.inflight(pred)
        assert msgs, "no matching in-flight message"
        self.deliver(msgs[0].msg_id, pin=pin)

    def run_nodes(self):
        while True:
            refs = [
                r for r in sorted(self.sim.procs, key=ProcessRef.sort_key)
                if r.kind == "node" and self.sim._steppable(self.sim.procs[r])
            ]
            if not refs:
                return
            for r in refs:
                self.step(r)

    def drain_fair(self):
        from pdtsim.engine import FairPolicy

        policy = FairPolicy()
        while True:
            d = policy.next_decision(self.sim)
            if d is None:
                break
            self.sim.apply(d)
        self.sim.finish()


def run_sequential(sim: Simulation):
    """Fair drive, except a client only invokes its next transaction once the
    system is otherwise quiescent: transaction intervals never overlap."""
    while True:
        progressed = False
        for ref in sorted(sim.procs, key=ProcessRef.sort_key):
            proc = sim.procs[ref]
            if proc.handler is not None and sim._steppable(proc):
                sim.apply(Decision("step", proc=ref))
                progressed = True
                break
        if progressed:
            continue
        choices = sim.enabled_choices()
        delivers = [c for c in choices if c.t == "deliver"]
        if delivers:
            sim.apply(delivers[0])
            continue
        invokes = [c for c in choices if c.t == "step"]
        if invokes:
            sim.apply(invokes[0])
            continue
        break
    sim.finish()
    return sim.result()
