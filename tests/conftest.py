from __future__ import annotations

import json

import pytest

from pdtsim.engine import Decision, EmitNote, Message, PrimOp, SendMsg, SimConfig, Simulation, WaitRecv
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


def terminal_schedules(monkeypatch) -> list:
    """Make the exhaustive explorer drive every terminal to quiescence and
    return the list it appends each terminal's (history, schedule) to, in the
    order the search reaches them."""
    from pdtsim import explore as explore_module
    from pdtsim.model import ExecutionTrace, derive_history

    terminals = []
    record = explore_module._Collector.record

    def recorded(self, steps, schedule):
        finished = schedule()
        history = derive_history(ExecutionTrace(steps, scenario=self.scenario)).canonical()
        terminals.append((history, finished))
        return record(self, steps, lambda: finished)

    monkeypatch.setattr(explore_module._Collector, "record", recorded)
    return terminals


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
                  gst=0, name="test"):
    """Compact scenario builder for protocol tests."""
    placement = DataPlacement(initials=dict(items), groups={i: tuple(g) for i, g in groups.items()},
                              k=k, f=f)
    programs = [TransactionProgram(t, c, list(r), [tuple(w) for w in ws]) for t, c, r, ws in txns]
    n_nodes = n_nodes or (max(n for g in groups.values() for n in g) + 1)
    clients = clients if clients is not None else max((p.client for p in programs), default=0) + 1
    config = SimConfig(n_nodes=n_nodes, procs_per_node=procs, n_clients=clients, gst=gst)
    return Scenario(name, placement, programs, config)


def coordinator_effects(env, prog, sent) -> list | None:
    """Every effect a new coordinator for `prog` yields as `sent` is fed to
    it, then its return value if it returns. None when the engine could not
    have sent those values: a message while an effect is pending, or a value
    after the coordinator returned."""
    gen, effects = env.coordinator(prog), []
    for i, value in enumerate(sent):
        if type(value) is Message and not isinstance(effects[-1], WaitRecv):
            return None
        try:
            effects.append(gen.send(value))
        except StopIteration as stop:
            return effects + [stop.value] if i == len(sent) - 1 else None
    return effects


def shuffle_message_runs(values, rng) -> list:
    """`values` with each maximal run of consecutive Messages shuffled."""
    out, start = list(values), 0
    for i in range(len(out) + 1):
        if i == len(out) or type(out[i]) is not Message:
            run = out[start:i]
            rng.shuffle(run)
            out[start:i] = run
            start = i + 1
    return out


def check_message_runs_permute(env, prog, sent, rng) -> int:
    """Re-create the coordinator of `prog` from each prefix of `sent` with
    its message runs shuffled, feed it the rest of `sent`, and assert that it
    yields the effects and return value the original order does. A shuffle
    the engine could not have sent (an early exit moved ahead of the run's
    other messages) is skipped. Returns how many shuffles moved a message."""
    want = coordinator_effects(env, prog, sent)
    assert want is not None
    moved = 0
    for cut in range(1, len(sent) + 1):
        shuffled = shuffle_message_runs(sent[:cut], rng) + sent[cut:]
        got = coordinator_effects(env, prog, shuffled)
        if got is not None:
            assert got == want, (prog.txn_id, cut)
            moved += any(a is not b for a, b in zip(shuffled, sent))
    return moved


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
                ret, nontrivial = self.memory.apply(eff.op, eff.obj, eff.args)
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

    def deliver(self, msg_id) -> ProcessRef:
        """Deliver a message; return the process that took it (a node's
        first idle process, or the client)."""
        self.sim.apply(Decision("deliver", msg=msg_id))
        return self.sim.steps[-1].proc

    def inflight(self, pred=None):
        out = [self.sim.inflight[m] for m in sorted(self.sim.inflight)]
        return [m for m in out if pred is None or pred(m)] if pred else out

    def deliver_where(self, pred) -> ProcessRef:
        msgs = self.inflight(pred)
        assert msgs, "no matching in-flight message"
        return self.deliver(msgs[0].msg_id)

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
