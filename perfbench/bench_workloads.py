"""The three workloads: set-up, one operation, and the checks on its output.

Every operation is a call into pdtsim made through its module attributes
(``engine.run``, ``matrix.build_matrix``, ...), so the traced run's wrappers
see it. Checks run outside the timed part of an operation.

The inputs are a fixed set of generated cases, the same whatever the run's
seed, and none is screened: an operation that runs into one of the program's
named faults counts as failed on every run, until the fault is mended.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from pdtsim import checkers, engine, matrix, model, scenarios, traceio
from pdtsim.errors import TooLarge
from pdtsim.protocols import NO_DDAP, AlgorithmVariant

import bench_gen
import bench_oracle

SERIALIZABLE = ("no-fast", "weak-ir", "no-seamless", "no-ddap")


@dataclass
class State:
    ops: list
    workdir: Path
    notes: dict = field(default_factory=dict)


class EngineRuns:
    """(decisions, steps, seconds) of each `engine.run` call made in set-up."""

    def __init__(self):
        self.runs: list[tuple[int, int, float]] = []

    def run(self, case: bench_gen.Case):
        t0 = time.perf_counter()
        result = run_case(case)
        self.runs.append((len(result.decisions), len(result.trace.steps), time.perf_counter() - t0))
        return result


def run_case(case: bench_gen.Case):
    return engine.run(case.scenario.config, AlgorithmVariant(case.variant), case.scenario, case.schedule)


class Workload:
    name = ""
    engine_timed = False  # True: the timed operations are engine runs

    def setup(self, workdir: Path, runs: EngineRuns) -> State:
        raise NotImplementedError

    def run(self, state: State, op) -> Any:
        raise NotImplementedError

    def group(self, op) -> Any:
        """The input an operation works on; `check` has several per input."""
        return op

    def fault(self, state: State, op, out) -> str | None:
        """Why the operation failed, when it ran into a named fault."""
        return None

    def check(self, state: State, op, out) -> list[str]:
        return []

    def final_check(self, state: State) -> list[str]:
        return []

    def work(self, op, out) -> tuple[int, int]:
        """(decisions, trace steps) an operation's output accounts for."""
        return 0, 0

    def digest(self, out) -> str:
        raise NotImplementedError


def _data_sets(scenario) -> dict[str, set[str]]:
    return {p.txn_id: set(p.read_set) | {t for t, _, _ in p.write_rule} for p in scenario.transactions}


def read_phase_hang(case: bench_gen.Case, steps) -> list[str] | None:
    """The undecided transactions, when the only reason is the read-phase
    hang: a coordinator got abort read replies (retries ran out on enough
    replicas that no ok quorum can form) and waits forever, and the rest of
    the undecided transactions were queued behind it on the same client."""
    decided = bench_oracle.decisions(steps)
    undecided = [p.txn_id for p in case.scenario.transactions if p.txn_id not in decided]
    if not undecided:
        return None
    invoked = {s.txn for s in steps if s.kind == "invoke"}
    stuck = {s.txn for s in steps if s.kind == "recv" and s.proc.kind == "client"
             and s.fields["payload"]["kind"] == "readReply"
             and s.fields["payload"]["body"]["vote"] == "abort"} & set(undecided)
    client_of = {p.txn_id: p.client for p in case.scenario.transactions}
    blocked_clients = {client_of[t] for t in stuck}
    if stuck and all(t in stuck or (t not in invoked and client_of[t] in blocked_clients) for t in undecided):
        return undecided
    return None


def check_run(case: bench_gen.Case, result) -> list[str]:
    """The per-run checks of `simulate`."""
    scen = case.scenario
    steps = result.trace.steps
    errors = []
    decided = bench_oracle.decisions(steps)
    undecided = [p.txn_id for p in scen.transactions if p.txn_id not in decided]
    if undecided:
        errors.append(f"{case.label}: undecided {undecided}")
    initials = scen.placement.initials
    replay = bench_oracle.replay_memory(steps, scen.placement.groups, initials, scen.config.n_nodes)
    if replay != result.final_memory:
        errors.append(f"{case.label}: final memory differs from the non-trivial replay")
    bad = bench_oracle.bad_committed_reads(steps, initials)
    if bad:
        errors.append(f"{case.label}: committed reads of unwritten values {bad[:3]}")
    return errors


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

class MatrixWorkload(Workload):
    """One full `build_matrix()` plus its JSON dump, the data behind `pdtsim matrix`."""

    name = "matrix"

    def setup(self, workdir: Path, runs: EngineRuns) -> State:
        # build_matrix takes no input; set-up builds the scenarios whose
        # witnesses the checks replay.
        replays = {"fids": scenarios.scenario_fids(), "rfids": scenarios.scenario_rfids()}
        return State(ops=[None], workdir=workdir, notes={"replays": replays})

    def run(self, state: State, op) -> str:
        report = matrix.build_matrix()
        return json.dumps(report.to_json(), sort_keys=True, indent=2, ensure_ascii=False)

    def check(self, state: State, op, out: str) -> list[str]:
        errors = []
        cells = json.loads(out)["cells"]
        for variant, row in bench_oracle.PAPER_TABLE.items():
            for prop in bench_oracle.PROPERTIES:
                got = cells[variant][prop]["pass"]
                if got != row[prop]:
                    errors.append(f"matrix {variant}/{prop}: {got}, paper says {row[prop]}")
            lost = {p for p in bench_oracle.PROPERTIES if not cells[variant][p]["pass"]}
            if lost != bench_oracle.NAMED_LOSS[variant]:
                errors.append(f"matrix {variant} loses {sorted(lost)}")
        base = AlgorithmVariant("base")
        for key, scen in state.notes["replays"].items():
            sched = engine.Schedule.from_json(cells["base"]["serializability"]["schedule"][key])
            res = engine.run(scen.config, base, scen, sched)
            ops = bench_oracle.committed_ops(res.trace.steps)
            if len(ops) < 2 or bench_oracle.has_legal_serial_order(ops, scen.placement.initials):
                errors.append(f"matrix base {key} witness replays to a serializable history")
        return errors

    def digest(self, out: str) -> str:
        return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# Scenario seeds 0-35 alternate sharded/replicated, with 16-24 transactions;
# each runs under every variant its placement admits: 162 runs per round.
SIM_SIZES = [16 + 2 * ((s // 2) % 5) for s in range(36)]
SIM_CASES = [(bench_gen.PLACEMENTS[s % 2], n, s) for s, n in enumerate(SIM_SIZES)]
# Warm-up runs in set-up: two 8-transaction scenarios, seeds 1000 and 1001.
WARMUP_CASES = [("sharded", 8, 1000), ("replicated", 8, 1001)]


def _cases(specs) -> list[bench_gen.Case]:
    return [bench_gen.case(kind, n, v, seed) for kind, n, seed in specs for v in bench_gen.variants_for(kind)]


class SimulateWorkload(Workload):
    """Random `engine.run` calls at exact granularity, all five variants."""

    name = "simulate"
    engine_timed = True

    def setup(self, workdir: Path, runs: EngineRuns) -> State:
        ops = _cases(SIM_CASES)
        # Warm the engine and every variant's handlers before timing.
        for case in _cases(WARMUP_CASES):
            runs.run(case)
        return State(ops=ops, workdir=workdir)

    def run(self, state: State, case: bench_gen.Case):
        return run_case(case)

    def fault(self, state: State, case: bench_gen.Case, result) -> str | None:
        hung = read_phase_hang(case, result.trace.steps)
        return f"read-phase hang: {case.label} leaves {hung} undecided" if hung else None

    def check(self, state: State, case: bench_gen.Case, result) -> list[str]:
        state.notes.setdefault("first", {}).setdefault(case.variant, (case, result))
        return check_run(case, result)

    def final_check(self, state: State) -> list[str]:
        """One case per variant, re-run, must write a byte-identical trace."""
        errors = []
        for variant, (case, first) in sorted(state.notes.get("first", {}).items()):
            again = run_case(case)
            blobs = []
            for tag, res in (("a", first), ("b", again)):
                path = state.workdir / f"determinism-{variant}-{tag}.jsonl"
                traceio.write_run(res, path)
                blobs.append((path.read_bytes(), traceio.meta_path_for(path).read_bytes()))
            if blobs[0] != blobs[1]:
                errors.append(f"{case.label}: re-run wrote a different trace")
        return errors

    def work(self, case: bench_gen.Case, result) -> tuple[int, int]:
        return len(result.decisions), len(result.trace.steps)

    def digest(self, result) -> str:
        return repr([(s.kind, s.proc, s.txn, s.fields) for s in result.trace.steps])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

# Two trace lengths, 5 and 12 transactions. At each, one trace per
# (placement, variant) pair, the j-th pair with seed j.
CHECK_SLOTS = [(kind, v) for kind in bench_gen.PLACEMENTS for v in bench_gen.variants_for(kind)]
CHECK_CASES = [(kind, n, v, j) for n in (5, 12) for j, (kind, v) in enumerate(CHECK_SLOTS)]
# Standing repros of the named faults, one per (variant, fault): the first
# seed s >= 0 whose 5-transaction replicated case under that variant shows
# that fault alone and makes the invariant suite raise.
CHECK_FAULTS = [
    ("replicated", 5, "base", 129),  # late-validate lock leak
    ("replicated", 5, "weak-ir", 59),  # late-validate lock leak
    ("replicated", 5, "no-fast", 0),  # late-validate lock leak
    ("replicated", 5, "no-ddap", 10),  # lock leak, of node.globalLock
    ("replicated", 5, "base", 39),  # decision agreement, readReply abort
    ("replicated", 5, "no-fast", 32),  # decision agreement, lockReply abort
]


@dataclass(frozen=True)
class TraceInput:
    case: bench_gen.Case
    path: Path
    steps: int


CHECK_PROPERTIES = ("serializability", "weak-progress", "weak-ir", "dap", "ddap", "read-delay", "invariants")


def _serializability(trace) -> dict:
    history = model.derive_history(trace)
    try:
        return checkers.check_serializability(history).to_json()
    except TooLarge:
        # Past 8 committed transactions the brute force refuses; the
        # polygraph decider is exact on these histories (unique write values).
        return {"property": "serializability", "pass": checkers.serializable_polygraph(history),
                "details": {"decider": "polygraph"}}


def _invariants(trace) -> dict:
    try:
        checkers.verify_trace_invariants(trace)
    except AssertionError as e:
        return {"property": "invariants", "pass": False, "violation": str(e)}
    return {"property": "invariants", "pass": True}


# Looked up on the checkers module at call time, so the traced run sees them.
CHECKS = {
    "serializability": _serializability,
    "weak-progress": lambda trace: checkers.check_weak_progress([trace]).to_json(),
    "weak-ir": lambda trace: checkers.check_weak_ir(trace).to_json(),
    "dap": lambda trace: checkers.check_dap(trace).to_json(),
    "ddap": lambda trace: checkers.check_ddap(trace).to_json(),
    "read-delay": lambda trace: checkers.check_read_delay(trace).to_json(),
    "invariants": _invariants,
}


class CheckWorkload(Workload):
    """The full property check of recorded multi-transaction traces. One
    operation is what one `pdtsim check --property P` does: read the trace
    back, then check one property (or run the invariant suite)."""

    name = "check"

    def setup(self, workdir: Path, runs: EngineRuns) -> State:
        traces = []
        for idx, spec in enumerate(CHECK_CASES + CHECK_FAULTS):
            case = bench_gen.case(*spec)
            traces.append(self._record(workdir, idx, case, runs.run(case)))
        ops = [(inp, prop) for inp in traces for prop in CHECK_PROPERTIES]
        return State(ops=ops, workdir=workdir)

    @staticmethod
    def _record(workdir: Path, idx: int, case, result) -> TraceInput:
        path = workdir / f"trace-{idx:02d}.jsonl"
        traceio.write_run(result, path)
        return TraceInput(case, path, len(result.trace.steps))

    def run(self, state: State, op) -> dict:
        inp, prop = op
        trace = traceio.read_trace(inp.path)
        return {"steps": trace.steps, "verdict": CHECKS[prop](trace)}

    def group(self, op) -> Path:
        return op[0].path

    def fault(self, state: State, op, out: dict) -> str | None:
        inp, prop = op
        if prop != "invariants" or out["verdict"]["pass"]:
            return None
        return f"{inp.case.label}: {out['verdict']['violation']}"

    def check(self, state: State, op, out: dict) -> list[str]:
        inp, prop = op
        label = f"{inp.case.label} {prop}"
        v = out["verdict"]
        if v["pass"]:
            return []
        if prop in ("weak-ir", "read-delay", "weak-progress"):
            return [f"{label} fails"]
        if prop == "serializability":
            return [f"{label} fails"] if inp.case.variant in SERIALIZABLE else []
        if inp.case.variant != NO_DDAP:
            return [f"{label} fails"]
        scen = inp.case.scenario
        shard = None
        if prop == "ddap":
            shard = {i for i, grp in scen.placement.groups.items() if v["witness"]["node"] in grp}
        if not bench_oracle.contention_witness_ok(out["steps"], v["witness"], _data_sets(scen), shard):
            return [f"{label} witness does not hold on the raw trace"]
        return []

    def work(self, op, out: dict) -> tuple[int, int]:
        return 0, op[0].steps

    def digest(self, out: dict) -> str:
        return traceio.dumps_canonical(out["verdict"])


WORKLOADS = {w.name: w for w in (MatrixWorkload(), SimulateWorkload(), CheckWorkload())}


