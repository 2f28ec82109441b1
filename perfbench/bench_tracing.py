"""The traced run: wrappers around each layer's public functions.

`Tracer.install()` replaces every wrapped function in every pdtsim module
that binds it (``checkers`` imports ``happened_before`` from ``model``,
``matrix`` imports ``explore`` and the checkers, the package re-exports
``run``), and every wrapped method on its class. Each call becomes a span
(name, start, end, parent, operation id). Spans stay in memory and are
written out at the end. The per-decision calls (engine steps, choice
enumeration, primitives, handler resumes, response lookups), and any call
past the first MAX_SPANS spans, are kept as one aggregate span per name and
operation (call count, total time, first start, last end), since keeping
millions of them would dominate memory. A span's self time is its duration
minus the time of the wrapped calls inside it.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from pdtsim import checkers, engine, explore, matrix, memory, model, protocols, scenarios, traceio

MAX_SPANS = 200_000

# (layer, span name, owner, attribute, keep a span per call)
WRAPPED = (
    ("engine", "engine.run", engine, "run", True),
    ("engine", "engine.sim_init", engine.Simulation, "__init__", True),
    ("engine", "engine.apply", engine.Simulation, "apply", False),
    ("engine", "engine.choices", engine.Simulation, "enabled_choices", False),
    ("engine", "engine.choices", engine.Simulation, "overdue_deliveries", False),
    ("engine", "engine.choices", engine.Simulation, "has_armed_timer", False),
    ("engine", "engine.result", engine.Simulation, "result", True),
    ("protocols", "protocols.coordinator", protocols.ProtocolEnv, "coordinator", False),
    ("protocols", "protocols.node_handler", protocols.ProtocolEnv, "node_handler", False),
    ("memory", "memory.apply", memory.NodeMemory, "apply", False),
    ("memory", "memory.contending_pairs", memory, "contending_pairs", True),
    ("model", "model.happened_before", model, "happened_before", True),
    ("model", "model.step_depths", model, "step_depths", True),
    ("model", "model.intervals", model, "intervals", True),
    ("model", "model.handler_of_steps", model, "handler_of_steps", True),
    ("model", "model.coordinator_response", model.ExecutionTrace, "coordinator_response", False),
    ("model", "model.derive_history", model, "derive_history", True),
    ("checkers", "checkers.serializability", checkers, "check_serializability", True),
    ("checkers", "checkers.serializability", checkers, "serializable_polygraph", True),
    ("checkers", "checkers.weak-progress", checkers, "check_weak_progress", True),
    ("checkers", "checkers.weak-ir", checkers, "check_weak_ir", True),
    ("checkers", "checkers.strong-ir", checkers, "check_strong_ir", True),
    ("checkers", "checkers.dap", checkers, "check_dap", True),
    ("checkers", "checkers.ddap", checkers, "check_ddap", True),
    ("checkers", "checkers.fast-decision", checkers, "check_fast_decision", True),
    ("checkers", "checkers.read-delay", checkers, "check_read_delay", True),
    ("checkers", "checkers.seamless-ft", checkers, "check_seamless_ft", True),
    ("checkers", "checkers.invariants", checkers, "verify_trace_invariants", True),
    ("explore", "explore.explore", explore, "explore", True),
    ("matrix", "matrix.build_matrix", matrix, "build_matrix", True),
    ("scenarios", "scenarios.counterexample", scenarios, "build_counterexample_schedule", True),
    ("traceio", "traceio.write", traceio, "write_run", True),
    ("traceio", "traceio.write", traceio, "write_trace", True),
    ("traceio", "traceio.read", traceio, "read_trace", True),
)


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id")

    def __init__(self, name, layer, span_id):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id
        self.start = 0.0


class Tracer:
    def __init__(self):
        self.op = "setup"
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        # Time of a name's calls made outside any span of the same layer, so a
        # checker called by another checker is not counted twice.
        self.outer_s: dict[str, float] = defaultdict(float)
        self.layer_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        # (operation, name) -> [calls, total seconds, first start, last end]
        self.aggregates: dict[tuple[str, str], list] = {}
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, layer: str, keep: bool) -> _Frame:
        span_id = None
        if keep:
            if len(self.spans) < MAX_SPANS:
                span_id = len(self.spans)
                self.spans.append(None)
        frame = _Frame(name, layer, span_id)
        self.stack.append(frame)
        self.layer_depth[layer] += 1
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        dur = end - frame.start
        self.stack.pop()
        self.layer_depth[frame.layer] -= 1
        own = dur - frame.child
        self.calls[frame.name] += 1
        self.self_s[frame.name] += own
        self.layer_self_s[frame.layer] += own
        if self.layer_depth[frame.layer] == 0:
            self.outer_s[frame.name] += dur
        if self.stack:
            self.stack[-1].child += dur
        if frame.span_id is not None:
            parent = next((f.span_id for f in reversed(self.stack) if f.span_id is not None), None)
            self.spans[frame.span_id] = (frame.span_id, frame.name, frame.start, end, parent, self.op)
        else:
            agg = self.aggregates.get((self.op, frame.name))
            if agg is None:
                self.aggregates[(self.op, frame.name)] = [1, dur, frame.start, end]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[3] = end

    def active(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, keep: bool):
        post = _POST.get(name)
        if name in ("protocols.coordinator", "protocols.node_handler"):
            coordinator = name == "protocols.coordinator"

            def wrapper(*args, **kwargs):
                return _TracedHandler(self, fn(*args, **kwargs), coordinator)
        else:
            def wrapper(*args, **kwargs):
                frame = self._enter(name, layer, keep)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if post is not None:
                    post(self, result, args)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "pdtsim" or key.startswith("pdtsim.")]
        for layer, name, owner, attr, keep in WRAPPED:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, name, original, keep)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                sid, name, start, end, parent, op = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for (op, name), (calls, total, start, end) in self.aggregates.items():
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": None, "op": op,
                                     "calls": calls, "total_s": total}) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, s, o, n = self.calls, self.self_s, self.outer_s, self.counts
        decisions = c["engine.apply"]
        engine_busy = s["engine.apply"] + s["engine.choices"] + s["protocols.resume"] + s["memory.apply"]
        schedules = n["explore.schedules"]
        out = {
            "engine.decisions": (decisions, "count"),
            "engine.apply_s": (s["engine.apply"], "s"),
            "engine.choices_calls": (c["engine.choices"], "count"),
            "engine.choices_s": (s["engine.choices"], "s"),
            "engine.sims": (c["engine.sim_init"], "count"),
            "engine.sim_init_s": (s["engine.sim_init"], "s"),
            "engine.result_s": (s["engine.result"], "s"),
            "engine.decisions_per_s": (decisions / engine_busy if engine_busy else 0.0, "1/s"),
            "engine.self_s": (self.layer_self_s["engine"], "s"),
            "protocols.resumes": (c["protocols.resume"], "count"),
            "protocols.handler_s": (s["protocols.resume"], "s"),
            "protocols.messages_per_txn": (
                n["protocols.messages"] / n["protocols.txns"] if n["protocols.txns"] else 0.0, "msg/txn"),
            "protocols.commit_ratio": (
                n["protocols.commits"] / n["protocols.decided"] if n["protocols.decided"] else 0.0, "ratio"),
            "memory.prims": (c["memory.apply"], "count"),
            "memory.nontrivial_prims": (n["memory.nontrivial"], "count"),
            "memory.apply_s": (s["memory.apply"], "s"),
            "memory.contending_pairs_s": (s["memory.contending_pairs"], "s"),
            "model.happened_before_calls": (c["model.happened_before"], "count"),
            "model.happened_before_s": (s["model.happened_before"], "s"),
            "model.hb_pairs": (n["model.hb_pairs"], "count"),
            "model.step_depths_calls": (c["model.step_depths"], "count"),
            "model.step_depths_s": (s["model.step_depths"], "s"),
            "model.intervals_calls": (c["model.intervals"], "count"),
            "model.intervals_s": (s["model.intervals"], "s"),
            "model.handler_of_steps_calls": (c["model.handler_of_steps"], "count"),
            "model.coordinator_response_calls": (c["model.coordinator_response"], "count"),
            "model.derive_history_s": (s["model.derive_history"], "s"),
            "model.self_s": (self.layer_self_s["model"], "s"),
        }
        for prop in ("serializability", "weak-progress", "weak-ir", "dap", "ddap", "read-delay",
                     "invariants", "fast-decision", "strong-ir", "seamless-ft"):
            out[f"checkers.{prop}_s"] = (o[f"checkers.{prop}"], "s")
        runs = n["checkers.seamless-ft_runs"]
        out.update({
            "checkers.seamless-ft_runs": (runs, "count"),
            "checkers.seamless-ft_useful": (n["checkers.seamless-ft_injections"] / runs if runs else 0.0, "ratio"),
            "checkers.self_s": (self.layer_self_s["checkers"], "s"),
            "explore.s": (o["explore.explore"], "s"),
            "explore.schedules": (schedules, "count"),
            "explore.schedules_per_s": (schedules / o["explore.explore"] if o["explore.explore"] else 0.0, "1/s"),
            "explore.decisions_per_schedule": (n["explore.decisions"] / schedules if schedules else 0.0, "decisions"),
            "explore.histories": (n["explore.histories"], "count"),
            "explore.complete": (n["explore.complete"], "count"),
            "explore.self_s": (self.layer_self_s["explore"], "s"),
            "matrix.self_s": (self.layer_self_s["matrix"], "s"),
            "scenarios.counterexample_s": (o["scenarios.counterexample"], "s"),
            "traceio.write_s": (o["traceio.write"], "s"),
            "traceio.read_s": (o["traceio.read"], "s"),
        })
        return out


class _TracedHandler:
    """A protocol handler generator whose every resume is timed and counted."""

    __slots__ = ("tracer", "gen", "coordinator")

    def __init__(self, tracer: Tracer, gen, coordinator: bool):
        self.tracer = tracer
        self.gen = gen
        self.coordinator = coordinator
        if coordinator:
            tracer.counts["protocols.txns"] += 1

    def send(self, value):
        tracer = self.tracer
        frame = tracer._enter("protocols.resume", "protocols", False)
        try:
            effect = self.gen.send(value)
        except StopIteration as stop:
            if self.coordinator:
                tracer.counts["protocols.decided"] += 1
                tracer.counts["protocols.commits"] += stop.value["outcome"] == "commit"
            raise
        finally:
            tracer._exit(frame)
        if isinstance(effect, engine.SendMsg):
            tracer.counts["protocols.messages"] += 1
        return effect

    def close(self):
        self.gen.close()


def _post_apply(tracer: Tracer, result, args) -> None:
    if tracer.layer_depth["explore"]:
        tracer.counts["explore.decisions"] += 1


def _post_prim(tracer: Tracer, result, args) -> None:
    tracer.counts["memory.nontrivial"] += result[1]


def _post_hb(tracer: Tracer, result, args) -> None:
    tracer.counts["model.hb_pairs"] += len(result)


def _post_run(tracer: Tracer, result, args) -> None:
    if tracer.active("checkers.seamless-ft"):
        tracer.counts["checkers.seamless-ft_runs"] += 1
        schedule = args[3]
        # One first attempt (fair completion) per injected crash.
        if schedule.kind == "scripted" and schedule.completion_seed is None:
            tracer.counts["checkers.seamless-ft_first_attempts"] += 1


def _post_seamless(tracer: Tracer, result, args) -> None:
    first = tracer.counts.pop("checkers.seamless-ft_first_attempts", 0)
    # A FAIL verdict re-runs its witness once more without a completion seed.
    injections = result.details.get("injectionsTried", max(0, first - (0 if result.passed else 1)))
    tracer.counts["checkers.seamless-ft_injections"] += injections


def _post_explore(tracer: Tracer, result, args) -> None:
    tracer.counts["explore.schedules"] += result.schedules_run
    tracer.counts["explore.histories"] += len(result.terminal_histories)
    tracer.counts["explore.complete"] += bool(result.complete)


_POST = {
    "engine.apply": _post_apply,
    "memory.apply": _post_prim,
    "model.happened_before": _post_hb,
    "engine.run": _post_run,
    "checkers.seamless-ft": _post_seamless,
    "explore.explore": _post_explore,
}
