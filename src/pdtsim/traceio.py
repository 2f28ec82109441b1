"""Trace serialization: JSON-lines steps plus a sidecar with the run's refs.

The .jsonl file holds exactly one step record per line (UTF-8, LF). Replay-
based checkers need to know what produced a trace, so `write_run` also emits
`<out>.meta.json` carrying the scenario (its `sim` section is the run's
SimConfig), the algorithm and the schedule. `read_trace` ignores any other
key, such as the `config` copy that older sidecars carry. Both files are
byte-deterministic for identical runs.
"""
from __future__ import annotations

import json
from pathlib import Path

from .engine import RunResult
from .model import ExecutionTrace, Step, json_object
from .protocols import AlgorithmVariant
from .scenarios import Scenario


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def meta_path_for(trace_path: str | Path) -> Path:
    return Path(str(trace_path) + ".meta.json")


def write_trace(trace: ExecutionTrace, path: str | Path) -> None:
    lines = [dumps_canonical(s.to_json()) for s in trace.steps]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_run(result: RunResult, path: str | Path) -> None:
    write_trace(result.trace, path)
    trace = result.trace
    meta = {
        "scenario": trace.scenario.to_json() if trace.scenario else None,
        "algorithm": trace.algorithm.to_json() if trace.algorithm else None,
        "schedule": trace.schedule,
    }
    meta_path_for(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def read_trace(path: str | Path) -> ExecutionTrace:
    steps = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                steps.append(Step.from_json(json.loads(line), len(steps)))
    trace = ExecutionTrace(steps)
    meta_file = meta_path_for(path)
    if meta_file.exists():
        meta = json_object(json.loads(meta_file.read_text(encoding="utf-8")), "trace sidecar")
        if meta.get("scenario"):
            trace.scenario = Scenario.from_json(meta["scenario"])
        if meta.get("algorithm"):
            trace.algorithm = AlgorithmVariant.from_json(meta["algorithm"])
        trace.schedule = meta.get("schedule")
    return trace
