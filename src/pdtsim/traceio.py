"""Trace serialization: JSON-lines steps plus a sidecar with the run's refs.

The .jsonl file holds exactly one step record per line (UTF-8, LF). Replay-
based checkers need to know what produced a trace, so `write_run` also emits
`<out>.meta.json` carrying the scenario (its `sim` section is the run's
SimConfig), the algorithm and the schedule. `read_trace` ignores any other
key, such as the `config` copy that older sidecars carry. Both files are
byte-deterministic for identical runs.

`read_trace` decodes each non-blank line on its own and rejects a line that
is not exactly one JSON value, so a record split over two lines, or two
records on one, is malformed input, and a syntax error names its step. Each
decoded record is handed to `Step.from_json`, which takes it over, and the
steps of one process share one `ProcessRef`.
"""
from __future__ import annotations

import json
from pathlib import Path

from .engine import RunResult
from .errors import MalformedInput
from .model import ExecutionTrace, Step, json_object
from .protocols import AlgorithmVariant
from .scenarios import Scenario


# The encoder json.dumps would build for these arguments on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
_scan_value = json.JSONDecoder().scan_once


def dumps_canonical(obj) -> str:
    return _CANONICAL.encode(obj)


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


def _decode_line(line: str, i: int):
    """The JSON value that is all of ``line`` (stripped, non-empty), which
    holds trace step i. The scanner is what json.loads runs after its two
    whitespace matches; when it fails or stops short, json.loads gives the
    usual error."""
    try:
        value, end = _scan_value(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"trace step {i}: {e.msg} at column {e.colno}") from None


def read_trace(path: str | Path) -> ExecutionTrace:
    steps: list[Step] = []
    procs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                i = len(steps)
                steps.append(Step.from_json(_decode_line(line, i), i, procs))
    trace = ExecutionTrace(steps)
    meta_file = meta_path_for(path)
    if meta_file.exists():
        try:
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise MalformedInput(f"trace sidecar: {e}") from None
        meta = json_object(meta, "trace sidecar")
        if meta.get("scenario"):
            trace.scenario = Scenario.from_json(meta["scenario"])
        if meta.get("algorithm"):
            trace.algorithm = AlgorithmVariant.from_json(meta["algorithm"])
        trace.schedule = meta.get("schedule")
    return trace
