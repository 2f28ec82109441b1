"""The variant-by-property verdict matrix, with replayable witnesses.

Every FAIL cell carries the schedule that demonstrates it; every PASS cell
names the evidence it rests on (a checked trace, an exploration that says
whether it was complete or bounded, or a crash-injection sweep).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import engine
from .checkers import CHECKERS_BY_NAME, check_seamless_ft
from .engine import Schedule
from .explore import explore
from .protocols import BASE, NO_DDAP, NO_FAST, NO_SEAMLESS, VARIANTS, WEAK_IR, AlgorithmVariant
from .scenarios import builtin_schedule, get_scenario

# The one-trace columns: property -> (scenario, schedule, evidence label). The
# cell is the verdict of the checker `pdtsim check` runs for that property, on
# the variant's run of that scenario under that schedule.
EVIDENCE: dict[str, tuple[str, Schedule, str]] = {
    # Fast decision on a synchronous failure-free solo run.
    "fast-decision": ("solo-r1", Schedule("fair"), "solo run on"),
    # Weak invisible reads: a read-only transaction next to a writer.
    "weak-ir": ("readonly-pair", Schedule("random", seed=11), "trace of"),
    # Strong invisible reads: twin substitution on the same solo run.
    "strong-ir": ("solo-r1", Schedule("fair"), "twin replay on"),
    # DAP / DDAP: two disjoint write-only transactions, interleaved.
    "dap": ("disjoint-writers", Schedule("fair"), "trace of"),
    "ddap": ("disjoint-writers", Schedule("fair"), "trace of"),
}


@dataclass
class MatrixReport:
    cells: dict[str, dict[str, dict]]  # variant -> property -> cell

    def to_json(self) -> dict:
        return {"cells": self.cells}

    def to_markdown(self) -> str:
        # Columns are the checked properties, in the order build_matrix checks them.
        columns = list(self.cells[VARIANTS[0]])
        header = "| algorithm | " + " | ".join(columns) + " |"
        sep = "|" + "---|" * (len(columns) + 1)
        rows = [header, sep]
        for variant in VARIANTS:
            marks = []
            for prop in columns:
                cell = self.cells[variant][prop]
                marks.append("PASS" if cell["pass"] else "FAIL")
            rows.append("| " + variant + " | " + " | ".join(marks) + " |")
        return "\n".join(rows) + "\n"


def _cell(verdict, evidence: str, schedule: Any = None) -> dict:
    cell = {"pass": verdict.passed, "evidence": evidence}
    if verdict.witness is not None:
        cell["witness"] = verdict.witness
    if verdict.details:
        cell["details"] = verdict.details
    if schedule is not None:
        cell["schedule"] = schedule
    return cell


def _serializability(variant: AlgorithmVariant) -> dict:
    """base is refuted by the builtin counterexample schedules; the others
    survive exhaustive exploration, complete where it finishes within the
    default run bound."""
    if variant.tag == BASE:
        witnesses, schedules, passed = {}, {}, True
        for name in ("fids", "rfids"):
            scen = get_scenario(name)
            sched = builtin_schedule(name, variant, scen)
            trace = engine.run(scen.config, variant, scen, sched).trace
            verdict = CHECKERS_BY_NAME["serializability"](trace)
            passed = passed and verdict.passed
            witnesses[name], schedules[name] = verdict.witness, sched.to_json()
        return {"pass": passed, "evidence": "builtin counterexample schedules",
                "witness": witnesses, "schedule": schedules}
    # no-seamless only runs on replicated-unsharded placements.
    scen = get_scenario("fids-replicated" if variant.tag == NO_SEAMLESS else "fids")
    res = explore(scen, variant, mode="exhaustive")
    extent = (f"complete exploration of {scen.name}" if res.complete
              else f"bounded exploration of {scen.name} at {res.schedules_run} runs")
    evidence = f"{extent}: {len(res.terminal_histories)} histories"
    return {"pass": not res.violations, "evidence": evidence, "witness": res.violations or None}


def build_matrix() -> MatrixReport:
    cells: dict[str, dict[str, dict]] = {}
    for tag in VARIANTS:
        variant = AlgorithmVariant(tag)
        row = {"serializability": _serializability(variant)}
        traces = {}  # each (scenario, schedule) pair runs once per variant
        for prop, (name, sched, label) in EVIDENCE.items():
            key = (name, repr(sched))
            if key not in traces:
                scen = get_scenario(name)
                traces[key] = engine.run(scen.config, variant, scen, sched).trace
            row[prop] = _cell(CHECKERS_BY_NAME[prop](traces[key]), f"{label} {name}", sched.to_json())
        # Seamless fault tolerance at s=1: the crash-injection sweep.
        solo = get_scenario("solo-r1")
        row["seamless-ft"] = _cell(
            check_seamless_ft(solo.config, variant, solo, Schedule("fair"), s=1),
            f"crash-injection sweep over {solo.name}",
        )
        cells[tag] = row
    return MatrixReport(cells)


# The properties each variant gives up; it keeps every other one.
LOSES = {
    BASE: {"serializability"},
    NO_FAST: {"fast-decision"},
    WEAK_IR: {"strong-ir"},
    NO_SEAMLESS: {"seamless-ft"},
    NO_DDAP: {"dap", "ddap"},
}
EXPECTED_MATRIX = {
    tag: {prop: prop not in lost for prop in ("serializability", *EVIDENCE, "seamless-ft")}
    for tag, lost in LOSES.items()
}
