"""The variant-by-property verdict matrix, with replayable witnesses.

Every FAIL cell carries the schedule that demonstrates it; every PASS cell
names the evidence it rests on (a checked trace, a bounded exploration, or a
crash-injection sweep).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import engine
from .checkers import (
    check_dap,
    check_ddap,
    check_fast_decision,
    check_seamless_ft,
    check_serializability,
    check_strong_ir,
    check_weak_ir,
)
from .engine import Schedule
from .explore import DEFAULT_EXHAUSTIVE_BOUND, explore
from .model import derive_history
from .protocols import BASE, NO_DDAP, NO_FAST, NO_SEAMLESS, VARIANTS, WEAK_IR, AlgorithmVariant
from .scenarios import (
    fids_schedule,
    rfids_schedule,
    scenario_disjoint_writers,
    scenario_fids,
    scenario_fids_replicated,
    scenario_readonly_pair,
    scenario_rfids,
    scenario_solo,
)


@dataclass
class MatrixReport:
    cells: dict[str, dict[str, dict]]  # variant -> property -> cell
    explore_bound: int

    def to_json(self) -> dict:
        return {"exploreBound": self.explore_bound, "cells": self.cells}

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


def _exploration_scenario(tag: str):
    # no-seamless only runs on replicated-unsharded placements.
    return scenario_fids_replicated() if tag == NO_SEAMLESS else scenario_fids()


def build_matrix(explore_bound: int = DEFAULT_EXHAUSTIVE_BOUND) -> MatrixReport:
    cells: dict[str, dict[str, dict]] = {}
    for tag in VARIANTS:
        variant = AlgorithmVariant(tag)
        row: dict[str, dict] = {}

        # Serializability: the base algorithm is refuted by the builtin
        # counterexample schedules; the others survive bounded exploration.
        if tag == BASE:
            fids = scenario_fids()
            fs = fids_schedule(variant, fids)
            res = engine.run(fids.config, variant, fids, fs)
            verdict = check_serializability(derive_history(res.trace))
            rfids = scenario_rfids()
            rs = rfids_schedule(variant, rfids)
            res_r = engine.run(rfids.config, variant, rfids, rs)
            verdict_r = check_serializability(derive_history(res_r.trace))
            row["serializability"] = {
                "pass": verdict.passed and verdict_r.passed,
                "evidence": "builtin counterexample schedules",
                "witness": {"fids": verdict.witness, "rfids": verdict_r.witness},
                "schedule": {"fids": fs.to_json(), "rfids": rs.to_json()},
            }
        else:
            scen = _exploration_scenario(tag)
            res = explore(scen, variant, mode="exhaustive", max_schedules=explore_bound)
            row["serializability"] = {
                "pass": not res.violations,
                "evidence": f"bounded exhaustive exploration of {scen.name} "
                            f"({res.schedules_run} schedules)",
                "witness": res.violations or None,
            }

        # Fast decision on a synchronous failure-free solo run.
        solo = scenario_solo(1)
        sched = Schedule("fair")
        res = engine.run(solo.config, variant, solo, sched)
        row["fast-decision"] = _cell(
            check_fast_decision(res.trace), f"solo run on {solo.name}", sched.to_json()
        )

        # Weak invisible reads: a read-only transaction next to a writer.
        ro = scenario_readonly_pair()
        ro_sched = Schedule("random", seed=11)
        ro_res = engine.run(ro.config, variant, ro, ro_sched)
        row["weak-ir"] = _cell(
            check_weak_ir(ro_res.trace), f"trace of {ro.name}", ro_sched.to_json()
        )

        # Strong invisible reads: twin substitution on the same solo run.
        row["strong-ir"] = _cell(
            check_strong_ir(res.trace), f"twin replay on {solo.name}", sched.to_json()
        )

        # DAP / DDAP: two disjoint write-only transactions, interleaved.
        dw = scenario_disjoint_writers()
        dw_sched = Schedule("fair")
        dw_res = engine.run(dw.config, variant, dw, dw_sched)
        row["dap"] = _cell(check_dap(dw_res.trace), f"trace of {dw.name}", dw_sched.to_json())
        row["ddap"] = _cell(check_ddap(dw_res.trace), f"trace of {dw.name}", dw_sched.to_json())

        # Seamless fault tolerance at s=1: the crash-injection sweep.
        row["seamless-ft"] = _cell(
            check_seamless_ft(solo.config, variant, solo, Schedule("fair"), s=1),
            f"crash-injection sweep over {solo.name}",
        )

        cells[tag] = row
    return MatrixReport(cells, explore_bound)


EXPECTED_MATRIX = {
    BASE: {"serializability": False, "fast-decision": True, "weak-ir": True,
           "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": True},
    NO_FAST: {"serializability": True, "fast-decision": False, "weak-ir": True,
              "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": True},
    WEAK_IR: {"serializability": True, "fast-decision": True, "weak-ir": True,
              "strong-ir": False, "dap": True, "ddap": True, "seamless-ft": True},
    NO_SEAMLESS: {"serializability": True, "fast-decision": True, "weak-ir": True,
                  "strong-ir": True, "dap": True, "ddap": True, "seamless-ft": False},
    NO_DDAP: {"serializability": True, "fast-decision": True, "weak-ir": True,
              "strong-ir": True, "dap": False, "ddap": False, "seamless-ft": True},
}
