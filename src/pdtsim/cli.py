"""Command-line interface.

    pdtsim run     --scenario <name|file.json> --algorithm <tag>
                   --schedule <builtin:fids|builtin:rfids|random:SEED|file.json>
                   --out trace.jsonl
    pdtsim check   --trace trace.jsonl --property <name> [--s N]
    pdtsim explore --scenario ... --algorithm ... --mode <exhaustive|random>
                   [--max N] [--seed S] --out result.json
    pdtsim matrix  --out report.md [--json report.json]

Exit codes: 0 all requested checks pass / run complete; 1 a check failed
(witness printed); 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .checkers import CHECKERS_BY_NAME, PROPERTIES, SIDECAR_REFS
from .engine import Schedule
from .errors import PdtsimError
from .explore import explore
from .matrix import build_matrix
from .protocols import VARIANTS, AlgorithmVariant
from .scenarios import BUILTIN_SCENARIOS, Scenario, builtin_schedule, get_scenario
from .traceio import read_trace, write_run


def _load_scenario(spec: str) -> Scenario:
    name = spec.removeprefix("builtin:")
    if name in BUILTIN_SCENARIOS:
        return get_scenario(name)
    path = Path(spec)
    if not path.exists():
        raise PdtsimError(f"unknown scenario {spec!r} (not builtin, not a file)")
    return Scenario.from_json(json.loads(path.read_text(encoding="utf-8")))


def _load_schedule(spec: str, variant: AlgorithmVariant, scenario: Scenario) -> Schedule:
    if spec.startswith("builtin:"):
        return builtin_schedule(spec, variant, scenario)
    if spec.startswith("random:"):
        return Schedule("random", seed=int(spec.split(":", 1)[1]))
    if spec == "fair":
        return Schedule("fair")
    path = Path(spec)
    if not path.exists():
        raise PdtsimError(f"unknown schedule {spec!r} (not builtin/random/fair, not a file)")
    return Schedule.from_json(json.loads(path.read_text(encoding="utf-8")))


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    variant = AlgorithmVariant(args.algorithm)
    schedule = _load_schedule(args.schedule, variant, scenario)
    result = engine.run(scenario.config, variant, scenario, schedule)
    write_run(result, args.out)
    for prog in scenario.transactions:
        resp = result.trace.coordinator_response(prog.txn_id)
        outcome = resp.outcome if resp else "undecided"
        print(f"{prog.txn_id}: {outcome}")
    print(f"wrote {len(result.trace.steps)} steps to {args.out}")
    return 0


def _cmd_check(args) -> int:
    trace = read_trace(args.trace)
    prop = args.property  # argparse's choices=PROPERTIES rejects any other name
    if any(getattr(trace, ref) is None for ref in SIDECAR_REFS.get(prop, ())):
        raise PdtsimError(f"{prop} needs the trace's .meta.json sidecar")
    options = {"s": args.s} if prop == "seamless-ft" else {}
    verdict = CHECKERS_BY_NAME[prop](trace, **options)
    print(json.dumps(verdict.to_json(), sort_keys=True, indent=2, ensure_ascii=False))
    return 0 if verdict.passed else 1


def _cmd_explore(args) -> int:
    scenario = _load_scenario(args.scenario)
    variant = AlgorithmVariant(args.algorithm)
    result = explore(
        scenario, variant, mode=args.mode, max_schedules=args.max, seed=args.seed,
    )
    payload = json.dumps(result.to_json(), sort_keys=True, indent=2, ensure_ascii=False)
    Path(args.out).write_text(payload + "\n", encoding="utf-8")
    extent = "complete" if result.complete else "bounded"
    states = "" if result.states is None else (
        f" ({result.terminals} terminals, {result.revisits} revisits, "
        f"{result.sleep_blocked} sleep-blocked), {result.states} states"
    )
    print(f"{extent} {result.mode} exploration: {result.schedules_run} runs{states}, "
          f"{len(result.violations)} violation(s), "
          f"{len(result.terminal_histories)} distinct histories -> {args.out}")
    return 0


def _cmd_matrix(args) -> int:
    report = build_matrix()
    Path(args.out).write_text(report.to_markdown(), encoding="utf-8")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json(), sort_keys=True, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    print(report.to_markdown())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdtsim",
        description="Deterministic simulator and property checker for "
                    "parallel distributed transactional systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario under one schedule")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--algorithm", required=True, choices=VARIANTS)
    p_run.add_argument("--schedule", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="check one property on a recorded trace")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--property", required=True, choices=PROPERTIES)
    p_check.add_argument("--s", type=int, default=1, help="seamless-ft crash budget")
    p_check.set_defaults(func=_cmd_check)

    p_explore = sub.add_parser("explore", help="enumerate or sample schedules")
    p_explore.add_argument("--scenario", required=True)
    p_explore.add_argument("--algorithm", required=True, choices=VARIANTS)
    p_explore.add_argument("--mode", required=True, choices=("exhaustive", "random"))
    p_explore.add_argument("--max", type=int, default=None)
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--out", required=True)
    p_explore.set_defaults(func=_cmd_explore)

    p_matrix = sub.add_parser("matrix", help="build the variant/property matrix")
    p_matrix.add_argument("--out", required=True)
    p_matrix.add_argument("--json", default=None)
    p_matrix.set_defaults(func=_cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except PdtsimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
