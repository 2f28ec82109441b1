"""Bounded schedule exploration: exhaustive interleaving search and seeded
random sampling, both replayable.

Exhaustive mode is a depth-first search over scheduling frontiers, plus two
sound reductions:

  * invisible steps (invocations, sends, notes, responses) never branch:
    they touch no shared memory and commute with every other choice;
  * the scheduling unit is a whole handler section ("atomic" granularity):
    committed read values always correspond to consistent replica states
    (the lock-free read retries until it sees one), so every reachable
    committed history is already reachable with handler sections scheduled
    atomically. Witness schedules carry the granularity, so they replay as
    explored.

Each frontier with more than one choice keeps a snapshot (Simulation.clone)
of the state before its first choice. A backtrack resumes from a clone of the
deepest snapshot with an untried alternative, so no schedule re-executes its
prefix from the initial state. From there the run descends greedily to a new
terminal until every transaction has decided, and leaves the tail to the fair
policy. Frontier orderings rotate with depth so the first descents interleave
the transactions instead of serializing them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checkers import Verdict, check_serializability
from .engine import TICK, Decision, FairPolicy, Schedule, SimConfig, Simulation, drive, run
from .model import ExecutionTrace, derive_history
from .scenarios import Scenario

DEFAULT_RANDOM_SCHEDULES = 10_000
DEFAULT_EXHAUSTIVE_BOUND = 8_000
GRANULARITY = "atomic"  # the explorer's scheduling unit: a whole handler section


@dataclass
class ExplorationResult:
    schedules_run: int
    terminal_histories: list[str]
    violations: list[dict]
    complete: bool
    mode: str

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "schedulesRun": self.schedules_run,
            "complete": self.complete,
            "terminalHistories": self.terminal_histories,
            "violations": self.violations,
        }


class _Collector:
    def __init__(self):
        self.verdicts: dict[str, Verdict] = {}
        self.violations: dict[str, dict] = {}  # by history, in first-seen order

    def record(self, trace: ExecutionTrace, schedule: Schedule) -> None:
        history = derive_history(trace)
        key = history.canonical()
        if key not in self.verdicts:
            self.verdicts[key] = check_serializability(history)
        verdict = self.verdicts[key]
        if verdict.passed:
            return
        if key in self.violations:
            self.violations[key]["schedulesMatching"] += 1
        else:
            self.violations[key] = {
                "history": key,
                "witness": verdict.witness,
                "schedule": schedule.to_json(),
                "schedulesMatching": 1,
            }

    def result(self, runs: int, complete: bool, mode: str) -> ExplorationResult:
        return ExplorationResult(
            runs, sorted(self.verdicts), list(self.violations.values()), complete, mode
        )


def _next_choices(sim: Simulation) -> list[Decision]:
    choices = sim.enabled_choices()
    if choices:
        # Invisible steps (invocations, sends, notes, responses) commute with
        # every other enabled choice, so firing the first of them eagerly
        # preserves all reachable histories and prunes the frontier.
        for c in choices:
            if c.t == "step" and sim.step_is_invisible(c.proc):
                return [c]
        return choices
    if sim.has_armed_timer():
        return [TICK]  # deterministic fast-forward to the next timer
    return []


def _ordered(choices: list[Decision], depth: int) -> list[Decision]:
    """Deliveries ahead of steps, rotated by depth: message races surface in
    the first descents instead of after deep backtracking."""
    if len(choices) <= 1:
        return choices
    ranked = [c for c in choices if c.t == "deliver"] + [c for c in choices if c.t != "deliver"]
    rot = depth % len(ranked)
    return ranked[rot:] + ranked[:rot]


# A stack frame: the ordered choices at one frontier, the index taken, and,
# while an alternative is untried, a snapshot of the state before the choice.
_Frame = tuple[list[Decision], int, Simulation | None]


class _Descent:
    """Policy for the unexplored part of an exhaustive run: take the first
    ordered choice at each new frontier, pushing a frame on the stack, until
    every transaction has decided or nothing is enabled. A frontier with
    alternatives is snapshotted before its first choice. Then the fair policy
    finishes the run: the remaining choices cannot change any response
    payload, so the tail is determinized."""

    def __init__(self, stack: list[_Frame]):
        self.stack = stack
        self.fair: FairPolicy | None = None

    def next_decision(self, sim: Simulation) -> Decision | None:
        if self.fair is None:
            choices = [] if sim.all_decided() else _next_choices(sim)
            if choices:
                ordered = _ordered(choices, len(self.stack))
                self.stack.append((ordered, 0, sim.clone() if len(ordered) > 1 else None))
                return ordered[0]
            self.fair = FairPolicy()
        return self.fair.next_decision(sim)


def explore_exhaustive(
    config: SimConfig,
    variant,
    scenario: Scenario,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    on_terminal=None,
) -> ExplorationResult:
    collector = _Collector()
    stack: list[_Frame] = []
    runs = 0
    complete = False
    sim = Simulation(config, variant, scenario, granularity=GRANULARITY)
    while runs < bound:
        drive(sim, _Descent(stack))
        runs += 1
        schedule = Schedule(
            "scripted", list(sim.decisions_taken), granularity=GRANULARITY, complete=False,
        )
        if on_terminal is not None:
            on_terminal(schedule)
        collector.record(sim.result().trace, schedule)
        # Backtrack to the deepest frontier with an untried alternative and
        # take it from that frontier's snapshot: a clone while alternatives
        # remain after it, the snapshot itself for the last one.
        while stack and stack[-1][1] + 1 >= len(stack[-1][0]):
            stack.pop()
        if not stack:
            complete = True
            break
        choices, idx, snapshot = stack[-1]
        idx += 1
        if idx + 1 < len(choices):
            sim = snapshot.clone()
        else:
            sim, snapshot = snapshot, None
        stack[-1] = (choices, idx, snapshot)
        sim.apply(choices[idx])
    return collector.result(runs, complete, "exhaustive")


def explore_random(
    config: SimConfig,
    variant,
    scenario: Scenario,
    n: int = DEFAULT_RANDOM_SCHEDULES,
    seed: int = 0,
) -> ExplorationResult:
    collector = _Collector()
    for i in range(n):
        schedule = Schedule("random", seed=seed + i, granularity=GRANULARITY)
        collector.record(run(config, variant, scenario, schedule).trace, schedule)
    return collector.result(n, True, "random")


def explore(
    scenario: Scenario,
    variant,
    mode: str = "exhaustive",
    max_schedules: int | None = None,
    seed: int = 0,
) -> ExplorationResult:
    """Explore with the mode's default schedule count when max_schedules is None."""
    if max_schedules is not None and max_schedules < 1:
        raise ValueError(f"the schedule count (--max) must be at least 1, got {max_schedules}")
    if mode == "exhaustive":
        bound = DEFAULT_EXHAUSTIVE_BOUND if max_schedules is None else max_schedules
        return explore_exhaustive(scenario.config, variant, scenario, bound=bound)
    if mode == "random":
        n = DEFAULT_RANDOM_SCHEDULES if max_schedules is None else max_schedules
        return explore_random(scenario.config, variant, scenario, n=n, seed=seed)
    raise ValueError(f"unknown exploration mode {mode!r}")
