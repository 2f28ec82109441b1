"""Bounded schedule exploration: exhaustive interleaving search and seeded
random sampling, both replayable.

Exhaustive mode is a depth-first search over scheduling frontiers with one
full re-run per terminal trace, plus two sound reductions:

  * invisible steps (invocations, sends, notes, responses) never branch:
    they touch no shared memory and commute with every other choice;
  * the scheduling unit is a whole handler section ("atomic" granularity):
    committed read values always correspond to consistent replica states
    (the lock-free read retries until it sees one), so every reachable
    committed history is already reachable with handler sections scheduled
    atomically. Witness schedules carry the granularity, so they replay as
    explored.

Each run replays the stack's prefix, descends greedily to a new terminal
until every transaction has decided, and leaves the tail to the fair policy.
Frontier orderings rotate with depth so the first descents interleave the
transactions instead of serializing them.
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


class _Descent:
    """Policy for the unexplored part of an exhaustive run: take the first
    ordered choice at each new frontier, pushing it on the stack, until every
    transaction has decided or nothing is enabled. Then the fair policy
    finishes the run: the remaining choices cannot change any response
    payload, so the tail is determinized."""

    def __init__(self, stack: list[tuple[list[Decision], int]]):
        self.stack = stack
        self.fair: FairPolicy | None = None

    def next_decision(self, sim: Simulation) -> Decision | None:
        if self.fair is None:
            choices = [] if sim.all_decided() else _next_choices(sim)
            if choices:
                ordered = _ordered(choices, len(self.stack))
                self.stack.append((ordered, 0))
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
    # Each stack frame is (ordered choices at that frontier, index taken).
    stack: list[tuple[list[Decision], int]] = []
    runs = 0
    complete = False
    while runs < bound:
        sim = Simulation(config, variant, scenario, granularity=GRANULARITY)
        for choices, idx in stack:
            sim.apply(choices[idx])
        drive(sim, _Descent(stack))
        runs += 1
        schedule = Schedule(
            "scripted", list(sim.decisions_taken), granularity=GRANULARITY, complete=False,
        )
        if on_terminal is not None:
            on_terminal(schedule)
        collector.record(sim.result().trace, schedule)
        # Backtrack to the deepest frontier with an untried alternative; the
        # next iteration replays that prefix and descends again.
        while stack and stack[-1][1] + 1 >= len(stack[-1][0]):
            stack.pop()
        if not stack:
            complete = True
            break
        choices, idx = stack[-1]
        stack[-1] = (choices, idx + 1)
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
    if mode == "exhaustive":
        return explore_exhaustive(
            scenario.config, variant, scenario, bound=max_schedules or DEFAULT_EXHAUSTIVE_BOUND,
        )
    if mode == "random":
        return explore_random(
            scenario.config, variant, scenario, n=max_schedules or DEFAULT_RANDOM_SCHEDULES, seed=seed,
        )
    raise ValueError(f"unknown exploration mode {mode!r}")
