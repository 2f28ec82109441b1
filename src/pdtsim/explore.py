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

The search's stack holds Simulation clones, each an untried alternative
that has already applied its choice, and the search is complete when the
stack is empty. A run pops one clone, so no schedule re-executes its prefix
from the initial state, and descends greedily to a new terminal, pushing a
clone for each other choice at every frontier on its way. It stops once
every transaction has decided, or once nothing is enabled. Its steps then
hold every coordinator response, so they give the terminal's history; the
rest of the run could change no response. The fair policy drives a stopped
run to quiescence only when its decision list is needed: for the schedule of
a violation seen for the first time, or for on_terminal. Frontier orderings
rotate with depth so the first descents interleave the transactions instead
of serializing them. Random mode stops each sample at the same point.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .checkers import Verdict, check_serializability
from .engine import (
    TICK,
    Decision,
    FairPolicy,
    RandomPolicy,
    Schedule,
    Simulation,
    UntilDecided,
    drive,
)
from .model import ExecutionTrace, Step, derive_history
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
    def __init__(self, scenario: Scenario):
        self.scenario = scenario  # derive_history reads only its initials
        self.verdicts: dict[str, Verdict] = {}
        self.violations: dict[str, dict] = {}  # by history, in first-seen order

    def record(self, steps: list[Step], schedule: Callable[[], Schedule]) -> None:
        """Count the history of a terminal's steps; schedule() is called only
        for a violating history seen for the first time."""
        history = derive_history(ExecutionTrace(steps, scenario=self.scenario))
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
                "schedule": schedule().to_json(),
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
    """Policy for one exhaustive run: at each frontier take the first ordered
    choice, and push onto the stack, in reverse order, one clone per other
    choice that has already applied it. The deepest frontier's next
    alternative is then on top, so popping the stack gives a depth-first
    search. explore_exhaustive wraps it in UntilDecided, so a run stops once
    every transaction has decided; the fair policy finishes a stopped run
    only when a reported schedule needs its decisions."""

    def __init__(self, stack: list[Simulation]):
        self.stack = stack

    def next_decision(self, sim: Simulation) -> Decision | None:
        choices = _next_choices(sim)
        if not choices:
            return None
        first, *others = _ordered(choices, len(sim.decisions_taken))
        for choice in reversed(others):
            alternative = sim.clone()
            alternative.apply(choice)
            self.stack.append(alternative)
        return first


def _finished(sim: Simulation) -> Schedule:
    """Drive a stopped run to quiescence with the fair policy and return its
    decisions as a replayable schedule."""
    drive(sim, FairPolicy())
    return Schedule("scripted", list(sim.decisions_taken), granularity=GRANULARITY, complete=False)


def explore_exhaustive(
    variant,
    scenario: Scenario,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    on_terminal=None,
) -> ExplorationResult:
    collector = _Collector(scenario)
    stack = [Simulation(scenario.config, variant, scenario, granularity=GRANULARITY)]
    runs = 0
    while stack and runs < bound:
        sim = stack.pop()
        drive(sim, UntilDecided(_Descent(stack)))
        runs += 1
        # The stack holds only clones, so the fair tail may finish the
        # stopped sim in place; it changes no response, so the history is
        # the same whether it ran or not.
        if on_terminal is not None:
            schedule = _finished(sim)
            on_terminal(schedule)
            collector.record(sim.steps, lambda: schedule)
        else:
            collector.record(sim.steps, lambda: _finished(sim))
    return collector.result(runs, not stack, "exhaustive")


def explore_random(
    variant,
    scenario: Scenario,
    n: int = DEFAULT_RANDOM_SCHEDULES,
    seed: int = 0,
) -> ExplorationResult:
    collector = _Collector(scenario)
    for i in range(n):
        sim = Simulation(scenario.config, variant, scenario, granularity=GRANULARITY)
        drive(sim, UntilDecided(RandomPolicy(seed + i)))
        schedule = Schedule("random", seed=seed + i, granularity=GRANULARITY)
        collector.record(sim.steps, lambda: schedule)
    # Sampling never shows that the space is exhausted.
    return collector.result(n, False, "random")


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
        return explore_exhaustive(variant, scenario, bound=bound)
    if mode == "random":
        n = DEFAULT_RANDOM_SCHEDULES if max_schedules is None else max_schedules
        return explore_random(variant, scenario, n=n, seed=seed)
    raise ValueError(f"unknown exploration mode {mode!r}")
