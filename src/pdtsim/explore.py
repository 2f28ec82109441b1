"""Schedule exploration: a stateful exhaustive search and seeded random
sampling, both replayable.

Exhaustive mode is a depth-first search over scheduling frontiers, plus
three sound reductions:

  * invisible steps (invocations, sends, notes, responses) never branch:
    they touch no shared memory and commute with every other choice;
  * the scheduling unit is a whole handler section ("atomic" granularity):
    committed read values always correspond to consistent replica states
    (the lock-free read retries until it sees one), so every reachable
    committed history is already reachable with handler sections scheduled
    atomically. Witness schedules carry the granularity, so they replay as
    explored;
  * a visited-state cache (stateful search, as in SPIN): at each frontier
    the run takes the state's fingerprint (Simulation.fingerprint) and stops
    if the state was expanded before. The histories reachable from a state
    depend only on what the fingerprint holds: a handler is a deterministic
    function of its origin and of the values sent into it; a send returns
    no message id to its handler, so ids never enter any state; and node
    processes are interchangeable (a node handler depends only on its node
    and message, coordinators read only a sender's node, and a delivery
    takes any idle process), so the fingerprint sorts each node's processes
    and names a node sender by its node. The search ignores the synchrony
    bound, so time enters only as the ages of armed timers, which the
    fingerprint holds. The responses emitted so far are
    part of the state, so two runs that meet at a state share their past
    history too. No state recurs along a run, since a recurrence would allow
    a run that never ends, so the cache cannot postpone a choice that the
    eager invisible steps deferred.

The search's stack holds Simulation clones, each an untried alternative
that has already applied its choice, and the search is complete when the
stack is empty. A run pops one clone, so no schedule re-executes its prefix
from the initial state, and descends greedily, pushing a clone for each other
choice at every new frontier on its way. Clones are cheap: a clone re-creates
a handler's generator only when it first resumes it. A run that meets a
visited state is a revisit and records nothing. Otherwise it stops once
every transaction has decided, or once nothing is enabled: a terminal. Its
steps then hold every coordinator response, so they give the terminal's
history; the rest of the run could change no response. The fair policy
drives a terminal to quiescence only when its decision list is needed: for
the schedule of a violation seen for the first time, or for on_terminal.
Random mode stops each sample at the same point.
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
    schedules_run: int  # runs: terminals plus, in exhaustive mode, revisits
    terminal_histories: list[str]
    violations: list[dict]
    complete: bool
    mode: str
    # Exhaustive mode only: distinct frontier states expanded, and runs that
    # stopped at a state expanded before.
    states: int | None = None
    revisits: int = 0

    @property
    def terminals(self) -> int:
        """Runs that reached a terminal and recorded its history."""
        return self.schedules_run - self.revisits

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "schedulesRun": self.schedules_run,
            "complete": self.complete,
            "terminalHistories": self.terminal_histories,
            "violations": self.violations,
        }
        if self.states is not None:
            out.update(states=self.states, revisits=self.revisits, terminals=self.terminals)
        return out


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

    def result(self, runs: int, complete: bool, mode: str,
               states: int | None = None, revisits: int = 0) -> ExplorationResult:
        return ExplorationResult(
            runs, sorted(self.verdicts), list(self.violations.values()), complete, mode,
            states, revisits,
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


def _ordered(choices: list[Decision]) -> list[Decision]:
    """Deliveries ahead of steps: message races surface in the first
    descents instead of after deep backtracking."""
    return [c for c in choices if c.t == "deliver"] + [c for c in choices if c.t != "deliver"]


class _Descent:
    """Policy for one exhaustive run. At a frontier (two or more choices)
    whose state is in `seen` it stops the run as a revisit. At a new one it
    records the state, takes the first ordered choice, and pushes onto the
    stack, in reverse order, one clone per other choice that has already
    applied it. The deepest frontier's next alternative is then on top, so
    popping the stack gives a depth-first search. explore_exhaustive wraps
    it in UntilDecided, so a run stops once every transaction has decided;
    the fair policy finishes a stopped run only when a reported schedule
    needs its decisions."""

    def __init__(self, stack: list[Simulation], seen: set[int]):
        self.stack = stack
        self.seen = seen
        self.revisit = False

    def next_decision(self, sim: Simulation) -> Decision | None:
        choices = _next_choices(sim)
        if len(choices) <= 1:
            return choices[0] if choices else None
        key = sim.fingerprint()
        if key in self.seen:
            self.revisit = True
            return None
        self.seen.add(key)
        first, *others = _ordered(choices)
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
    seen: set[int] = set()
    runs = revisits = 0
    while stack and runs < bound:
        sim = stack.pop()
        descent = _Descent(stack, seen)
        drive(sim, UntilDecided(descent))
        runs += 1
        if descent.revisit:
            revisits += 1
            continue
        # The stack holds only clones, so the fair tail may finish the
        # stopped sim in place; it changes no response, so the history is
        # the same whether it ran or not.
        if on_terminal is not None:
            schedule = _finished(sim)
            on_terminal(schedule)
            collector.record(sim.steps, lambda: schedule)
        else:
            collector.record(sim.steps, lambda: _finished(sim))
    return collector.result(runs, not stack, "exhaustive", len(seen), revisits)


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
