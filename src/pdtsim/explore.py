"""Bounded schedule exploration: exhaustive interleaving search and seeded
random sampling, both replayable.

Exhaustive mode is a depth-first search over scheduling frontiers with one
full re-run per terminal trace, plus two sound reductions:

  * invisible steps (invocations, sends, notes, responses) never branch:
    they touch no shared memory and commute with every other choice;
  * the default scheduling unit is a whole handler section ("atomic"
    granularity): committed read values always correspond to consistent
    replica states (the lock-free read retries until it sees one), so every
    reachable committed history is already reachable with handler sections
    scheduled atomically. "reduced" (trivial-prim blocks) and "exact"
    granularities remain available for validation.

Frontier orderings rotate with depth so the first descents interleave the
transactions instead of serializing them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checkers import Verdict, check_serializability
from .engine import TICK, Decision, Schedule, SimConfig, Simulation
from .errors import BudgetExceeded
from .model import derive_history
from .scenarios import Scenario

DEFAULT_RANDOM_SCHEDULES = 10_000
DEFAULT_EXHAUSTIVE_BOUND = 8_000


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
        self.histories: set[str] = set()
        self.verdicts: dict[str, Verdict] = {}
        self.violations: list[dict] = []
        self.violation_counts: dict[str, int] = {}

    def record(self, sim: Simulation, schedule: Schedule) -> None:
        history = derive_history(sim.result().trace)
        key = history.canonical()
        self.histories.add(key)
        if key not in self.verdicts:
            self.verdicts[key] = check_serializability(history)
        verdict = self.verdicts[key]
        if not verdict.passed:
            self.violation_counts[key] = self.violation_counts.get(key, 0) + 1
            if self.violation_counts[key] == 1:
                self.violations.append({
                    "history": key,
                    "witness": verdict.witness,
                    "schedule": schedule.to_json(),
                    "schedulesMatching": 1,
                })
            else:
                for v in self.violations:
                    if v["history"] == key:
                        v["schedulesMatching"] = self.violation_counts[key]

    def result(self, runs: int, complete: bool, mode: str) -> ExplorationResult:
        return ExplorationResult(
            runs, sorted(self.histories), self.violations, complete, mode
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


def explore_exhaustive(
    config: SimConfig,
    variant,
    scenario: Scenario,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    strict_budget: bool = False,
    granularity: str = "atomic",
    on_terminal=None,
) -> ExplorationResult:
    from .engine import FairPolicy

    collector = _Collector()
    # Each stack frame is (ordered choices at that frontier, index taken).
    stack: list[tuple[list[Decision], int]] = []
    runs = 0
    complete = False
    while True:
        if runs >= bound:
            if strict_budget:
                raise BudgetExceeded(f"exhaustive exploration hit the {bound}-schedule budget")
            break
        sim = Simulation(config, variant, scenario, granularity=granularity)
        for choices, idx in stack:
            sim.apply(choices[idx])
        while not sim.all_decided():
            choices = _next_choices(sim)
            if not choices:
                break
            ordered = _ordered(choices, len(stack))
            stack.append((ordered, 0))
            sim.apply(ordered[0])
        # Once every transaction has decided, the remaining choices cannot
        # change any response payload; determinize the tail.
        fair = FairPolicy()
        while True:
            d = fair.next_decision(sim)
            if d is None:
                break
            sim.apply(d)
        sim.finish()
        runs += 1
        schedule = Schedule(
            "scripted", list(sim.decisions_taken), granularity=granularity, complete=False,
        )
        if on_terminal is not None:
            on_terminal(schedule)
        collector.record(sim, schedule)
        # Backtrack to the deepest frontier with an untried alternative; the
        # next iteration replays that prefix and extends greedily again.
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
    granularity: str = "atomic",
) -> ExplorationResult:
    collector = _Collector()
    for i in range(n):
        schedule = Schedule("random", seed=seed + i, granularity=granularity)
        sim = Simulation(config, variant, scenario, granularity=granularity)
        from .engine import make_policy

        policy = make_policy(schedule)
        while True:
            d = policy.next_decision(sim)
            if d is None:
                break
            sim.apply(d)
        sim.finish()
        collector.record(sim, schedule)
    return collector.result(n, True, "random")


def explore(
    scenario: Scenario,
    variant,
    mode: str = "exhaustive",
    max_schedules: int | None = None,
    seed: int = 0,
    config: SimConfig | None = None,
    strict_budget: bool = False,
    granularity: str = "atomic",
) -> ExplorationResult:
    config = config or scenario.config
    if mode == "exhaustive":
        return explore_exhaustive(
            config, variant, scenario,
            bound=max_schedules or DEFAULT_EXHAUSTIVE_BOUND,
            strict_budget=strict_budget,
            granularity=granularity,
        )
    if mode == "random":
        return explore_random(
            config, variant, scenario, n=max_schedules or DEFAULT_RANDOM_SCHEDULES, seed=seed,
            granularity=granularity,
        )
    raise ValueError(f"unknown exploration mode {mode!r}")
