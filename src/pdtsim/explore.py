"""Schedule exploration: a stateful exhaustive search and seeded random
sampling, both replayable.

Exhaustive mode is a depth-first search over scheduling frontiers, under a
timer model, plus four sound reductions.

The timer model: a timer fires only when no other choice is enabled, crashes
included, and then any armed timer may fire first, whatever its age. Firing
one is a single choice: the ticks up to its expiry, then its step. The ticks
are recorded in the run's decisions, so witnesses replay. Time thus changes
nothing a run can do, and a timer's age stays out of the state. The search
ignores the synchrony bound too. The model leaves out spurious timeouts: a
timer that fires while any other choice is enabled, such as a delivery of
the reply it waits for. Only no-seamless validation arms a timer, for
4 * delta ticks (256 by default). On fids-replicated, which allows no
crash, every explored no-seamless run stops within 37 decisions (those of
no-fast, which arms no timer, within 51), so no timer fires and the model
states what the engine does. After a crash it lets a timer fire once
nothing else can happen. A model in which timers fire at any time would
add every interleaving of a timeout with the other choices to the space.

The reductions:

  * invisible steps (invocations, sends, notes, responses) never branch:
    they touch no shared memory and commute with every other choice;
  * the scheduling unit is a whole handler section ("atomic" granularity).
    The case for it is argued for the read path only: committed read values
    always correspond to consistent replica states (the lock-free read
    retries until it sees one). It does not hold for validation, which
    checks an item's lockL and only then CASes it: at exact granularity two
    validations on one node interleave between the check and the CAS and
    commit a write skew that no atomic run reaches (ROADMAP item 14, pinned
    by the strict xfails test_no_seamless_random_105_is_serializable and
    test_weak_ir_exact_exploration_finds_no_violation in
    tests/test_protocols.py). So the search covers every committed history
    of atomic runs, not of every run. Witness schedules carry the
    granularity, so they replay as explored;
  * a visited-state cache (stateful search, as in SPIN): at each frontier
    the run takes the state's fingerprint (Simulation.fingerprint) and looks
    it up. The histories reachable from a state depend only on what the
    fingerprint holds: a handler is a deterministic function of its origin
    and of the values sent into it; a coordinator cannot see the order of
    the replies it receives between two of its own effects, since its
    receive loops keep them as sets, a dict keyed by node and a max and
    exit only on a run's last message, so its key sorts each such run (see
    Simulation.fingerprint); a send returns no message id to its
    handler, so ids never enter any state; node processes are
    interchangeable (a node handler depends only on its node and message,
    coordinators read only a sender's node, and a delivery takes any idle
    process), so the fingerprint sorts each node's processes and names a
    node sender by its node; and under the timer model no age matters. The
    responses emitted so far are part of the state, so two runs that meet
    at a state share their past history too. No state recurs along a run,
    since a recurrence would allow a run that never ends, so the cache
    cannot postpone a choice that the eager invisible steps deferred;
  * sleep sets (Godefroid), combined with the cache as in Flanagan &
    Godefroid (POPL 2005) and Yang et al. (SPIN 2008). A choice's owner is
    what it acts on: a delivery's destination, a node or a client, and a
    step's node or client. Two choices are independent when their owners
    differ and neither is a crash or a tick (a timer's firing counts as a
    tick). Each then leaves the other enabled, and both orders reach the same
    state:
      - different nodes touch disjoint memory and process pools;
      - a coordinator touches no memory;
      - a send only adds an in-flight message, which disables nothing (a
        client's next invocation waits for its inbound messages, but an
        invocation is invisible and never sleeps);
      - message ids are already erased, so the order of two sends leaves
        no trace in the state;
      - node-process symmetry is already in the fingerprint, so which idle
        process takes a delivery does not matter either.
    A run carries a sleep set of canonical choice keys (Simulation
    .choice_key: a delivery's Message.canonical(), a step's owner and
    handler key). A choice tried at a frontier puts to sleep, for each of
    its later siblings, every choice of another owner; a sleeping choice
    stays asleep until a choice of its owner (or a crash or tick) is taken,
    eager invisible steps included, and a run whose only choice sleeps
    stops. The cache then stores each state with the sleep set it was
    expanded with. A run that meets a state stored with Z' while carrying
    Z stops if Z' <= Z; otherwise it tries the choices in Z' - Z and stores
    Z' & Z. Sleep sets prune runs, never states: the search stores the same
    states and reaches the same histories as the cache alone.

The search's stack holds (Simulation clone, sleep set) pairs, each clone an
untried alternative that has already applied its choice, and the search is
complete when the stack is empty. A run pops one clone, so no schedule
re-executes its prefix from the initial state, and descends greedily,
pushing a clone for each other choice to try at every frontier on its way.
Clones are cheap: a clone re-creates a handler's generator only when it
first resumes it. A run that stops at a stored state is a revisit, one
stopped by a sleeping choice is sleep-blocked, and neither records
anything. Otherwise it stops once every transaction has decided, or once
nothing is enabled: a terminal. Its steps then hold every coordinator
response, so they give the terminal's history; the rest of the run could
change no response. The fair policy drives a terminal to quiescence only
when its decision list is needed: for the schedule of a violation seen for
the first time. Random mode stops each sample at the same point.

The result keeps the counts of the search, which every reduction of runs
moves, apart from the facts of the space, in its "search" object. A
violation's schedule is the first violating run in DFS order, so it moves
with the search too.
"""
from __future__ import annotations

import copy
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
    schedules_run: int  # runs: terminals plus, in exhaustive mode, the stopped runs
    terminal_histories: list[str]
    violations: list[dict]
    complete: bool
    mode: str
    # Exhaustive mode only: distinct frontier states expanded, runs that
    # stopped at a state expanded before, and runs that stopped because
    # every choice slept.
    states: int | None = None
    revisits: int = 0
    sleep_blocked: int = 0

    @property
    def terminals(self) -> int:
        """Runs that reached a terminal and recorded its history."""
        return self.schedules_run - self.revisits - self.sleep_blocked

    def to_json(self) -> dict:
        search = {"runs": self.schedules_run}
        if self.states is not None:
            search.update(states=self.states, terminals=self.terminals,
                          revisits=self.revisits, sleepBlocked=self.sleep_blocked)
        return {
            "mode": self.mode,
            "complete": self.complete,
            "terminalHistories": list(self.terminal_histories),
            "violations": copy.deepcopy(self.violations),
            "search": search,
        }


class _Collector:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario  # derive_history reads only its initials
        self.verdicts: dict[str, Verdict] = {}
        self.violations: dict[str, dict] = {}  # by history, in first-seen order

    def record(self, steps: list[Step], schedule: Callable[[], Schedule]) -> None:
        """Record the history of a terminal's steps; schedule() is called only
        for a violating history seen for the first time."""
        history = derive_history(ExecutionTrace(steps, scenario=self.scenario))
        key = history.canonical()
        if key not in self.verdicts:
            self.verdicts[key] = check_serializability(history)
        verdict = self.verdicts[key]
        if not verdict.passed and key not in self.violations:
            self.violations[key] = {
                "history": key,
                "witness": verdict.witness,
                "schedule": schedule().to_json(),
            }

    def result(self, runs: int, complete: bool, mode: str,
               states: int | None = None, revisits: int = 0,
               sleep_blocked: int = 0) -> ExplorationResult:
        return ExplorationResult(
            runs, sorted(self.verdicts), list(self.violations.values()), complete, mode,
            states, revisits, sleep_blocked,
        )


def _next_choices(sim: Simulation) -> list[Decision]:
    choices = sim.enabled_choices()
    # Invisible steps (invocations, sends, notes, responses) commute with
    # every other enabled choice, so firing the first of them eagerly
    # preserves all reachable histories and prunes the frontier.
    for c in choices:
        if c.t == "step" and sim.step_is_invisible(c.proc):
            return [c]
    # A timer fires only when nothing else is enabled, and then any armed
    # timer may fire first. An enabled step with no owner is an expired
    # timer's.
    untimed = [c for c in choices if c.t != "step" or sim.choice_owner(c) is not None]
    return untimed or sim.armed_timers()


def _take(sim: Simulation, choice: Decision) -> Decision:
    """The choice, once `sim` has ticked up to its expiry if it is a timer's."""
    if choice.t == "step" and sim.choice_owner(choice) is None:
        for _ in range(sim.ticks_to_expiry(choice.proc)):
            sim.apply(TICK)
    return choice


def _ordered(choices: list[Decision]) -> list[Decision]:
    """Deliveries ahead of steps: message races surface in the first
    descents instead of after deep backtracking."""
    return [c for c in choices if c.t == "deliver"] + [c for c in choices if c.t != "deliver"]


_AWAKE = frozenset()  # the one empty sleep set, shared by every state that has it


def _independent_of(sleep: frozenset, owner: tuple | None) -> frozenset:
    """The sleeping choices a choice with this owner leaves asleep: those of
    other owners. A crash, a tick or a timer (owner None) wakes them all."""
    if owner is None or not sleep:
        return _AWAKE
    kept = [z for z in sleep if z[0] != owner]
    if len(kept) == len(sleep):
        return sleep
    return frozenset(kept) if kept else _AWAKE


class _Descent:
    """Policy for one exhaustive run, which starts from a stacked clone with
    that clone's sleep set.

    Outside frontiers it takes the only choice, unless that choice sleeps,
    which stops the run as sleep-blocked. Every choice it takes drops from
    the sleep set the choices that depend on it. At a frontier (two or more
    choices) it looks the state up in `seen`, which maps a fingerprint to the
    sleep set the state was expanded with:
      * a new state is stored with the run's sleep set Z, and its choices
        outside Z are to be tried;
      * a state stored with Z' <= Z stops the run as a revisit: everything
        this run could try was tried there;
      * otherwise the choices in Z' - Z are to be tried, and the state's
        entry becomes Z' & Z.
    With no choice to try the run is sleep-blocked. Otherwise it takes the
    first choice to try in `_ordered` order and pushes onto the stack, in
    reverse, a clone per other one that has already applied it. Each choice
    to try sleeps with the run's sleep set plus the choices tried before it,
    less those that depend on it. The deepest frontier's next alternative is
    then on top, so popping the stack gives a depth-first search.
    explore_exhaustive wraps it in UntilDecided, so a run stops once every
    transaction has decided; the fair policy finishes a stopped run only
    when a reported schedule needs its decisions."""

    def __init__(self, stack: list, seen: dict[int, frozenset], sleep: frozenset):
        self.stack = stack
        self.seen = seen
        self.sleep = sleep
        self.stopped: str | None = None  # "revisit" or "sleepBlocked"

    def next_decision(self, sim: Simulation) -> Decision | None:
        choices = _next_choices(sim)
        sleep = self.sleep
        if not choices:
            return None
        if len(choices) == 1:
            choice = choices[0]
            if sleep:
                self.sleep = _independent_of(sleep, sim.choice_owner(choice))
                # Only a choice whose owner has sleeping choices can sleep.
                if len(self.sleep) < len(sleep) and sim.choice_key(choice) in sleep:
                    self.stopped = "sleepBlocked"
                    return None
            return _take(sim, choice)
        key = sim.fingerprint()
        stored = self.seen.get(key)
        if stored is not None and stored <= sleep:
            self.stopped = "revisit"
            return None
        choices = _ordered(choices)
        keys = [sim.choice_key(c) for c in choices]
        if stored is None:
            self.seen[key] = sleep
            tried = [i for i, k in enumerate(keys) if k not in sleep]
        else:
            tried = [i for i, k in enumerate(keys) if k in stored and k not in sleep]
            sleep = stored & sleep or _AWAKE
            self.seen[key] = sleep
        if not tried:
            self.stopped = "sleepBlocked"
            return None
        branches = []  # (choice, its sleep set), in the order they are tried
        for i in tried:
            k = keys[i]
            branches.append((choices[i], _independent_of(sleep, None if k is None else k[0])))
            if k is not None:
                sleep = sleep | {k}
        (first, self.sleep), *others = branches
        for choice, child_sleep in reversed(others):
            alternative = sim.clone()
            alternative.apply(_take(alternative, choice))
            self.stack.append((alternative, child_sleep))
        return _take(sim, first)


def _finished(sim: Simulation) -> Schedule:
    """Drive a stopped run to quiescence with the fair policy and return its
    decisions as a replayable schedule."""
    drive(sim, FairPolicy())
    return Schedule("scripted", list(sim.decisions_taken), granularity=GRANULARITY)


def explore_exhaustive(
    variant,
    scenario: Scenario,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> ExplorationResult:
    collector = _Collector(scenario)
    stack = [(Simulation(scenario.config, variant, scenario, granularity=GRANULARITY), _AWAKE)]
    seen: dict[int, frozenset] = {}
    runs = revisits = sleep_blocked = 0
    while stack and runs < bound:
        sim, sleep = stack.pop()
        descent = _Descent(stack, seen, sleep)
        drive(sim, UntilDecided(descent))
        runs += 1
        if descent.stopped == "revisit":
            revisits += 1
            continue
        if descent.stopped == "sleepBlocked":
            sleep_blocked += 1
            continue
        # The stack holds only clones, so the fair tail may finish the
        # stopped sim in place; it changes no response, so the history is
        # the same whether it ran or not.
        collector.record(sim.steps, lambda: _finished(sim))
    return collector.result(runs, not stack, "exhaustive", len(seen), revisits, sleep_blocked)


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
