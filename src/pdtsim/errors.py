"""Exception types shared across the simulator, analysis, and checker layers."""


class PdtsimError(Exception):
    """Base class for all package errors."""


class PlacementError(PdtsimError):
    """A data item is mapped to an unknown node, or the placement is malformed."""


class ScheduleStuck(PdtsimError):
    """A scripted schedule named a scheduling choice that is not enabled."""


class AlreadyCrashed(PdtsimError):
    """A crash was requested for a node that the schedule already crashes."""


class CrossNodeAccess(PdtsimError):
    """A process touched a base object that lives on a different node."""


class OrphanStep(PdtsimError):
    """A depth was asked of a step that belongs to no handler."""


class Undecided(PdtsimError):
    """A depth/history query was made for a transaction that never decided."""


class MalformedInput(PdtsimError):
    """A scenario, schedule or trace file does not have the expected JSON shape."""


class MalformedResponse(PdtsimError):
    """A coordinator response step is missing its read/write sets."""


class TooLarge(PdtsimError):
    """Nothing in pdtsim raises it since the serializability check decides
    histories of any size; the benchmark's `check` workload still imports it."""


class ScheduleIncompatible(PdtsimError):
    """A scripted schedule cannot be adapted to a twin-substituted re-execution."""


class RunawayRun(PdtsimError):
    """A single run exceeded the engine's decision cap (non-terminating schedule)."""


class InvariantViolation(PdtsimError, AssertionError):
    """A trace broke one of the structural invariants every run must satisfy.

    Also an AssertionError, so callers that catch a failed check keep working.
    """
