"""Give-up labeling and monitorability classification of Moore monitors.

An inconclusive state that cannot reach any conclusive state will stay
inconclusive forever; relabeling it GIVEUP lets the monitor announce that
continuing is pointless.  The pass is a single backward reachability sweep
from the conclusive states, linear in states plus edges, or on a minimal
machine a scan for its one state that loops on every event.  :func:`classify`
and the runtime apply it themselves, so they treat a machine and its
partialized form alike.
"""

from __future__ import annotations

from enum import Enum

from .fsm import MooreMonitor, Verdict
from .graphs import can_reach, reachable_from
from .ltl import Record


class Monitorability(Enum):
    NON_MONITORABLE = "NON_MONITORABLE"
    EXISTS_PZ_ONLY = "EXISTS_PZ_ONLY"
    FORALL_PZ = "FORALL_PZ"


class MonitorabilityReport(Record):
    """What the synthesized machine can still conclude, and from where.

    ``ugly_witness`` is a shortest trace leading to a give-up state (empty for
    machines that give up immediately, None when no give-up state exists).
    """

    __slots__ = _fields = (
        "classification",
        "can_reach_top",
        "can_reach_bot",
        "state_count",
        "giveup_state_count",
        "ugly_witness",
    )
    classification: Monitorability
    can_reach_top: bool
    can_reach_bot: bool
    state_count: int
    giveup_state_count: int
    ugly_witness: tuple[str, ...] | None

    def __init__(
        self,
        classification: Monitorability,
        can_reach_top: bool,
        can_reach_bot: bool,
        state_count: int,
        giveup_state_count: int,
        ugly_witness: tuple[str, ...] | None,
    ):
        self._set_fields(
            classification, can_reach_top, can_reach_bot, state_count, giveup_state_count, ugly_witness
        )

    def as_dict(self) -> dict:
        """The fields as JSON values: an Enum by its value, a tuple as a list."""
        return {name: _json_value(getattr(self, name)) for name in self._fields}


def _json_value(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


# What a partialized machine keeps as its own partialized form: a reference
# to itself would be a cycle that only the cyclic garbage collector frees.
_ITSELF = True


def partialize(machine: MooreMonitor) -> MooreMonitor:
    """Relabel hopeless inconclusive states with the give-up verdict.

    States, transitions and conclusive outputs are untouched; an UNKNOWN state
    keeps its output iff some TOP or BOT state is reachable from it, and
    becomes GIVEUP otherwise.  A hopeless state outputs UNKNOWN on every
    continuation, so in a machine :func:`partmon.fsm.minimize_moore`
    returned, with no GIVEUP output, the hopeless states are one state whose
    transitions all loop back to it: a scan of the rows finds it.  Any other
    machine gets one backward reachability sweep from the conclusive
    states.  A machine with no state to relabel is returned as it is, so
    applying the pass twice returns the first result.  Any other result
    shares the machine's initial state and transition table, and its
    canonical mark, and is built with no checks: relabelling outputs keeps
    a valid machine valid.  The result is kept on the machine and on
    itself, so only the first call looks.
    """
    known = machine._partialized
    if known is None:
        outputs, delta, unknown = machine.outputs, machine.delta, Verdict.UNKNOWN
        if machine._minimal and Verdict.GIVEUP not in outputs:
            width = len(machine.alphabet)
            hopeless = [q for q, row in enumerate(delta) if row.count(q) == width and outputs[q] is unknown]
        else:
            top, bot = Verdict.TOP, Verdict.BOT
            hopeful = can_reach(delta, [q for q, out in enumerate(outputs) if out is top or out is bot])
            hopeless = [q for q, out in enumerate(outputs) if out is unknown and q not in hopeful]
        if not hopeless:
            known = machine._partialized = _ITSELF
        else:
            relabeled = list(outputs)
            for q in hopeless:
                relabeled[q] = Verdict.GIVEUP
            known = machine._partialized = machine._relabeled(relabeled)
            known._partialized = _ITSELF
    return machine if known is _ITSELF else known


def classify(machine: MooreMonitor) -> MonitorabilityReport:
    """Classify the partialized machine by what it can still conclude.

    NON_MONITORABLE: the machine gives up on the empty trace already.
    EXISTS_PZ_ONLY: some traces can be decided, but give-up states exist.
    FORALL_PZ: every reachable state can still reach a conclusive verdict.
    """
    machine = partialize(machine)
    giveup_count = machine.outputs.count(Verdict.GIVEUP)
    witness = _shortest_giveup_trace(machine) if giveup_count else None
    if machine.outputs[machine.initial] is Verdict.GIVEUP:
        classification = Monitorability.NON_MONITORABLE
    elif giveup_count == 0:
        classification = Monitorability.FORALL_PZ
    else:
        classification = Monitorability.EXISTS_PZ_ONLY
    return MonitorabilityReport(
        classification=classification,
        # Every state is reachable, so the verdicts present are the ones
        # reachable from the initial state.
        can_reach_top=Verdict.TOP in machine.outputs,
        can_reach_bot=Verdict.BOT in machine.outputs,
        state_count=machine.num_states,
        giveup_state_count=giveup_count,
        ugly_witness=witness,
    )


def _shortest_giveup_trace(machine: MooreMonitor) -> tuple[str, ...]:
    """Path to the first give-up state a breadth-first search meets; the
    machine must have one, and every state is reachable.

    The search expands events in alphabet order, so the witness is the
    lexicographically least among the shortest; ``delta[src].index(dst)`` is
    the event it first reached ``dst`` by.
    """
    parent = reachable_from(machine.delta, [machine.initial])
    node = next(q for q in parent if machine.outputs[q] is Verdict.GIVEUP)
    path = []
    while (src := parent[node]) is not None:
        path.append(machine.alphabet.symbols[machine.delta[src].index(node)])
        node = src
    return tuple(reversed(path))
