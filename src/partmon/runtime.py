"""Online execution of partial monitors: feed events, read verdicts, stop early.

Every entry point runs ``partialize(machine)``: it steps that machine's
transitions laid out as one flat table of transition slots
(:class:`CompiledMonitor`), built on first use and kept on the machine.  A
session owns its position in the machine; the machine itself is shared and
immutable, so many sessions can run over one monitor.  Once a session
reaches a conclusive or give-up state it is concluded: further events are
absorbed without changing the verdict, letting producers outlive the monitor.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from .fsm import MooreMonitor, Verdict
from .ltl import UnknownEventError
from .partial import partialize

_Label = TypeVar("_Label")
_NOTHING = object()  # the event before the trace yields one


class CompiledMonitor:
    """A monitor's transitions as one flat table over transition slots.

    State ``q`` owns the row starting at offset ``q * width``, and the slot
    ``row + index[event]`` is the transition taking ``event`` from that row:
    ``table[slot]`` is the row offset of its target state.  The row of every
    final state (TOP, BOT or give-up) points back to itself, so stepping a
    concluded state leaves it where it is without a test.  One more slot,
    ``start``, past the last row, stands for arriving at the initial state:
    its ``table`` entry is the initial row.  ``after[slot]`` is the verdict
    of the state a slot leads to, and ``live_after[slot]`` whether that state
    is still undecided (1) or final (0), so a slot reads either with one
    subscript.
    """

    __slots__ = ("index", "width", "start", "table", "after", "live_after")

    def __init__(self, machine: MooreMonitor):
        width = len(machine.alphabet)
        outputs = machine.outputs
        self.index = {event: column for column, event in enumerate(machine.alphabet)}
        self.width = width
        self.start = machine.num_states * width
        # Final is "not UNKNOWN": an identity test, no property call per slot.
        unknown = Verdict.UNKNOWN
        targets: list[int] = []
        for q, verdict in enumerate(outputs):
            targets += machine.delta[q] if verdict is unknown else [q] * width
        targets.append(machine.initial)
        self.table = [dst * width for dst in targets]
        self.after = [outputs[dst] for dst in targets]
        self.live_after = [1 if verdict is unknown else 0 for verdict in self.after]


def compile_monitor(machine: MooreMonitor) -> CompiledMonitor:
    """The compiled table of ``partialize(machine)``, built on first use and
    kept on the machine.

    Machines are immutable, so the table never goes stale.  Two threads that
    race here build equal tables and one of them is kept.
    """
    compiled = machine._compiled
    if compiled is None:
        compiled = machine._compiled = CompiledMonitor(partialize(machine))
    return compiled


class MonitorSession:
    """Single-owner stepping state over the partialized form of a monitor.

    ``steps`` counts the transitions taken, which stop at conclusion;
    ``position`` counts every event accepted, including those absorbed after
    conclusion, and is the position of the last one.  An unknown event is
    rejected without changing either.

    Not safe for concurrent use from multiple threads; safe to hand over
    between calls.
    """

    __slots__ = ("machine", "steps", "position", "_slot", "_width", "_table", "_index", "_after", "_live_after")

    def __init__(self, machine: MooreMonitor):
        compiled = compile_monitor(machine)
        self.machine = machine
        self.steps = 0
        self.position = 0
        self._slot = compiled.start
        self._width = compiled.width
        self._table = compiled.table
        self._index = compiled.index
        self._after = compiled.after
        self._live_after = compiled.live_after

    @property
    def current(self) -> int:
        """The machine's id of the state the session is in."""
        return self._table[self._slot] // self._width

    @property
    def verdict(self) -> Verdict:
        return self._after[self._slot]

    @property
    def concluded(self) -> bool:
        """True once the verdict can no longer change."""
        return not self._live_after[self._slot]

    def step(self, event: str) -> Verdict:
        """Consume one event and return the verdict afterwards.

        After conclusion the event is ignored and the settled verdict is
        returned unchanged.
        """
        slot = self._slot
        try:
            self._slot = taken = self._table[slot] + self._index[event]
        except (KeyError, TypeError):
            raise UnknownEventError(event, self.position + 1) from None
        self.position += 1
        self.steps += self._live_after[slot]
        return self._after[taken]


def start(machine: MooreMonitor) -> MonitorSession:
    """Open a session at the initial state.

    The session may be concluded immediately, e.g. a machine that gives up on
    the empty trace concludes GIVEUP before any event arrives.
    """
    return MonitorSession(machine)


def run_trace(
    machine: MooreMonitor, trace: Iterable[str], stop_early: bool = False
) -> list[tuple[int, Verdict]]:
    """Replay a finite trace, returning (1-based index, verdict) per event.

    With ``stop_early`` the replay halts at the first conclusive or give-up
    verdict: the remaining events are neither read from ``trace``, validated
    nor consumed.  Otherwise every event must be in the alphabet, including
    those absorbed after conclusion; an unhashable event is unknown too.  An
    error raised by ``trace`` itself, a KeyError or TypeError included,
    propagates unchanged.
    """
    compiled = compile_monitor(machine)
    verdicts, _ = _replay(compiled, trace, stop_early, compiled.after)
    return list(enumerate(verdicts, 1))


def _replay(
    compiled: CompiledMonitor, trace: Iterable[str], stop_early: bool, labels: Sequence[_Label]
) -> tuple[list[_Label], int]:
    """Step ``trace`` as :func:`run_trace` does, returning ``labels[slot]``
    for the slot each event took, and the last slot taken (``start`` on an
    empty replay)."""
    table, index, live_after = compiled.table, compiled.index, compiled.live_after
    slot = compiled.start
    out: list[_Label] = []
    append = out.append
    event = _NOTHING
    try:
        # Final rows point back to themselves, so the full replay needs no
        # test per event; only stop_early pays for one.
        if not stop_early:
            for event in trace:
                slot = table[slot] + index[event]
                append(labels[slot])
        elif live_after[slot]:
            for event in trace:
                slot = table[slot] + index[event]
                append(labels[slot])
                if not live_after[slot]:
                    break
    except (KeyError, TypeError):
        # An error before any event, or after a known one, is the trace's own.
        # Every known event is a string, so an unhashable one is not hashed again.
        if event is _NOTHING or isinstance(event, str) and event in index:
            raise
        raise UnknownEventError(event, len(out) + 1) from None
    return out, slot
