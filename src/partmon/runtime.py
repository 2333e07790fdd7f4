"""Online execution of partial monitors: feed events, read verdicts, stop early.

Every entry point runs ``partialize(machine)``: it steps that machine's
transitions laid out as one flat table (:class:`CompiledMonitor`), built on
first use and kept on the machine.  A session owns its position in the
machine; the machine itself is shared and immutable, so many sessions can run
over one monitor.  Once a session reaches a conclusive or give-up state it is
concluded: further events are absorbed without changing the verdict, letting
producers outlive the monitor.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable

from .fsm import MooreMonitor, Verdict
from .ltl import UnknownEventError
from .partial import partialize


class CompiledMonitor:
    """A monitor's transitions as one flat table over row offsets.

    State ``q`` owns the row starting at offset ``q * width``; from row offset
    ``r`` the event with column ``c`` (``index[event]``) leads to row offset
    ``table[r + c]``.  The row of every final state (TOP, BOT or give-up)
    points back to itself, so stepping a concluded state leaves it where it
    is without a test.  ``verdicts`` and ``live`` repeat each state's verdict,
    and whether it is still undecided (1) or final (0), across its whole row,
    so a row offset reads either with one subscript.
    """

    __slots__ = ("index", "width", "initial", "table", "verdicts", "live")

    def __init__(self, machine: MooreMonitor):
        width = len(machine.alphabet)
        self.index = {event: column for column, event in enumerate(machine.alphabet)}
        self.width = width
        self.initial = machine.initial * width
        self.table: list[int] = []
        self.verdicts: list[Verdict] = []
        self.live: list[int] = []
        for q, verdict in enumerate(machine.outputs):
            if verdict.is_final:
                self.table += [q * width] * width
            else:
                self.table += [dst * width for dst in machine.delta[q]]
            self.verdicts += [verdict] * width
            self.live += [int(not verdict.is_final)] * width


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

    __slots__ = ("machine", "steps", "position", "_row", "_width", "_table", "_index", "_verdicts", "_live")

    def __init__(self, machine: MooreMonitor):
        compiled = compile_monitor(machine)
        self.machine = machine
        self.steps = 0
        self.position = 0
        self._row = compiled.initial
        self._width = compiled.width
        self._table = compiled.table
        self._index = compiled.index
        self._verdicts = compiled.verdicts
        self._live = compiled.live

    @property
    def current(self) -> int:
        """The machine's id of the state the session is in."""
        return self._row // self._width

    @property
    def verdict(self) -> Verdict:
        return self._verdicts[self._row]

    @property
    def concluded(self) -> bool:
        """True once the verdict can no longer change."""
        return not self._live[self._row]

    def step(self, event: str) -> Verdict:
        """Consume one event and return the verdict afterwards.

        After conclusion the event is ignored and the settled verdict is
        returned unchanged.
        """
        row = self._row
        try:
            self._row = after = self._table[row + self._index[event]]
        except KeyError:
            raise UnknownEventError(event, self.position + 1) from None
        self.position += 1
        self.steps += self._live[row]
        return self._verdicts[after]


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
    those absorbed after conclusion.
    """
    return list(zip(count(1), _verdicts(machine, trace, stop_early)))


def _verdicts(machine: MooreMonitor, trace: Iterable[str], stop_early: bool) -> list[Verdict]:
    """The verdict after each event :func:`run_trace` replays, without positions."""
    compiled = compile_monitor(machine)
    table, index, verdicts, live = compiled.table, compiled.index, compiled.verdicts, compiled.live
    row = compiled.initial
    out: list[Verdict] = []
    append = out.append
    try:
        # Final rows point back to themselves, so the full replay needs no
        # test per event; only stop_early pays for one.
        if not stop_early:
            for event in trace:
                row = table[row + index[event]]
                append(verdicts[row])
        elif live[row]:
            for event in trace:
                row = table[row + index[event]]
                append(verdicts[row])
                if not live[row]:
                    break
    except KeyError:
        raise UnknownEventError(event, len(out) + 1) from None
    return out
