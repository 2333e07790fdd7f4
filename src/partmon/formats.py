"""Text formats: PMF monitor files, Graphviz DOT export, and event traces.

PMF (Partial Monitor Format) is line-oriented:

    PMF 1
    ALPHABET ev1 ev2 ...
    INITIAL s0
    STATE <id> <output>        one line per state; outputs TOP, BOT, ?, x
    TRANS <from> <event> <to>  one line per (state, event) pair

Blank lines are ignored and ``#`` starts a comment running to end of line;
a line ends at LF, CR LF or CR, in PMF and trace text alike.
Emission is deterministic: states in canonical order, transitions sorted by
(state, alphabet order), so equal machines serialize to identical bytes.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Iterator, TextIO

from .fsm import MooreMonitor, Verdict
from .ltl import COMMENT_RE, Alphabet, UnknownEventError

PMF_VERSION = 1


class FormatError(ValueError):
    """Input that does not match the PMF grammar; ``line`` is 1-based."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ValueError):
    """Well-formed PMF describing an invalid machine."""


def emit_monitor(machine: MooreMonitor) -> str:
    """Serialize a monitor to PMF text."""
    names = [f"s{q}" for q in range(machine.num_states)]
    lines = [
        f"PMF {PMF_VERSION}",
        "ALPHABET " + " ".join(machine.alphabet),
        f"INITIAL {names[machine.initial]}",
    ]
    for name, out in zip(names, machine.outputs):
        lines.append(f"STATE {name} {out._value_}")
    events = machine.alphabet.symbols
    for name, row in zip(names, machine.delta):
        for event, dst in zip(events, row):
            lines.append(f"TRANS {name} {event} {names[dst]}")
    return "\n".join(lines) + "\n"


def parse_monitor(text: str) -> MooreMonitor:
    """Parse PMF text back into a validated monitor."""
    header_seen = False
    alphabet: Alphabet | None = None
    initial_name: str | None = None
    state_outputs: dict[str, Verdict] = {}
    state_order: list[str] = []
    trans: list[tuple[str, str, str, int]] = []

    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        record = parts[0]
        if not header_seen:
            if record != "PMF":
                raise FormatError(lineno, f"expected 'PMF {PMF_VERSION}' header, found {record!r}")
            if len(parts) != 2 or parts[1] != str(PMF_VERSION):
                raise FormatError(lineno, f"unsupported PMF version {' '.join(parts[1:])!r}")
            header_seen = True
            continue
        if record == "PMF":
            raise FormatError(lineno, "duplicate header")
        if record == "ALPHABET":
            if alphabet is not None:
                raise FormatError(lineno, "duplicate ALPHABET record")
            if len(parts) < 2:
                raise FormatError(lineno, "ALPHABET needs at least one event")
            try:
                alphabet = Alphabet(parts[1:])
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from None
        elif record == "INITIAL":
            if initial_name is not None:
                raise FormatError(lineno, "duplicate INITIAL record")
            if len(parts) != 2:
                raise FormatError(lineno, "INITIAL needs exactly one state id")
            initial_name = parts[1]
        elif record == "STATE":
            if len(parts) != 3:
                raise FormatError(lineno, "STATE needs a state id and an output")
            name, output = parts[1], parts[2]
            if name in state_outputs:
                raise ValidationError(f"line {lineno}: duplicate state '{name}'")
            try:
                state_outputs[name] = Verdict(output)
            except ValueError:
                raise ValidationError(f"line {lineno}: unknown output {output!r}") from None
            state_order.append(name)
        elif record == "TRANS":
            if len(parts) != 4:
                raise FormatError(lineno, "TRANS needs source, event and target")
            trans.append((parts[1], parts[2], parts[3], lineno))
        else:
            raise FormatError(lineno, f"unknown record type {record!r}")

    if not header_seen:
        raise FormatError(1, "missing PMF header")
    if alphabet is None:
        raise ValidationError("missing ALPHABET record")
    if initial_name is None:
        raise ValidationError("missing INITIAL record")
    if not state_order:
        raise ValidationError("no STATE records")
    if initial_name not in state_outputs:
        raise ValidationError(f"initial state '{initial_name}' is not declared")

    ids = {name: i for i, name in enumerate(state_order)}
    delta: list[list[int | None]] = [[None] * len(alphabet) for _ in state_order]
    for src, event, dst, lineno in trans:
        if src not in ids:
            raise ValidationError(f"line {lineno}: undeclared state '{src}'")
        if dst not in ids:
            raise ValidationError(f"line {lineno}: undeclared state '{dst}'")
        if event not in alphabet:
            raise ValidationError(f"line {lineno}: unknown event '{event}'")
        k = alphabet.index(event)
        if delta[ids[src]][k] is not None:
            raise ValidationError(f"line {lineno}: duplicate transition for ('{src}', '{event}')")
        delta[ids[src]][k] = ids[dst]
    for name in state_order:
        for k, event in enumerate(alphabet):
            if delta[ids[name]][k] is None:
                raise ValidationError(
                    f"delta not total: state '{name}' has no transition on '{event}'"
                )

    try:
        return MooreMonitor(
            alphabet,
            len(state_order),
            ids[initial_name],
            delta,
            [state_outputs[name] for name in state_order],
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


# Each verdict's (fill, font) colours.
_DOT_COLORS = {
    Verdict.UNKNOWN: ("#f8e71c", "black"),
    Verdict.TOP: ("#417505", "white"),
    Verdict.BOT: ("#d0021b", "white"),
    Verdict.GIVEUP: ("#0a6464", "white"),
}


def _edge_label(events: list[str], alphabet: Alphabet) -> str:
    if len(events) == len(alphabet):
        return "*"
    # compress "all but one" bundles only when that is actually shorter
    if len(events) == len(alphabet) - 1 and len(events) >= 3:
        missing = next(e for e in alphabet if e not in events)
        return f"* \\\\ {missing}"
    return ", ".join(events)


def emit_dot(machine: MooreMonitor) -> str:
    """Render the monitor as a Graphviz digraph.

    Nodes are colored by output, the initial state gets an entry arrow, and
    parallel edges are merged: a bundle covering the whole alphabet is labeled
    "*", one missing a single event "* \\ ev".
    """
    lines = [
        "digraph monitor {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        f"  __start -> s{machine.initial};",
    ]
    for q in machine.states():
        out = machine.outputs[q]
        fill, font = _DOT_COLORS[out]
        lines.append(
            f'  s{q} [label="s{q}\\n{out.value}", shape=circle, style=filled,'
            f' fillcolor="{fill}", fontcolor="{font}"];'
        )
    for q in machine.states():
        bundles: dict[int, list[str]] = {}
        for k, event in enumerate(machine.alphabet):
            bundles.setdefault(machine.delta[q][k], []).append(event)
        for dst in sorted(bundles):
            label = _edge_label(bundles[dst], machine.alphabet)
            lines.append(f'  s{q} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_events(chunks: Iterable[str]) -> Iterator[str]:
    """A trace's events one at a time, reading ``chunks`` (pieces of the
    trace text that end at line breaks, such as a file's lines or
    :func:`line_batches`) only as far as the events are asked for.
    """
    return chain.from_iterable(map(_chunk_events, chunks))


def _chunk_events(chunk: str) -> list[str]:
    """The events of a piece of trace text that ends at a line break.

    Events are separated by whitespace and ``#`` starts a comment running to
    the next LF, CR LF or CR.
    """
    if "#" in chunk:
        return COMMENT_RE.sub("", chunk).split()
    # every line break is whitespace to split()
    return chunk.split()


#: The least number of characters :func:`line_batches` reads at a time.
_BATCH = 1 << 16


def line_batches(handle: TextIO) -> Iterator[str]:
    """Read ``handle`` in pieces of whole lines: each piece ends at a line
    break or at the end of the text, and all but the last are at least
    ``_BATCH`` characters long."""
    return iter(lambda: handle.read(_BATCH) + handle.readline(), "")


def parse_trace(text: str, alphabet: Alphabet) -> tuple[str, ...]:
    """Parse a whitespace-separated event trace; ``#`` comments to end of line.

    Raises UnknownEventError with the 1-based token position for events
    outside the alphabet.
    """
    events = tuple(trace_events((text,)))
    known = set(alphabet)
    for position, event in enumerate(events, start=1):
        if event not in known:
            raise UnknownEventError(event, position)
    return events
