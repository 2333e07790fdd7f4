"""From Büchi automata to executable Moore-machine monitors.

Synthesis builds a generalized Büchi automaton for a formula and one for its
negation, drops every state with an empty omega-language, and runs the subset
construction of both sides in one product.  A product state's output says
whether the prefix read so far already settles the property.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

from .buchi import Nba, _tableau
from .graphs import bits, explore, fair_nodes, reachable_from
from .ltl import Alphabet, Formula


class Verdict(Enum):
    """Monitoring outcome for a finite trace.

    TOP and BOT are irrevocable: every infinite continuation satisfies
    (respectively violates) the property.  UNKNOWN means the trace is still
    undecided, GIVEUP that no continuation can ever decide it.  Synthesis
    outputs only the first three; :func:`partialize` labels GIVEUP.
    """

    TOP = "TOP"
    BOT = "BOT"
    UNKNOWN = "?"
    GIVEUP = "x"

    @property
    def is_conclusive(self) -> bool:
        return self is Verdict.TOP or self is Verdict.BOT

    @property
    def is_final(self) -> bool:
        """True when a monitoring session stops here: conclusive or give-up."""
        return self is not Verdict.UNKNOWN

    def dual(self) -> "Verdict":
        if self is Verdict.TOP:
            return Verdict.BOT
        if self is Verdict.BOT:
            return Verdict.TOP
        return self


def per_state_nonempty(automaton: Nba) -> frozenset[int]:
    """States that generate a nonempty omega-language when made initial.

    These are the states with a run that takes an edge of every acceptance
    mark infinitely often, found by the Emerson-Lei fixpoint of
    :func:`partmon.graphs.fair_nodes` on the automaton's edges: each round
    runs one backward search per mark and keeps the states that reach every
    mark's edges, until no state is dropped.
    """
    return fair_nodes(automaton.edges, automaton.num_marks)


def _live_subsets(automaton: Nba) -> tuple[int, Callable[[int], tuple[int, ...]]]:
    """The subset construction over the automaton's live states, as bitsets.

    Returns the initial subset and a function from a subset to its successor
    subset per event.  Dead states can only reach dead states, so dropping
    them loses nothing: a subset accepts a prefix (has a satisfying
    continuation) exactly when it is nonempty.

    Every subset is also cut down to an antichain of its weakest members: a
    member that owes a strict superset of another member's obligations, or
    the same set as a lower-numbered member, accepts no word the other does
    not, so dropping it leaves the subset's language, and every residual of
    it, unchanged.

    A looping state is a live state whose self-loop edges together read
    every event.  It is in every successor of a subset that holds it, before
    the cut, and the cut keeps the language, so no word empties such a
    subset and it decides nothing more: a cut subset holding a looping state
    is returned as the marker -1.  The empty subset 0 and the marker -1 are
    their own successors on every event.
    """
    live = sum(1 << q for q in per_state_nonempty(automaton))
    # Each state's live successors on every event packed into one integer,
    # event k in bits k*n .. k*n+n-1, so a subset's row is one OR per member.
    n = automaton.num_states
    lanes = range(0, n * len(automaton.alphabet), n)
    packed = [0] * n
    for q, row in enumerate(automaton.edges):
        for guard, dst, _ in row:
            if live >> dst & 1:
                for k in bits(guard):
                    packed[q] |= 1 << (k * n + dst)
    # A looping state's own bit is set in every lane of its row.
    diagonal = sum(1 << lane for lane in lanes)
    looping = sum(1 << q for q in range(n) if packed[q] >> q & diagonal == diagonal)
    owes = automaton.obligations
    # Sorted by obligation count, then number, a member comes after every
    # member that owes a strict subset of its obligations, or the same set
    # with a lower number.
    rank = [owed.bit_count() * n + q for q, owed in enumerate(owes)]
    weakest: dict[int, int] = {}

    def reduce_subset(subset: int) -> int:
        got = weakest.get(subset) if subset & (subset - 1) else subset
        if got is None:
            got = 0
            kept: list[int] = []
            for q in sorted(bits(subset), key=rank.__getitem__):
                owed = owes[q]
                for other in kept:
                    if not other & ~owed:
                        break
                else:
                    kept.append(owed)
                    got |= 1 << q
            weakest[subset] = got
        return -1 if got & looping else got

    def row(subset: int) -> tuple[int, ...]:
        if subset <= 0:
            return (subset,) * len(lanes)
        union = 0
        rest = subset
        while rest:
            low = rest & -rest
            union |= packed[low.bit_length() - 1]
            rest ^= low
        return tuple(reduce_subset((union >> lane) & live) for lane in lanes)

    return reduce_subset(sum(1 << q for q in automaton.initial) & live), row


class MooreMonitor:
    """Moore machine executing a monitor: total deterministic transitions and
    one verdict per state.

    All states must be reachable from the initial state.

    ``_compiled`` holds the flat stepping table that
    :func:`partmon.runtime.compile_monitor` builds on first use; machines that
    are never run, such as synthesis intermediates, never pay for it.
    ``_partialized`` likewise keeps the result of
    :func:`partmon.partial.partialize` (a marker when that is the machine
    itself), so a second call costs nothing.
    """

    __slots__ = ("alphabet", "num_states", "initial", "delta", "outputs", "_compiled", "_partialized")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        delta: Sequence[Sequence[int]],
        outputs: Sequence[Verdict],
    ):
        if not isinstance(alphabet, Alphabet):
            raise TypeError(f"not an alphabet: {alphabet!r}")
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.delta = tuple(tuple(row) for row in delta)
        self.outputs = tuple(outputs)
        self._compiled = None
        self._partialized = None
        if not 0 <= initial < num_states:
            raise ValueError("initial state out of range")
        if len(self.delta) != num_states or len(self.outputs) != num_states:
            raise ValueError("need one delta row and one output per state")
        for row in self.delta:
            if len(row) != len(alphabet):
                raise ValueError("delta not total: one entry per event required")
            for dst in row:
                if not 0 <= dst < num_states:
                    raise ValueError(f"transition target {dst} out of range")
        for out in self.outputs:
            if not isinstance(out, Verdict):
                raise ValueError(f"not a verdict: {out!r}")
        reachable = reachable_from(self.delta, [initial])
        if len(reachable) != num_states:
            missing = [q for q in range(num_states) if q not in reachable]
            raise ValueError(f"unreachable states: {missing}")

    def step(self, state: int, event: str) -> int:
        return self.delta[state][self.alphabet.index(event)]

    def output(self, state: int) -> Verdict:
        return self.outputs[state]

    def states(self) -> range:
        return range(self.num_states)


def synthesize_monitor(
    phi: Formula, alphabet: Alphabet, minimize: bool = True
) -> MooreMonitor:
    """Synthesize the three-valued monitor for ``phi``.

    Builds the automata for the formula and its negation, each by one walk
    over ``phi`` as given that pushes negations inward (no normal form is
    built), and explores the product of their live subset constructions
    with :func:`partmon.graphs.explore`, events in alphabet order.  When no
    word satisfies ``phi``, its side's start subset is empty, the result is
    the one-state BOT machine, and the negation's automaton is not built.  A product
    state outputs TOP when the negation side's subset is empty (no
    continuation violates), BOT when the formula side's is (no continuation
    satisfies), UNKNOWN otherwise.  Conclusive verdicts never change, so all
    TOP states are one absorbing sink, and all BOT states another; a pair
    whose sides both hold the never-empty marker of :func:`_live_subsets` is
    a third sink, which outputs UNKNOWN.  With ``minimize`` (the default)
    the result is the unique minimal machine.
    """
    pos_start, pos_row = _live_subsets(_tableau(phi, alphabet, False))
    if pos_start == 0:
        # No word satisfies phi, so every prefix is already BOT, whatever
        # the negation's automaton is: the product would be the BOT sink.
        return MooreMonitor(alphabet, 1, 0, [[0] * len(alphabet)], [Verdict.BOT])
    neg_start, neg_row = _live_subsets(_tableau(phi, alphabet, True))

    # An empty side (0) and a side that can never empty (-1) step to
    # themselves, so the TOP sink (-1, 0), the BOT sink (0, -1) and the
    # sink (-1, -1) that reaches neither loop through ``key`` alone.
    top, bot = (-1, 0), (0, -1)

    def key(pos: int, neg: int) -> tuple[int, int]:
        if pos and neg:
            return (pos, neg)
        if pos:
            return top
        if neg:
            return bot
        raise AssertionError("internal error: product state is dead on both sides")

    pairs, delta = explore(
        [key(pos_start, neg_start)], lambda pair: map(key, pos_row(pair[0]), neg_row(pair[1]))
    )
    outputs = [
        Verdict.TOP if neg == 0 else Verdict.BOT if pos == 0 else Verdict.UNKNOWN
        for pos, neg in pairs
    ]
    machine = MooreMonitor(alphabet, len(pairs), 0, delta, outputs)
    if minimize:
        machine = minimize_moore(machine)
    return machine


def monitor_verdict(machine: MooreMonitor, trace: Sequence[str]) -> Verdict:
    """Fold the trace through the machine and return the final state's verdict."""
    state = machine.initial
    for event in trace:
        state = machine.step(state, event)
    return machine.output(state)


def minimize_moore(machine: MooreMonitor) -> MooreMonitor:
    """Output-preserving minimization by partition refinement.

    Starts from the partition induced by state outputs and splits blocks until
    every block is closed under the transition function, then rebuilds the
    quotient machine with canonical numbering: :func:`partmon.graphs.explore`
    from the initial state, events in alphabet order.  A machine that is already minimal and
    numbered that way, as the product of :func:`synthesize_monitor` often
    is, is returned as it is.
    """
    classes = sorted({out for out in machine.outputs}, key=lambda v: v.value)
    block = [classes.index(out) for out in machine.outputs]
    count = len(classes)
    # One column per event: the target of every state on that event.
    columns = list(zip(*machine.delta))
    while True:
        ids: dict[tuple[int, ...], int] = {}
        new_block = [
            ids.setdefault(sig, len(ids))
            for sig in zip(block, *(map(block.__getitem__, col) for col in columns))
        ]
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    if (
        count == machine.num_states
        and machine.initial == 0
        and list(reachable_from(machine.delta, [0])) == list(range(count))
    ):
        return machine

    # The partition is stable, so any state of a block gives its row.
    # Numbering the blocks breadth-first from the initial one, events in
    # alphabet order, makes the numbering canonical.
    member = dict(zip(block, machine.states()))
    rows = [[block[dst] for dst in machine.delta[member[b]]] for b in range(count)]
    order, delta = explore([block[machine.initial]], rows.__getitem__)
    return MooreMonitor(
        machine.alphabet, count, 0, delta, [machine.outputs[member[b]] for b in order]
    )
