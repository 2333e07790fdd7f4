"""From Büchi automata to executable Moore-machine monitors.

Synthesis builds a generalized Büchi automaton for a formula and drops every
state with an empty omega-language.  When each prefix reaches one live state
at most, the formula's automaton decides every verdict alone, as a graph
question per state.  Otherwise synthesis builds the negation's automaton too
and runs the subset construction of both sides in one product.  A side
whose prefixes reach one live state at most, looping states aside, needs no
subset construction: either way its ids are its tableau states, state q
being id q + 1, and one row function steps them.  A monitor state's output
says whether the prefix read so far already settles the property.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Callable, Sequence

from .buchi import Nba, _tableau
from .graphs import bits, explore, fair_nodes, reachable_from
from .ltl import Alphabet, Formula, _check_alphabet


class Verdict(Enum):
    """Monitoring outcome for a finite trace.

    TOP and BOT are irrevocable: every infinite continuation satisfies
    (respectively violates) the property.  UNKNOWN means the trace is still
    undecided, GIVEUP that no continuation can ever decide it.  Synthesis
    outputs only the first three; :func:`partialize` labels GIVEUP.  Members
    are singletons compared by identity, so they hash by identity too.
    """

    TOP = "TOP"
    BOT = "BOT"
    UNKNOWN = "?"
    GIVEUP = "x"

    __hash__ = object.__hash__

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


def _scan(automaton: Nba, live: frozenset[int]) -> tuple[bool, list[int]] | None:
    """One pass over the edges between live states (``live``, as
    :func:`per_state_nonempty` finds them) that answers both determinism
    rules of a side, or None when neither holds: the automaton has more
    than one initial state, or a live state that is not looping reads an
    event on two live edges.

    A *looping* state is a live state whose edges to live states owing a
    subset of its obligations together read every event; a self-loop is
    such an edge.  Owing less accepts more, so on every event a looping
    state has a live successor accepting every word it accepts, and by
    induction every finite word extends to a word it accepts.

    A side where no live state, looping or not, reads an event on two live
    edges is *strict*: it decides every verdict alone
    (:func:`_decided_alone`).  A side where only looping states do steps
    its own states (:func:`_live_subsets`).  Returns whether the side is
    strict, and each state's id: state q is id q + 1, a looping state the
    never-empty marker -1 and a dead state 0, the empty side.
    """
    if len(automaton.initial) > 1:
        return None
    everything = (1 << len(automaton.alphabet)) - 1
    owes = automaton.obligations
    ids = [0] * automaton.num_states
    strict = True
    for q in live:
        read = covered = tangled = 0
        owed = owes[q]
        for guard, dst, _ in automaton.edges[q]:
            if dst in live:
                tangled |= guard & read
                read |= guard
                if not owes[dst] & ~owed:
                    covered |= guard
        if covered == everything:
            ids[q] = -1
        elif tangled:
            return None
        else:
            ids[q] = q + 1
        if tangled:
            strict = False
    return strict, ids


def _state_rows(automaton: Nba, ids: list[int]) -> Callable[[int], tuple[int, ...]]:
    """The rows of a side whose ids are its states, ``ids`` as :func:`_scan`
    or :func:`_decided_alone` gives them: id q + 1's row is, per event, the
    id of state q's one successor of nonzero id, or 0.  Ids 0, -1 and -2
    step to themselves.  A row is built from the tableau's edges when first
    asked for, each guard's events looked up once.
    """
    width = len(automaton.alphabet)
    edges = automaton.edges
    events: dict[int, tuple[int, ...]] = {}
    # Indexed by id: 0, then the states, then -2 and -1 from the end.
    rows: list[tuple[int, ...] | None] = [(0,) * width]
    rows += [None] * len(edges)
    rows += [(-2,) * width, (-1,) * width]

    def row(i: int) -> tuple[int, ...]:
        got = rows[i]
        if got is None:
            built = [0] * width
            for guard, dst, _ in edges[i - 1]:
                j = ids[dst]
                if j:
                    read = events.get(guard)
                    if read is None:
                        read = events[guard] = tuple(bits(guard))
                    for k in read:
                        built[k] = j
            got = rows[i] = tuple(built)
        return got

    return row


def _live_subsets(
    automaton: Nba,
    live: frozenset[int],
    scan: tuple[bool, list[int]] | None,
) -> tuple[int, Callable[[int], tuple[int, ...]], Callable[[int], int]]:
    """The subset construction over the automaton's live states ``live``,
    as :func:`per_state_nonempty` finds them, each subset numbered once;
    ``scan`` is what :func:`_scan` returns for them.

    Returns the initial subset's id, a function from an id to its successor
    ids per event, and a function from an id to its subset as a bitset, -1
    for the marker -1.  Dead states can only reach dead states, so dropping
    them loses nothing: a subset accepts a prefix (has a satisfying
    continuation) exactly when it is nonempty.

    Every subset is also cut down to an antichain of its weakest members: a
    member that owes a strict superset of another member's obligations, or
    the same set as a lower-numbered member, accepts no word the other does
    not, so dropping it leaves the subset's language, and every residual of
    it, unchanged.

    No word empties a subset that holds a looping state (:func:`_scan`),
    and such a subset decides nothing more: a cut subset holding a looping
    state gets the marker id -1.  Id 0 is the empty subset; 0 and -1 are
    their own successors on every event.

    A side with one initial state, where each live state that is not
    looping reads each event on one live edge at most (the scan is not
    None), reaches no subset of two members: its ids are its states, as
    the scan gives them, state q's id q + 1, and its rows are
    :func:`_state_rows`, with no subset construction.  On any other side
    the subsets can be exponentially many, so every other cut subset gets
    the next id, 1, 2, ..., when a row first reaches it, and its row is
    built on its first request: per event, the union of its members' live
    successors, cut and numbered.  An id's subset is then read from the
    list the numbering keeps.
    """
    if scan is not None:
        ids = scan[1]
        (first,) = automaton.initial
        return ids[first], _state_rows(automaton, ids), lambda i: 1 << (i - 1) if i > 0 else i
    n = automaton.num_states
    everything = (1 << len(automaton.alphabet)) - 1
    # Each live state's live successors, one bitset per event.  A guard's
    # events are looked up once per distinct guard.
    successors = [[0] * n for _ in automaton.alphabet]
    columns: dict[int, list[list[int]]] = {}
    owes = automaton.obligations
    looping = 0
    for q in live:
        covered = 0
        owed = owes[q]
        for guard, dst, _ in automaton.edges[q]:
            if dst in live:
                if not owes[dst] & ~owed:
                    covered |= guard
                read = columns.get(guard)
                if read is None:
                    read = columns[guard] = [successors[k] for k in bits(guard)]
                for column in read:
                    column[q] |= 1 << dst
        if covered == everything:
            looping |= 1 << q
    # Sorted by obligation count, then number, a member comes after every
    # member that owes a strict subset of its obligations, or the same set
    # with a lower number.
    rank = [owed.bit_count() * n + q for q, owed in enumerate(owes)]
    subsets = [0]
    # A one-member subset's id, by its member; the empty subset's
    # ``bit_length() - 1`` is -1, which reads the trailing 0.
    single: list[int | None] = [None] * n + [0]
    for q in bits(looping):
        single[q] = -1
    # A subset of several members, cut or not, by its bitset.
    several: dict[int, int] = {}

    def number(subset: int) -> int:
        if not subset & (subset - 1):
            got = single[subset.bit_length() - 1]
            if got is None:
                got = single[subset.bit_length() - 1] = len(subsets)
                subsets.append(subset)
            return got
        got = several.get(subset)
        if got is None:
            high = subset & (subset - 1)
            if not high & (high - 1):
                # Two members: one owing a subset of the other's obligations
                # drops it, the lower-numbered one winning a tie, as ranks do.
                low = subset ^ high
                low_owes, high_owes = owes[low.bit_length() - 1], owes[high.bit_length() - 1]
                cut = low if not low_owes & ~high_owes else high if not high_owes & ~low_owes else subset
            else:
                cut = 0
                kept: list[int] = []
                for q in sorted(bits(subset), key=rank.__getitem__):
                    owed = owes[q]
                    for other in kept:
                        if not other & ~owed:
                            break
                    else:
                        kept.append(owed)
                        cut |= 1 << q
            if cut & looping:
                got = -1
            else:  # the cut of a cut is itself, so no recursion numbers it
                one = not cut & (cut - 1)
                got = single[cut.bit_length() - 1] if one else several.get(cut)
                if got is None:
                    got = len(subsets)
                    subsets.append(cut)
                    if one:
                        single[cut.bit_length() - 1] = got
                    else:
                        several[cut] = got
            several[subset] = got
        return got

    rows = {0: (0,) * len(successors), -1: (-1,) * len(successors)}

    def row(i: int) -> tuple[int, ...]:
        got = rows.get(i)
        if got is None:
            subset = subsets[i]
            if subset & (subset - 1):
                members = list(bits(subset))
                unions = []
                for column in successors:
                    union = 0
                    for q in members:
                        union |= column[q]
                    unions.append(union)
            else:  # one member: its own sets are the unions
                q = subset.bit_length() - 1
                unions = [column[q] for column in successors]
            got = rows[i] = tuple(map(number, unions))
        return got

    start = number(sum(1 << q for q in automaton.initial if q in live))
    return start, row, lambda i: subsets[i] if i >= 0 else i


def _decided_alone(
    automaton: Nba,
    live: frozenset[int],
    scan: tuple[bool, list[int]] | None,
) -> list[int] | None:
    """What a prefix reaching each state decides, for an automaton that
    decides every verdict alone, or None for any other automaton; ``scan``
    is what :func:`_scan` returns for its live states ``live``.

    Such an automaton is strict: it has one initial state, and each of its
    live states (``live``, as :func:`per_state_nonempty` finds them) reads
    each event on one edge to a live state at most; on a tableau every live
    state is reached from the start.  Looping states (:func:`_scan`) are no
    exception, as they are on a side that only steps its states: the state
    owing nothing under ``true`` and the state of ``[]<>a`` both loop, but
    only the first accepts every word.  An accepting run visits live states
    only, so a prefix reaches one live state at most, and its verdict is
    that state's: BOT when it reaches none, TOP when the state is
    *universal*, accepting every infinite word, ``?`` otherwise.  No
    automaton of the negation is needed.

    A live state is violable, not universal, when it can reach over live
    edges a dead end, a state whose live edges do not read every event, or
    a cycle of edges without some mark: the word that leaves the live
    states there, or goes round that cycle forever, has one run from the
    state, and it rejects.  The violable states start as the states that
    reach a dead end, which are the states a prefix can still take to BOT.
    Then, per mark, until every live state is violable, the states that
    reach an infinite path of edges without that mark are added, found by
    :func:`partmon.graphs.fair_nodes` with the violable states given no
    edges: a state that is not violable reaches no state that is, so the
    cycles it reaches are all kept.  A mark that every live edge carries
    leaves no such path, so it adds nothing and is skipped.  A live state
    that can reach neither a dead end nor a universal state stays ``?`` on
    every continuation, so it is *hopeless*.  One pass over the live edges
    builds their reverse graph, finds the dead ends and the marks every
    live edge carries, and every backward search runs on that one graph.

    Returns each state's id, as :func:`_state_rows` steps them: 0 (the BOT
    sink) when it is dead, -2 (the TOP sink) when it is universal, -1 (the
    ``?`` sink) when it is hopeless, and q + 1 for any other state q.
    """
    if scan is None or not scan[0]:
        return None
    everything = (1 << len(automaton.alphabet)) - 1
    edges = automaton.edges
    reverse: list[list[int]] = [[] for _ in edges]
    dead_ends = []
    everywhere = -1
    for q in live:
        read = 0
        for guard, dst, marks in edges[q]:
            if dst in live:
                read |= guard
                reverse[dst].append(q)
                everywhere &= marks
        if read != everything:
            dead_ends.append(q)
    falling = reachable_from(reverse, dead_ends)
    violable = set(falling)
    for mark in range(automaton.num_marks):
        if len(violable) == len(live):
            break
        if not everywhere >> mark & 1:
            avoiding = [
                [edge for edge in edges[q] if edge[1] in live and not edge[2] >> mark & 1]
                if q in live and q not in violable
                else []
                for q in range(len(edges))
            ]
            violable.update(reachable_from(reverse, fair_nodes(avoiding, 0)))
    universal = live - violable
    rising = reachable_from(reverse, universal) if universal else universal
    decided = [0] * len(edges)
    for q in live:
        if q in universal:
            decided[q] = -2
        elif q in falling or q in rising:
            decided[q] = q + 1
        else:
            decided[q] = -1
    return decided


class MooreMonitor:
    """Moore machine executing a monitor: total deterministic transitions and
    one verdict per state.

    All states must be reachable from the initial state.

    ``_compiled`` holds the flat stepping table that
    :func:`partmon.runtime.compile_monitor` builds on first use; machines that
    are never run, such as synthesis intermediates, never pay for it.
    ``_partialized`` likewise keeps the result of
    :func:`partmon.partial.partialize` (a marker when that is the machine
    itself), so a second call costs nothing.  ``_minimal`` is True only on a
    machine :func:`minimize_moore` returned, no two of whose states output
    the same on every continuation; the public constructor sets it False.
    ``_canonical`` is True when the states are numbered canonically, as
    :func:`partmon.graphs.explore` numbers them: the initial state is 0, and
    a breadth-first search from it, events in alphabet order, discovers 0,
    1, 2, ... in order.  ``_built`` sets it, since that numbering is its
    contract, and the public constructor reads it off the reachability
    search it runs anyway.  Every constructor sets the slots through
    ``_fill``.
    """

    __slots__ = (
        "alphabet",
        "num_states",
        "initial",
        "delta",
        "outputs",
        "_compiled",
        "_partialized",
        "_minimal",
        "_canonical",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        delta: Sequence[Sequence[int]],
        outputs: Sequence[Verdict],
    ):
        _check_alphabet(alphabet)
        rows = tuple(tuple(row) for row in delta)
        verdicts = tuple(outputs)
        if not 0 <= initial < num_states:
            raise ValueError("initial state out of range")
        if len(rows) != num_states or len(verdicts) != num_states:
            raise ValueError("need one delta row and one output per state")
        for row in rows:
            if len(row) != len(alphabet):
                raise ValueError("delta not total: one entry per event required")
            for dst in row:
                if not 0 <= dst < num_states:
                    raise ValueError(f"transition target {dst} out of range")
        for out in verdicts:
            if not isinstance(out, Verdict):
                raise ValueError(f"not a verdict: {out!r}")
        reachable = reachable_from(rows, [initial])
        if len(reachable) != num_states:
            missing = [q for q in range(num_states) if q not in reachable]
            raise ValueError(f"unreachable states: {missing}")
        canonical = initial == 0 and list(reachable) == list(range(num_states))
        self._fill(alphabet, initial, rows, verdicts, canonical)

    def _fill(
        self,
        alphabet: Alphabet,
        initial: int,
        delta: tuple[tuple[int, ...], ...],
        outputs: tuple[Verdict, ...],
        canonical: bool,
        minimal: bool = False,
    ) -> "MooreMonitor":
        """Set every slot, from one row and one verdict per state, with
        nothing run on first use yet; returns the machine."""
        self.alphabet = alphabet
        self.num_states = len(delta)
        self.initial = initial
        self.delta = delta
        self.outputs = outputs
        self._compiled = None
        self._partialized = None
        self._minimal = minimal
        self._canonical = canonical
        return self

    @classmethod
    def _built(
        cls,
        alphabet: Alphabet,
        delta: Sequence[Sequence[int]],
        outputs: Sequence[Verdict],
        minimal: bool = False,
    ) -> "MooreMonitor":
        """A machine from state 0 whose rows are total and whose states are
        all reachable by construction, numbered canonically, as
        :func:`partmon.graphs.explore` numbers them, with one verdict per
        state: nothing is checked.  ``minimal`` marks it minimal."""
        machine = object.__new__(cls)
        return machine._fill(alphabet, 0, tuple(map(tuple, delta)), tuple(outputs), True, minimal)

    def _relabeled(self, outputs: Sequence[Verdict]) -> "MooreMonitor":
        """This machine with other outputs, one verdict per state: it shares
        the initial state and the transition table, keeps the canonical mark
        and is not marked minimal.  Nothing is checked."""
        return object.__new__(MooreMonitor)._fill(
            self.alphabet, self.initial, self.delta, tuple(outputs), self._canonical
        )

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

    Builds the automaton for the formula, by one walk over ``phi`` as given
    that pushes negations inward (no normal form is built), and its live
    states.  When no word satisfies ``phi``, its start state is dead and the
    result is the one-state BOT machine.  Otherwise one pass over its live
    edges, :func:`_scan`, answers both rules below.  When the formula's
    automaton decides every verdict alone (:func:`_decided_alone`: one
    initial state, and each live state, looping ones included, reads each
    event on one live edge at most), the monitor is the state ids that
    function gives, explored from the start with
    :func:`partmon.graphs.explore`, events in alphabet order, over the rows
    of :func:`_state_rows`.  Each outputs UNKNOWN but the BOT sink 0 (no
    live state) and the TOP sink -2 (a universal state); the hopeless
    states are one sink, -1.  The negation's automaton is not built and no pairs
    are explored.

    Any other formula builds the negation's automaton by the same walk.
    Each side's live subset construction is a table of
    :func:`_live_subsets` that numbers its subsets once.  A side whose live
    states, looping ones aside, read each event on one live edge at most
    steps its own states, with no subset construction; any other side's
    rows are built as the product asks for them.  The product is explored
    over pairs of those ids, events in alphabet order, and each product
    state's row pairs its sides' rows.  A product state outputs TOP when
    the negation side's subset is empty (no continuation violates), BOT
    when the formula side's is (no continuation satisfies), UNKNOWN
    otherwise.  Conclusive verdicts never change, so all TOP states are one
    absorbing sink, and all BOT states another; a pair whose sides both
    hold the never-empty marker -1 of :func:`_live_subsets` is a third
    sink, which outputs UNKNOWN.  A side starting at -1 stays there, so the
    monitor is one-sided: it concludes only TOP when the formula side never
    empties, only BOT when the negation side never does; the other side's
    ids are then explored alone, as a side that decides alone is, each id
    standing for its pair with -1, in the same order, its 0 the TOP (or
    BOT) sink.  With ``minimize`` (the default) the result is the unique
    minimal machine.
    """
    top, bot, unknown = Verdict.TOP, Verdict.BOT, Verdict.UNKNOWN
    automaton = _tableau(phi, alphabet, False)
    live = per_state_nonempty(automaton)
    if automaton.initial.isdisjoint(live):
        # No word satisfies phi, so every prefix is already BOT, whatever
        # the negation's automaton is: the product would be the BOT sink.
        return MooreMonitor._built(alphabet, [[0] * len(alphabet)], [bot])
    scan = _scan(automaton, live)
    decided = _decided_alone(automaton, live, scan)
    if decided is not None:
        (first,) = automaton.initial
        one_side = (decided[first], _state_rows(automaton, decided), bot)
    else:
        pos_start, pos_row, _ = _live_subsets(automaton, live, scan)
        negation = _tableau(phi, alphabet, True)
        negation_live = per_state_nonempty(negation)
        neg_start, neg_row, _ = _live_subsets(negation, negation_live, _scan(negation, negation_live))
        if pos_start == -1:
            one_side = (neg_start, neg_row, top)
        elif neg_start == -1:
            one_side = (pos_start, pos_row, bot)
        else:
            one_side = None
    if one_side is not None:
        start, row, sink = one_side
        ids, delta = explore([start], row)
        outputs = [sink if i == 0 else top if i == -2 else unknown for i in ids]
    else:
        # An empty side (0) and a side that can never empty (-1) step to
        # themselves, so the TOP sink (-1, 0), the BOT sink (0, -1) and the
        # sink (-1, -1) that reaches neither loop through ``key`` alone.
        def key(pos: int, neg: int) -> tuple[int, int]:
            if pos and neg:
                return (pos, neg)
            if pos:
                return (-1, 0)
            if neg:
                return (0, -1)
            raise AssertionError("internal error: product state is dead on both sides")

        pairs, delta = explore(
            [key(pos_start, neg_start)], lambda pair: map(key, pos_row(pair[0]), neg_row(pair[1]))
        )
        outputs = [top if neg == 0 else bot if pos == 0 else unknown for pos, neg in pairs]
    machine = MooreMonitor._built(alphabet, delta, outputs)
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
    every block is closed under the transition function, or holds one state
    and so cannot split, then rebuilds the quotient machine with canonical
    numbering: :func:`partmon.graphs.explore` from the initial state, events
    in alphabet order.  A machine that is already minimal and numbered that
    way, as the product of :func:`synthesize_monitor` often is, is returned
    as it is; the machine's canonical mark says how it is numbered, so no
    search confirms it.  A canonical machine whose outputs are pairwise
    distinct is minimal as it is, so it is returned before any refinement
    is set up; most one- to three-state monitors are such machines.  Either
    way the result is marked minimal, which lets
    :func:`partmon.partial.partialize` find its give-up state by a scan.
    """
    outputs = set(machine.outputs)
    if machine._canonical and len(outputs) == machine.num_states:
        machine._minimal = True
        return machine
    classes = {out: i for i, out in enumerate(sorted(outputs, key=lambda v: v._value_))}
    block = list(map(classes.__getitem__, machine.outputs))
    count = len(classes)
    # One gatherer per event: it reads the block of every state's target on
    # that event.
    gathers = [itemgetter(*column) for column in zip(*machine.delta)]
    # A partition of singletons cannot split, so it needs no confirming round.
    # A round thus runs only on two states or more, where a gather gives a
    # tuple.
    while count < machine.num_states:
        ids: dict[tuple[int, ...], int] = {}
        new_block = [
            ids.setdefault(sig, len(ids))
            for sig in zip(block, *(gather(block) for gather in gathers))
        ]
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    if count == machine.num_states and machine._canonical:
        machine._minimal = True
        return machine

    # The partition is stable, so any state of a block gives its row.
    # Numbering the blocks breadth-first from the initial one, events in
    # alphabet order, makes the numbering canonical.
    member = dict(zip(block, machine.states()))
    rows = [[block[dst] for dst in machine.delta[member[b]]] for b in range(count)]
    order, delta = explore([block[machine.initial]], rows.__getitem__)
    outputs = [machine.outputs[member[b]] for b in order]
    return MooreMonitor._built(machine.alphabet, delta, outputs, minimal=True)
