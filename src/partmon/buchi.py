"""Translation of LTL formulas into generalized Büchi automata.

The construction is the on-the-fly tableau expansion of Gerth, Peled, Vardi
and Wolper (1995), read as a transition-based automaton (Couvreur 1999;
Giannakopoulou and Lerda 2002): a state is the set of obligations it owes
from the next position on, each way of expanding it into literals to meet
now and obligations to pass on gives an edge, and acceptance marks sit on the
edges, one mark per Until or F subformula.  As in Gastin and Oddoux (2001),
an edge is dropped when another edge of its state reads every event it
reads, owes no more and carries every mark it carries, so the states only
dominated edges lead to are never built.  The marks are kept as they are:
emptiness and lasso membership check every mark directly, so no counter
product is ever built.

The expansion works on integers throughout: every subformula is numbered by
its position in the canonical subformula order, and obligation sets are
bitsets over those numbers.

Edge guards are sets of concrete events, not of proposition sets: an event
satisfies an edge's literal obligations iff every positive literal equals
the event and no negative literal does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import accepting_components
from .ltl import (
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    UnknownAtomError,
    Until,
    _Binary,
    _check_depth,
    children,
    subformulas,
)


class Nba:
    """Transition-based generalized Büchi automaton over concrete events.

    States are integers 0..num_states-1, one per row of ``edges``.
    ``edges[q]`` lists the edges leaving ``q`` as ``(guard, dst, marks)``
    triples: ``guard`` is the nonempty bitset of the events (by alphabet
    index) the edge reads, ``marks`` the bitset of the acceptance marks
    0..num_marks-1 it carries.  A run is accepting iff it takes an edge of
    every mark infinitely often; with no marks at all, every infinite run is
    accepting.

    ``obligations[q]`` is a bitset such that ``obligations[p]`` being a subset
    of ``obligations[q]`` implies that every word accepted from ``q`` is also
    accepted from ``p``.  The tableau sets it to the obligations a state owes.
    """

    __slots__ = ("alphabet", "num_states", "initial", "edges", "num_marks", "obligations")

    def __init__(
        self,
        alphabet: Alphabet,
        initial: Iterable[int],
        edges: Sequence[Iterable[tuple[int, int, int]]],
        num_marks: int,
        obligations: Sequence[int],
    ):
        self.alphabet = alphabet
        self.edges = tuple(tuple(row) for row in edges)
        self.num_states = len(self.edges)
        self.initial = frozenset(initial)
        self.num_marks = num_marks
        self.obligations = tuple(obligations)
        if len(self.obligations) != self.num_states:
            raise ValueError("need one obligation set per state")
        if not self.initial:
            raise ValueError("automaton needs at least one initial state")
        for q in self.initial:
            if not 0 <= q < self.num_states:
                raise ValueError(f"state {q} out of range")
        everything = (1 << len(alphabet)) - 1
        for row in self.edges:
            for guard, dst, marks in row:
                if not 0 <= dst < self.num_states:
                    raise ValueError(f"edge target {dst} out of range")
                if not 0 < guard <= everything:
                    raise ValueError(f"edge guard {guard:#b} is empty or reads unknown events")
                if marks < 0 or marks >> num_marks:
                    raise ValueError(f"edge marks {marks:#b} out of range")

    @property
    def transitions(self) -> tuple[tuple[int, str, int], ...]:
        """Every (source, event, target) step, ordered by source, event
        index, then target; parallel edges give one step."""
        return tuple(
            (src, event, dst)
            for src in range(self.num_states)
            for event in self.alphabet
            for dst in self.successors(src, event)
        )

    def successors(self, state: int, event: str) -> tuple[int, ...]:
        """The targets, in increasing order, of the edges from ``state`` reading ``event``."""
        event_bit = 1 << self.alphabet.index(event)
        return tuple(sorted({dst for guard, dst, _ in self.edges[state] if guard & event_bit}))


# Obligation kinds of the integer-coded tableau.  F r is read as true U r and
# G r as false R r, with no bit for the constant side.
_TRUE, _FALSE, _LITERAL, _NEXT, _AND, _OR, _UNTIL, _RELEASE = range(8)
_KIND = {
    TrueFormula: _TRUE,
    FalseFormula: _FALSE,
    Atom: _LITERAL,
    Not: _LITERAL,
    Next: _NEXT,
    And: _AND,
    Or: _OR,
    Until: _UNTIL,
    Eventually: _UNTIL,
    Release: _RELEASE,
    Always: _RELEASE,
}


def ltl_to_nba(phi: Formula, alphabet: Alphabet) -> Nba:
    """Build a transition-based generalized Büchi automaton whose language is
    exactly the set of infinite words satisfying ``phi``, one state per
    obligation set.

    ``phi`` must be in negation normal form.  State numbering is canonical:
    the same formula always yields the identical automaton.
    """
    _check_depth(phi)
    # Obligation i, the i-th subformula in canonical order, is bit i of an
    # obligation set; expanding the lowest bit first makes the expansion, and
    # therefore the state numbering, deterministic.
    formulas = subformulas(phi)
    order = {f: i for i, f in enumerate(formulas)}
    # The events each literal allows; an atom comes before its negation.
    allows = [0] * len(formulas)
    everything = (1 << len(alphabet)) - 1
    for i, f in enumerate(formulas):
        if isinstance(f, Atom):
            if f.name not in alphabet:
                raise UnknownAtomError(f.name)
            allows[i] = 1 << alphabet.index(f.name)
        elif isinstance(f, Implies) or (isinstance(f, Not) and not isinstance(f.arg, Atom)):
            raise ValueError("formula must be in negation normal form")
        elif isinstance(f, Not):
            allows[i] = everything & ~allows[order[f.arg]]
    kind = [_KIND[type(f)] for f in formulas]
    # Each obligation's operands as one-bit sets: the argument of X, F and G
    # is its right operand, and their left one is 0.
    lbits = [1 << order[f.left] if isinstance(f, _Binary) else 0 for f in formulas]
    rbits = [1 << order[children(f)[-1]] if k >= _NEXT else 0 for f, k in zip(formulas, kind)]

    def expand(obligations: int) -> list[tuple[int, int, int]]:
        """GPVW expansion of one state: the (guard, old, next) sets of every
        cover it splits into, in order of completion.  ``guard`` is the set
        of events that satisfy the literals in ``old``: every positive one
        equals the event and no negative one does.  A branch whose guard
        becomes empty can meet no event and is dropped at once."""
        covers = []
        pending = [(obligations, 0, 0, everything)]
        while pending:
            new, old, nxt, guard = pending.pop()
            if not new:
                covers.append((guard, old, nxt))
                continue
            low = new & -new
            eta = low.bit_length() - 1
            new ^= low
            k = kind[eta]
            if k == _TRUE:
                # Recorded like any granted obligation: an Until whose right
                # side is literally true must see it in `old` to count as
                # fulfilled.
                pending.append((new, old | low, nxt, guard))
            elif k == _FALSE:
                pass  # contradiction: drop this branch
            elif k == _LITERAL:
                if guard & allows[eta]:
                    pending.append((new, old | low, nxt, guard & allows[eta]))
            elif k == _NEXT:
                pending.append((new, old | low, nxt | rbits[eta], guard))
            else:
                old |= low
                lbit, rbit = lbits[eta], rbits[eta]
                if k == _AND:
                    pending.append((new | ((lbit | rbit) & ~old), old, nxt, guard))
                elif k == _OR:
                    # l | l has one branch: a second would repeat every cover.
                    if rbit != lbit:
                        pending.append((new | (rbit & ~old), old, nxt, guard))
                    pending.append((new | (lbit & ~old), old, nxt, guard))
                elif k == _UNTIL:
                    # eta = l U r unfolds to r | (l & X eta); F r's l = true owes nothing.
                    pending.append((new | (rbit & ~old), old, nxt, guard))
                    pending.append((new | (lbit & ~old), old, nxt | low, guard))
                else:
                    # eta = l R r unfolds to (l & r) | (r & X eta); G r has
                    # l = false, so only the second branch.
                    if lbit:
                        pending.append((new | ((lbit | rbit) & ~old), old, nxt, guard))
                    pending.append((new | (rbit & ~old), old, nxt | low, guard))
        return covers

    # A state is the set of obligations it owes from the next position on;
    # the initial state owes the goal.  Each cover of a state's expansion
    # gives an edge, reading the cover's guard, to the state owing its `next`.
    # The edge carries mark j for the j-th Until or F unless the cover's `old`
    # promises that Until without granting its right side.  Covers with the
    # same `next` and marks are one edge, and an edge that another edge of
    # its row dominates is dropped before its target is numbered.
    untils = [(1 << u, rbits[u]) for u in range(len(formulas)) if kind[u] == _UNTIL]
    ids = {1 << order[phi]: 0}
    owes = list(ids)
    edges = []
    for obligations in owes:
        guards: dict[tuple[int, int], int] = {}
        for guard, old, nxt in expand(obligations):
            marks = 0
            for j, (ubit, rbit) in enumerate(untils):
                if not old & ubit or old & rbit:
                    marks |= 1 << j
            key = (nxt, marks)
            guards[key] = guards.get(key, 0) | guard
        row = []
        for (nxt, marks), guard in _undominated(guards):
            dst = ids.get(nxt)
            if dst is None:
                dst = ids[nxt] = len(owes)
                owes.append(nxt)
            row.append((guard, dst, marks))
        edges.append(row)

    # A state's language is the set of words satisfying everything it owes
    # (GPVW's correctness lemma), so owing less accepts more.
    return Nba(alphabet, [0], edges, len(untils), owes)


def _undominated(guards: dict[tuple[int, int], int]) -> list[tuple[tuple[int, int], int]]:
    """The ((next, marks), guard) edges of one state, in insertion order,
    without those another edge dominates (Gastin and Oddoux 2001).

    Edge e' dominates e when it reads every event e reads, owes a subset of
    what e owes and carries every mark e carries: a word accepted through e
    is accepted through e', since owing less accepts more.  The keys are
    distinct, so domination is a strict partial order, and dropping every
    non-maximal edge keeps one dominating edge for each dropped one.
    """
    row = list(guards.items())
    if len(row) < 2:
        return row
    kept = []
    for key, guard in row:
        nxt, marks = key
        for other, other_guard in row:
            if guard | other_guard == other_guard and other is not key:
                other_nxt, other_marks = other
                if other_nxt | nxt == nxt and marks | other_marks == other_marks:
                    break
        else:
            kept.append((key, guard))
    return kept


def nba_accepts_lasso(automaton: Nba, word) -> bool:
    """Decide whether the ultimately periodic word stem · loop^ω is accepted.

    Explores the product of the automaton with the lasso positions and looks
    for a reachable cycle whose edges carry every acceptance mark.  Any cycle
    necessarily lives in the loop segment, since stem positions cannot repeat.
    """
    events = [automaton.alphabet.index(e) for e in word.stem + word.loop]
    n = len(events)
    loop_entry = len(word.stem)

    ids: dict[tuple[int, int], int] = {}
    nodes: list[tuple[int, int]] = []
    for q in sorted(automaton.initial):
        ids[(q, 0)] = len(nodes)
        nodes.append((q, 0))
    adjacency: list[list[int]] = []
    marks: list[list[int]] = []
    for q, pos in nodes:
        nxt = pos + 1 if pos + 1 < n else loop_entry
        event = 1 << events[pos]
        out, out_marks = [], []
        for guard, dst, edge_marks in automaton.edges[q]:
            if guard & event:
                key = (dst, nxt)
                got = ids.get(key)
                if got is None:
                    got = ids[key] = len(nodes)
                    nodes.append(key)
                out.append(got)
                out_marks.append(edge_marks)
        adjacency.append(out)
        marks.append(out_marks)

    return bool(accepting_components(adjacency, marks, automaton.num_marks))
