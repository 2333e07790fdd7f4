"""Translation of LTL formulas into generalized Büchi automata.

The construction is the compositional tableau of Gastin and Oddoux (2001),
read as a transition-based automaton (Couvreur 1999; Giannakopoulou and Lerda
2002): a state is the set of obligations it owes from the next position on,
and acceptance marks sit on the edges, one mark per Until or F subformula.
Every subformula gets a move list, built once from its operands' lists: each
move reads a guard now, owes a set of obligations from the next position on,
and leaves pending the marks of the Untils it promised without granting.  A
state's edges are the product of the move lists of everything it owes.  A
move that owes no more and leaves no more marks pending than another
dominates it, and the other keeps only the events no move dominating it
reads (Babiak, Křetínský, Řehák and Strejček 2012); a move left reading
nothing is dropped, so the states only dropped moves lead to are never
built.  An X obligation's one move reads every event and owes its
operand, so a state owing X obligations takes the product of the rest of
what it owes, shared by every state owing that rest, and ORs their operands
into each move's next obligations.  The full product is folded instead only
where some move of the rest already owes one of those operands; otherwise
the OR neither merges nor separates moves and creates or undoes no
domination, so the automaton is the one the full product gives, edge order
included.  The marks are kept as they are: emptiness and lasso
membership check every mark directly, so no counter product is ever built.
One worklist loop builds the states breadth-first from the start: it takes
each state in the order it was first met, builds its edges, and numbers
each edge's target the first time it meets it.

The subformulas are those of the formula's negation normal form, or of its
negation's, but no normal form is built: the walk reads the tree as given
and pushes negations inward itself, reading each operator under a negation
as its dual, so one parsed formula gives both of synthesis's automata.

Obligation sets are bitsets over the subformulas' positions in the canonical
subformula order.  Edge guards are sets of concrete events, not of
proposition sets: an event satisfies a literal iff it equals the literal's
atom, or, for a negated atom, differs from it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import explore, fair_nodes
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
    _BINARY,
    _DUAL,
    _UNARY,
    _check_alphabet,
    _check_depth,
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
        _check_alphabet(alphabet)
        rows = tuple(tuple(row) for row in edges)
        self._fill(alphabet, frozenset(initial), rows, num_marks, tuple(obligations))
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

    @classmethod
    def _built(
        cls,
        alphabet: Alphabet,
        edges: Sequence[tuple[tuple[int, int, int], ...]],
        num_marks: int,
        obligations: Sequence[int],
    ) -> "Nba":
        """The tableau's automaton, initial state 0: its edges are in range
        by construction, so nothing is checked, and its rows are tuples
        already, so they are kept as they come."""
        automaton = object.__new__(cls)
        return automaton._fill(alphabet, frozenset((0,)), tuple(edges), num_marks, tuple(obligations))

    def _fill(
        self,
        alphabet: Alphabet,
        initial: frozenset[int],
        edges: tuple[tuple[tuple[int, int, int], ...], ...],
        num_marks: int,
        obligations: tuple[int, ...],
    ) -> "Nba":
        """Set every slot, one row of edges per state; returns the automaton."""
        self.alphabet = alphabet
        self.edges = edges
        self.num_states = len(edges)
        self.initial = initial
        self.num_marks = num_marks
        self.obligations = obligations
        return self


_Move = tuple[int, int, int]


def ltl_to_nba(phi: Formula, alphabet: Alphabet) -> Nba:
    """Build a transition-based generalized Büchi automaton whose language is
    exactly the set of infinite words satisfying ``phi``, one state per
    obligation set.

    ``phi`` may be any formula: negations are pushed inward as the tree is
    walked, so the automaton is the one of ``nnf(phi)``, and that of
    ``Not(phi)`` the one of ``negate_nnf(phi)``, as synthesis builds them.
    State numbering is canonical: the same formula always yields the
    identical automaton.  An unknown atom raises UnknownAtomError.
    """
    return _tableau(phi, alphabet, False)


def _tableau(phi: Formula, alphabet: Alphabet, negated: bool) -> Nba:
    """The automaton of ``phi``, or with ``negated`` of its negation, read
    from the tree as it is: the walk carries a polarity and pushes negations
    inward itself."""
    moves, goal, untils, next_of = _walk(phi, alphabet, negated)

    # A state is the set of obligations it owes from the next position on;
    # the initial state owes the goal.  Its row is the product of the move
    # lists of everything it owes, taken lowest obligation first; each
    # partial product is kept, so states owing the same low obligations share
    # it, and the full one is the row of every state owing that set.  A move
    # gives an edge, reading its guard, to the state owing its `next`, and
    # carrying mark j unless it leaves the j-th Until or F pending.  A
    # dominated move loses the events its dominators read, and one left
    # reading nothing is dropped, before its target is numbered.
    stay = [((1 << len(alphabet)) - 1, 0, 0)]
    products: dict[int, list[_Move]] = {0: stay}

    # An X obligation's one move reads every event and owes its operand, so
    # its factor in the product only ORs that operand's bit into each move's
    # `next`.  A state owing X obligations therefore takes the row of the
    # rest of what it owes and ORs in their operands' bits, unless a move of
    # the rest owes one of those bits.  Otherwise the OR is injective on
    # every step's `next` sets and keeps inclusion both ways, so no merge or
    # domination appears or disappears, and the row is the full fold's, edge
    # order included.  What each obligation's moves owe is found on demand.
    # The walk numbers an X's operand just before the X unless it was
    # numbered earlier, so the X bits of a chain, ``shifted``, owe the
    # next-lower bit: one shift gives all their operands.
    nexts = sum(next_of)
    shifted = sum(bit for bit, operand in next_of.items() if operand == bit >> 1)
    owes_of: dict[int, int] = {}

    # States are numbered as graphs.explore would number them: the start
    # first, then each state's targets in move order, as first met.
    all_marks = (1 << untils) - 1
    owes = [1 << goal]
    ids = {owes[0]: 0}
    edges: list[tuple[tuple[int, int, int], ...]] = []
    for owed in owes:
        owed_x = owed & nexts
        rest = owed ^ owed_x
        added = (owed_x & shifted) >> 1
        owed_x &= ~shifted
        while owed_x:
            low = owed_x & -owed_x
            owed_x ^= low
            added |= next_of[low]
        if added:
            scan = rest
            while scan:
                low = scan & -scan
                scan ^= low
                got = owes_of.get(low)
                if got is None:
                    got = owes_of[low] = _owed_by(moves[low.bit_length() - 1])
                if got & added:
                    # The bits could relate two moves: fold everything owed.
                    rest, added = owed, 0
                    break
        prefix, row = 0, stay
        while rest:
            low = rest & -rest
            rest ^= low
            prefix |= low
            got = products.get(prefix)
            if got is None:
                got = products[prefix] = _product(row, moves[low.bit_length() - 1])
            row = got
        out = []
        for guard, nxt, pending in row:
            nxt |= added
            dst = ids.get(nxt)
            if dst is None:
                dst = ids[nxt] = len(owes)
                owes.append(nxt)
            out.append((guard, dst, all_marks ^ pending))
        edges.append(tuple(out))

    # A state's language is the set of words satisfying everything it owes
    # (GPVW's correctness lemma), so owing less accepts more.
    return Nba._built(alphabet, edges, untils, owes)


def _walk(
    phi: Formula, alphabet: Alphabet, negated: bool
) -> tuple[list[list[_Move]], int, int, dict[int, int]]:
    """Number the subformulas of ``phi``'s normal form, or of its
    negation's, and build their move lists.

    Returns the move lists, by obligation number; the goal's number; the
    number of Until and F subformulas, one acceptance mark each; and, for
    each X subformula, its obligation bit mapped to its operand's.
    """
    _check_depth(phi)
    _check_alphabet(alphabet)
    # Obligation i, the i-th subformula in canonical order, is bit i of an
    # obligation set.  One walk, children first, numbers each distinct
    # subformula of the normal form once its operands are numbered and builds
    # its move list from theirs.  Under a negation an operator is read as its
    # dual and l -> r as !l | r, so the walk meets the normal form's nodes in
    # its post-order without building them.  A subformula is known by its
    # operator and its operands' numbers, a literal by its atom's name; each
    # node object is walked once per polarity.
    number: dict[tuple, int] = {}
    seen: tuple[dict[int, int], dict[int, int]] = ({}, {})
    everything = (1 << len(alphabet)) - 1
    stay: list[_Move] = [(everything, 0, 0)]
    moves: list[list[_Move]] = []
    next_of: dict[int, int] = {}
    untils = 0

    def walk(f: Formula, neg: bool) -> int:
        nonlocal untils
        i = seen[neg].get(id(f))
        if i is not None:
            return i
        op = f.__class__
        if op is Not:
            i = walk(f.arg, not neg)
        else:
            if op is Atom:
                if neg:
                    walk(f, False)  # the atom is numbered before its literal
                    op = Not
                key: tuple = (op, f.name)
            elif op is Implies:
                # l -> r is !l | r, and its negation l & !r.
                op = And if neg else Or
                key = (op, walk(f.left, not neg), walk(f.right, neg))
            else:
                if neg:
                    op = _DUAL[op]
                if op in _BINARY:
                    key = (op, walk(f.left, neg), walk(f.right, neg))
                elif op in _UNARY:
                    key = (op, walk(f.arg, neg))
                else:
                    key = (op,)
            i = number.get(key)
            if i is None:
                # The last entry of a key is the right operand or the only one.
                if op is Atom:
                    if f.name not in alphabet:
                        raise UnknownAtomError(f.name)
                    got = [(1 << alphabet.index(f.name), 0, 0)]
                elif op is Not:
                    # Over a one-event alphabet the negation allows nothing.
                    allows = everything & ~(1 << alphabet.index(f.name))
                    got = [(allows, 0, 0)] if allows else []
                elif op is And:
                    got = _product(moves[key[1]], moves[key[2]])
                elif op is Or:
                    got = _undominated(moves[key[1]] + moves[key[2]])
                elif op is Next:
                    got = [(everything, 1 << key[1], 0)]
                    next_of[1 << len(moves)] = 1 << key[1]
                elif op is Until or op is Eventually:
                    # f = l U r unfolds to r | (l & X f), where F r's l is
                    # true.  The second branch promises r without granting
                    # it: its mark pends.
                    left = moves[key[1]] if op is Until else stay
                    right = moves[key[-1]]
                    mine, pend = 1 << len(moves), 1 << untils
                    untils += 1
                    got = _undominated(right + [(g, n | mine, p | pend) for g, n, p in left])
                elif op is Release or op is Always:
                    # f = l R r unfolds to (l & r) | (r & X f), where G r's l
                    # is false.
                    left = moves[key[1]] if op is Release else []
                    right = moves[key[-1]]
                    mine = 1 << len(moves)
                    got = _undominated(_product(left, right) + [(g, n | mine, p) for g, n, p in right])
                elif op is TrueFormula:
                    got = stay
                else:  # FalseFormula
                    got = []
                i = number[key] = len(moves)
                moves.append(got)
        seen[neg][id(f)] = i
        return i

    try:
        goal = walk(phi, negated)
    finally:
        del walk  # it is in its own closure: a cycle only the cyclic collector frees
    return moves, goal, untils, next_of


def _product(left: list[_Move], right: list[_Move]) -> list[_Move]:
    """The moves that make one move of each list at once."""
    return _undominated(
        [(g & h, n | m, p | q) for g, n, p in left for h, m, q in right if g & h]
    )


def _owed_by(moves: list[_Move]) -> int:
    """The obligations some move of ``moves`` owes."""
    owed = 0
    for _, nxt, _ in moves:
        owed |= nxt
    return owed


def _undominated(moves: list[_Move]) -> list[_Move]:
    """The (guard, next, pending) moves, merged by (next, pending) in order
    of first occurrence, each reading only the events no move dominating it
    reads (Gastin and Oddoux 2001; Babiak, Křetínský, Řehák and Strejček
    2012), and without those left reading nothing.

    Move e' dominates e when it owes a subset of what e owes and leaves a
    subset of e's marks pending: on an event both read, a word accepted
    through e is accepted through e', since owing less accepts more.  The
    merged keys are distinct, so domination is a strict partial order: on
    each event the moves reading it that no other move reading it dominates
    keep it, and every move that loses it is dominated by one of them.
    """
    if len(moves) < 2:
        return moves
    guards: dict[tuple[int, int], int] = {}
    for guard, nxt, pending in moves:
        key = (nxt, pending)
        guards[key] = guards.get(key, 0) | guard
    row = list(guards.items())
    kept = []
    for key, guard in row:
        nxt, pending = key
        for other, other_guard in row:
            if guard & other_guard and other is not key:
                other_nxt, other_pending = other
                if other_nxt | nxt == nxt and other_pending | pending == pending:
                    guard &= ~other_guard
                    if not guard:
                        break
        else:
            kept.append((guard, nxt, pending))
    return kept


def nba_accepts_lasso(automaton: Nba, word) -> bool:
    """Decide whether the ultimately periodic word stem · loop^ω is accepted.

    Explores the product of the automaton with the lasso positions and looks
    for a reachable cycle whose edges carry every acceptance mark.  Any cycle
    necessarily lives in the loop segment, since stem positions cannot repeat.
    """
    events = [1 << automaton.alphabet.index(e) for e in word.stem + word.loop]
    # The position after each one; the last goes back to the loop's entry.
    after = [*range(1, len(events)), len(word.stem)]

    # The edges each node takes, in the order explore numbers the nodes.
    taken: list[list[tuple[int, int, int]]] = []

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        edges = [edge for edge in automaton.edges[node[0]] if edge[0] & events[node[1]]]
        taken.append(edges)
        return [(dst, after[node[1]]) for _, dst, _ in edges]

    _, targets = explore([(q, 0) for q in sorted(automaton.initial)], successors)
    rows = [
        [(guard, dst, marks) for (guard, _, marks), dst in zip(edges, row)]
        for edges, row in zip(taken, targets)
    ]

    # Every node is reachable from a start, so any fair node is on a run.
    return bool(fair_nodes(rows, automaton.num_marks))
