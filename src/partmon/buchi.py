"""Translation of LTL formulas into generalized Büchi automata.

The construction is the on-the-fly tableau expansion of Gerth, Peled, Vardi
and Wolper (1995): nodes carry sets of obligations, Until/Release obligations
split nodes, and the finished node graph becomes a generalized Büchi automaton
with one acceptance set per Until subformula.  The acceptance sets are kept as
they are: emptiness and lasso membership check every set directly, so no
counter product is ever built.

The expansion works on integers throughout: every subformula is numbered by
its position in the canonical subformula order, and a node's obligation sets
are bitsets over those numbers.

Transition labels are concrete events, not proposition sets: an event
satisfies a node's literal obligations iff every positive literal equals the
event and no negative literal does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import accepting_components, bits
from .ltl import (
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueFormula,
    Until,
    is_nnf,
    subformulas,
    validate_formula,
)


class Nba:
    """Generalized Büchi automaton over concrete events.

    States are integers 0..num_states-1.  A run is accepting iff it visits
    every set of ``accepting_sets`` infinitely often; with no sets at all,
    every infinite run is accepting.  ``successor_masks[q][k]`` is the set of
    successors of state ``q`` on the alphabet's ``k``-th event, as a bitset.

    ``obligations[q]`` is a bitset such that ``obligations[p]`` being a subset
    of ``obligations[q]`` implies that every word accepted from ``q`` is also
    accepted from ``p``.  The tableau sets it to the obligations a state owes;
    by default it is ``1 << q``, which relates no two distinct states.
    """

    __slots__ = (
        "alphabet", "num_states", "initial", "accepting_sets", "successor_masks", "obligations"
    )

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: Iterable[int],
        transitions: Iterable[tuple[int, str, int]],
        accepting_sets: Iterable[Iterable[int]],
    ):
        masks = [[0] * len(alphabet) for _ in range(num_states)]
        for src, event, dst in transitions:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"transition endpoint out of range: {(src, event, dst)}")
            if event not in alphabet:
                raise ValueError(f"transition on unknown event '{event}'")
            masks[src][alphabet.index(event)] |= 1 << dst
        self._init(alphabet, num_states, initial, masks, accepting_sets, None)

    @classmethod
    def from_masks(
        cls,
        alphabet: Alphabet,
        num_states: int,
        initial: Iterable[int],
        successor_masks: Sequence[Sequence[int]],
        accepting_sets: Iterable[Iterable[int]],
        obligations: Sequence[int] | None = None,
    ) -> "Nba":
        """Build from per-state, per-event successor bitsets and, if given,
        per-state obligation bitsets."""
        nba = cls.__new__(cls)
        nba._init(alphabet, num_states, initial, successor_masks, accepting_sets, obligations)
        return nba

    def _init(
        self, alphabet, num_states, initial, successor_masks, accepting_sets, obligations
    ) -> None:
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = frozenset(initial)
        self.successor_masks = tuple(tuple(row) for row in successor_masks)
        self.accepting_sets = tuple(frozenset(s) for s in accepting_sets)
        if obligations is None:
            obligations = [1 << q for q in range(num_states)]
        self.obligations = tuple(obligations)
        if len(self.obligations) != num_states:
            raise ValueError("need one obligation set per state")
        if not self.initial:
            raise ValueError("automaton needs at least one initial state")
        for q in self.initial.union(*self.accepting_sets):
            if not 0 <= q < num_states:
                raise ValueError(f"state {q} out of range")

    @property
    def transitions(self) -> tuple[tuple[int, str, int], ...]:
        """Every edge as ``(src, event, dst)``, ordered by source, event
        index, then target."""
        events = self.alphabet.symbols
        return tuple(
            (src, events[k], dst)
            for src, row in enumerate(self.successor_masks)
            for k, mask in enumerate(row)
            for dst in bits(mask)
        )

    def successors(self, state: int, event: str) -> tuple[int, ...]:
        return tuple(bits(self.successor_masks[state][self.alphabet.index(event)]))


def _expand_temporal_sugar(phi: Formula) -> Formula:
    """Rewrite F/G into their Until/Release definitions for the tableau."""
    if isinstance(phi, Eventually):
        return Until(TRUE, _expand_temporal_sugar(phi.arg))
    if isinstance(phi, Always):
        return Release(FALSE, _expand_temporal_sugar(phi.arg))
    if isinstance(phi, (TrueFormula, FalseFormula, Atom)):
        return phi
    if isinstance(phi, Not):
        return Not(_expand_temporal_sugar(phi.arg))
    if isinstance(phi, Next):
        return Next(_expand_temporal_sugar(phi.arg))
    if isinstance(phi, And):
        return And(_expand_temporal_sugar(phi.left), _expand_temporal_sugar(phi.right))
    if isinstance(phi, Or):
        return Or(_expand_temporal_sugar(phi.left), _expand_temporal_sugar(phi.right))
    if isinstance(phi, Until):
        return Until(_expand_temporal_sugar(phi.left), _expand_temporal_sugar(phi.right))
    if isinstance(phi, Release):
        return Release(_expand_temporal_sugar(phi.left), _expand_temporal_sugar(phi.right))
    raise TypeError(f"not a formula: {phi!r}")


# Obligation kinds of the integer-coded tableau.
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
    Release: _RELEASE,
}


def ltl_to_nba(phi: Formula, alphabet: Alphabet) -> Nba:
    """Build an NBA whose language is exactly the set of infinite words
    satisfying ``phi``.

    ``phi`` must be in negation normal form.  State numbering is canonical:
    the same formula always yields the identical automaton.
    """
    validate_formula(phi, alphabet)
    if not is_nnf(phi):
        raise ValueError("formula must be in negation normal form")
    goal = _expand_temporal_sugar(phi)

    # Obligation i, the i-th subformula in canonical order, is bit i of an
    # obligation set; expanding the lowest bit first makes the expansion, and
    # therefore the state numbering, deterministic.
    order = {f: i for i, f in enumerate(subformulas(goal))}
    formulas = list(order)
    kind = [_KIND[type(f)] for f in formulas]
    left = [
        order[f.arg if k == _NEXT else f.left] if k >= _NEXT else -1
        for f, k in zip(formulas, kind)
    ]
    right = [order[f.right] if k > _NEXT else -1 for f, k in zip(formulas, kind)]
    # Bit of the complementary literal, or 0 when it does not occur; and the
    # events each literal allows.
    clash = [0] * len(formulas)
    allows: dict[int, int] = {}
    everything = (1 << len(alphabet)) - 1
    for i, f in enumerate(formulas):
        if isinstance(f, Atom):
            allows[i] = 1 << alphabet.index(f.name)
        elif isinstance(f, Not):
            clash[i] = 1 << order[f.arg]
            clash[order[f.arg]] = 1 << i
            allows[i] = everything & ~(1 << alphabet.index(f.arg.name))
    literals = sum(1 << i for i in allows)

    def expand(obligations: int) -> list[tuple[int, int]]:
        """GPVW expansion of one node: the (old, next) obligation sets of
        every finished node it splits into, in order of completion."""
        covers = []
        pending = [(obligations, 0, 0)]
        while pending:
            new, old, nxt = pending.pop()
            if not new:
                covers.append((old, nxt))
                continue
            low = new & -new
            eta = low.bit_length() - 1
            new ^= low
            k = kind[eta]
            if k == _TRUE:
                # Recorded like any granted obligation: an Until whose right
                # side is literally true must see it in `old` to count as
                # fulfilled.
                pending.append((new, old | low, nxt))
            elif k == _FALSE:
                pass  # contradiction: drop this node
            elif k == _LITERAL:
                if not old & clash[eta]:
                    pending.append((new, old | low, nxt))
            elif k == _NEXT:
                pending.append((new, old | low, nxt | 1 << left[eta]))
            else:
                old |= low
                lbit, rbit = 1 << left[eta], 1 << right[eta]
                if k == _AND:
                    pending.append((new | ((lbit | rbit) & ~old), old, nxt))
                elif k == _OR:
                    pending.append((new | (rbit & ~old), old, nxt))
                    pending.append((new | (lbit & ~old), old, nxt))
                elif k == _UNTIL:
                    # eta = l U r unfolds to r | (l & X eta)
                    pending.append((new | (rbit & ~old), old, nxt))
                    pending.append((new | (lbit & ~old), old, nxt | low))
                else:
                    # eta = l R r unfolds to r & (l | X eta)
                    pending.append((new | ((lbit | rbit) & ~old), old, nxt))
                    pending.append((new | (rbit & ~old), old, nxt | low))
        return covers

    # State 0 is the initial placeholder that owes the goal; every other
    # state is a finished tableau node, keyed by its (old, next) sets.  Nodes
    # owing the same next obligations split alike, so each distinct set is
    # expanded once and its successor row shared.
    ids: dict[tuple[int, int], int] = {}
    olds = [0]
    owes = [1 << order[goal]]
    rows: dict[int, tuple[int, ...]] = {}
    masks = []
    for obligations in owes:
        row = rows.get(obligations)
        if row is None:
            targets = [0] * len(alphabet)
            for key in expand(obligations):
                # An event satisfies a node's literals iff it equals every
                # positive one and differs from every negative one.
                events = everything
                for i in bits(key[0] & literals):
                    events &= allows[i]
                if not events:
                    continue
                dst = ids.get(key)
                if dst is None:
                    dst = ids[key] = len(owes)
                    olds.append(key[0])
                    owes.append(key[1])
                for k in bits(events):
                    targets[k] |= 1 << dst
            row = rows[obligations] = tuple(targets)
        masks.append(row)

    accepting_sets = [
        [q for q in range(1, len(olds)) if not olds[q] >> u & 1 or olds[q] >> right[u] & 1]
        for u in range(len(formulas))
        if kind[u] == _UNTIL
    ]
    # A state's language is the set of words satisfying everything it owes
    # (GPVW's correctness lemma, per node), so owing less accepts more.
    return Nba.from_masks(alphabet, len(owes), [0], masks, accepting_sets, owes)


def nba_accepts_lasso(automaton: Nba, word) -> bool:
    """Decide whether the ultimately periodic word stem · loop^ω is accepted.

    Explores the product of the automaton with the lasso positions and looks
    for a reachable cycle whose states meet every acceptance set.  Any cycle
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
    for q, pos in nodes:
        nxt = pos + 1 if pos + 1 < n else loop_entry
        out = []
        for dst in bits(automaton.successor_masks[q][events[pos]]):
            key = (dst, nxt)
            got = ids.get(key)
            if got is None:
                got = ids[key] = len(nodes)
                nodes.append(key)
            out.append(got)
        adjacency.append(out)

    state_of = [q for q, _ in nodes]
    return bool(accepting_components(adjacency, state_of, automaton.accepting_sets))
