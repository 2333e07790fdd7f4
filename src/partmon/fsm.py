"""From Büchi automata to executable Moore-machine monitors.

The pipeline runs once for a formula and once for its negation: per-state
emptiness turns each NBA into an NFA over finite prefixes, the NFA is
determinized by the subset construction, and the two DFAs are combined into a
Moore machine whose state output says whether the prefix read so far already
settles the property.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Sequence

from .buchi import Nba, ltl_to_nba
from .graphs import reachable_from, strongly_connected_components
from .ltl import Alphabet, Formula, negate_nnf, nnf, validate_formula


class Verdict(Enum):
    """Monitoring outcome for a finite trace.

    TOP and BOT are irrevocable: every infinite continuation satisfies
    (respectively violates) the property.  UNKNOWN means the trace is still
    undecided, GIVEUP that no continuation can ever decide it.  Three-valued
    machines never use GIVEUP.
    """

    TOP = "TOP"
    BOT = "BOT"
    UNKNOWN = "?"
    GIVEUP = "x"

    @property
    def text(self) -> str:
        return self.value

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


class Nfa:
    """Nondeterministic finite automaton over the same graph as an NBA."""

    __slots__ = ("alphabet", "num_states", "initial", "transitions", "finals", "_succ")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: Iterable[int],
        transitions: Iterable[tuple[int, str, int]],
        finals: Iterable[int],
    ):
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = frozenset(initial)
        self.transitions = tuple(sorted(set(transitions), key=lambda e: (e[0], alphabet.index(e[1]), e[2])))
        self.finals = frozenset(finals)
        for q in self.initial | self.finals:
            if not 0 <= q < num_states:
                raise ValueError(f"state {q} out of range")
        succ: dict[tuple[int, str], list[int]] = {}
        for src, event, dst in self.transitions:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"transition endpoint out of range: {(src, event, dst)}")
            succ.setdefault((src, event), []).append(dst)
        self._succ = {key: tuple(dsts) for key, dsts in succ.items()}

    def successors(self, state: int, event: str) -> tuple[int, ...]:
        return self._succ.get((state, event), ())


class Dfa:
    """Deterministic finite automaton with a total transition function."""

    __slots__ = ("alphabet", "num_states", "initial", "delta", "finals")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        delta: Sequence[Sequence[int]],
        finals: Iterable[int],
    ):
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.delta = tuple(tuple(row) for row in delta)
        self.finals = frozenset(finals)
        if not 0 <= initial < num_states:
            raise ValueError("initial state out of range")
        if len(self.delta) != num_states:
            raise ValueError("delta must have one row per state")
        for row in self.delta:
            if len(row) != len(alphabet):
                raise ValueError("delta must be total: one entry per event")
            for dst in row:
                if not 0 <= dst < num_states:
                    raise ValueError(f"transition target {dst} out of range")

    def step(self, state: int, event: str) -> int:
        return self.delta[state][self.alphabet.index(event)]


def per_state_nonempty(automaton: Nba) -> frozenset[int]:
    """States that generate a nonempty omega-language when made initial.

    Computed by SCC decomposition: a state qualifies iff it can reach an
    accepting state lying on a cycle (an SCC with at least one internal
    transition, which for singleton components means a self-loop).
    """
    adjacency: list[list[int]] = [[] for _ in range(automaton.num_states)]
    reverse: list[list[int]] = [[] for _ in range(automaton.num_states)]
    for src, _, dst in automaton.transitions:
        adjacency[src].append(dst)
        reverse[dst].append(src)

    seeds: set[int] = set()
    for component in strongly_connected_components(adjacency):
        cyclic = len(component) > 1 or any(v in adjacency[v] for v in component)
        if cyclic:
            seeds.update(q for q in component if q in automaton.accepting)
    return frozenset(reachable_from(reverse, seeds))


def nba_to_nfa(automaton: Nba) -> Nfa:
    """Reinterpret the NBA over finite words: the finals are the states with a
    nonempty omega-language, so the NFA accepts exactly the prefixes that have
    at least one infinite continuation accepted by the NBA."""
    return Nfa(
        automaton.alphabet,
        automaton.num_states,
        automaton.initial,
        automaton.transitions,
        per_state_nonempty(automaton),
    )


def nfa_accepts(automaton: Nfa, word: Sequence[str]) -> bool:
    current = set(automaton.initial)
    for event in word:
        current = {dst for q in current for dst in automaton.successors(q, event)}
        if not current:
            return False
    return bool(current & automaton.finals)


def determinize(automaton: Nfa) -> Dfa:
    """Rabin–Scott subset construction; only reachable subsets are built and
    the empty subset serves as the non-final sink."""
    alphabet = automaton.alphabet
    start = frozenset(automaton.initial)
    ids: dict[frozenset[int], int] = {start: 0}
    queue: deque[frozenset[int]] = deque([start])
    subsets: list[frozenset[int]] = [start]
    delta_rows: list[list[int]] = []
    while queue:
        subset = queue.popleft()
        row = []
        for event in alphabet:
            target = frozenset(
                dst for q in subset for dst in automaton.successors(q, event)
            )
            dst_id = ids.get(target)
            if dst_id is None:
                dst_id = len(ids)
                ids[target] = dst_id
                subsets.append(target)
                queue.append(target)
            row.append(dst_id)
        delta_rows.append(row)
    finals = [i for i, subset in enumerate(subsets) if subset & automaton.finals]
    return Dfa(alphabet, len(subsets), 0, delta_rows, finals)


class MooreMonitor:
    """Moore machine executing a monitor: total deterministic transitions and
    one verdict per state.

    ``partial`` records the output domain: False for three-valued machines
    (before give-up labeling), True once GIVEUP states are meaningful.
    All states must be reachable from the initial state.

    ``_compiled`` holds the flat stepping table that
    :func:`partmon.runtime.compile_monitor` builds on first use; machines that
    are never run, such as synthesis intermediates, never pay for it.
    """

    __slots__ = ("alphabet", "num_states", "initial", "delta", "outputs", "partial", "_compiled")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        delta: Sequence[Sequence[int]],
        outputs: Sequence[Verdict],
        partial: bool = False,
    ):
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.delta = tuple(tuple(row) for row in delta)
        self.outputs = tuple(outputs)
        self.partial = partial
        self._compiled = None
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
            if out is Verdict.GIVEUP and not partial:
                raise ValueError("three-valued machine cannot output a give-up verdict")
        reachable = reachable_from(self.delta, [initial])
        if len(reachable) != num_states:
            missing = sorted(set(range(num_states)) - reachable)
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

    Runs the NBA/NFA/DFA pipeline for the formula and its negation, then takes
    the synchronous product.  A product state outputs TOP when the negation
    side can no longer accept (no continuation violates), BOT when the formula
    side cannot (no continuation satisfies), UNKNOWN otherwise.  With
    ``minimize`` (the default) the result is the unique minimal machine.
    """
    validate_formula(phi, alphabet)
    dfa_pos = determinize(nba_to_nfa(ltl_to_nba(nnf(phi), alphabet)))
    dfa_neg = determinize(nba_to_nfa(ltl_to_nba(negate_nnf(phi), alphabet)))

    ids: dict[tuple[int, int], int] = {(dfa_pos.initial, dfa_neg.initial): 0}
    queue = deque([(dfa_pos.initial, dfa_neg.initial)])
    delta_rows: list[list[int]] = []
    outputs: list[Verdict] = []
    pairs: list[tuple[int, int]] = [(dfa_pos.initial, dfa_neg.initial)]
    while queue:
        qp, qn = queue.popleft()
        can_satisfy = qp in dfa_pos.finals
        can_violate = qn in dfa_neg.finals
        if not can_satisfy and not can_violate:
            raise AssertionError(
                "internal error: product state is dead on both sides"
            )
        if not can_violate:
            outputs.append(Verdict.TOP)
        elif not can_satisfy:
            outputs.append(Verdict.BOT)
        else:
            outputs.append(Verdict.UNKNOWN)
        row = []
        for k in range(len(alphabet)):
            target = (dfa_pos.delta[qp][k], dfa_neg.delta[qn][k])
            dst_id = ids.get(target)
            if dst_id is None:
                dst_id = len(ids)
                ids[target] = dst_id
                pairs.append(target)
                queue.append(target)
            row.append(dst_id)
        delta_rows.append(row)

    machine = MooreMonitor(alphabet, len(pairs), 0, delta_rows, outputs)
    if minimize:
        machine = minimize_moore(machine)
    return machine


def monitor_verdict(machine: MooreMonitor, trace: Sequence[str]) -> Verdict:
    """Fold the trace through the machine and return the final state's verdict."""
    state = machine.initial
    for event in trace:
        state = machine.step(state, event)
    return machine.output(state)


def _renumber(machine: MooreMonitor) -> MooreMonitor:
    """Canonical state numbering: breadth-first from the initial state,
    exploring events in alphabet order."""
    renamed = {machine.initial: 0}
    order = [machine.initial]
    queue = deque([machine.initial])
    while queue:
        q = queue.popleft()
        for dst in machine.delta[q]:
            if dst not in renamed:
                renamed[dst] = len(renamed)
                order.append(dst)
                queue.append(dst)
    delta = [
        [renamed[machine.delta[q][k]] for k in range(len(machine.alphabet))]
        for q in order
    ]
    outputs = [machine.outputs[q] for q in order]
    return MooreMonitor(
        machine.alphabet, len(order), 0, delta, outputs, machine.partial
    )


def minimize_moore(machine: MooreMonitor) -> MooreMonitor:
    """Output-preserving minimization by partition refinement.

    Starts from the partition induced by state outputs and splits blocks until
    every block is closed under the transition function, then rebuilds the
    quotient machine with canonical numbering.
    """
    classes = sorted({out for out in machine.outputs}, key=lambda v: v.value)
    block = [classes.index(out) for out in machine.outputs]
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_block = [0] * machine.num_states
        for q in machine.states():
            sig = (block[q],) + tuple(block[dst] for dst in machine.delta[q])
            found = signatures.get(sig)
            if found is None:
                found = len(signatures)
                signatures[sig] = found
            new_block[q] = found
        if len(signatures) == len(set(block)):
            break
        block = new_block

    representatives: dict[int, int] = {}
    for q in machine.states():
        representatives.setdefault(block[q], q)
    block_ids = sorted(representatives)
    index_of = {b: i for i, b in enumerate(block_ids)}
    delta = [
        [index_of[block[machine.delta[representatives[b]][k]]] for k in range(len(machine.alphabet))]
        for b in block_ids
    ]
    outputs = [machine.outputs[representatives[b]] for b in block_ids]
    quotient = MooreMonitor(
        machine.alphabet,
        len(block_ids),
        index_of[block[machine.initial]],
        delta,
        outputs,
        machine.partial,
    )
    return _renumber(quotient)


def moore_isomorphic(first: MooreMonitor, second: MooreMonitor) -> bool:
    """Structural equality up to state renaming, respecting the initial state
    and every state's output."""
    if first.alphabet != second.alphabet or first.num_states != second.num_states:
        return False
    forward = {first.initial: second.initial}
    backward = {second.initial: first.initial}
    queue = deque([(first.initial, second.initial)])
    while queue:
        p, q = queue.popleft()
        if first.outputs[p] is not second.outputs[q]:
            return False
        for k in range(len(first.alphabet)):
            pd, qd = first.delta[p][k], second.delta[q][k]
            if pd in forward:
                if forward[pd] != qd:
                    return False
            elif qd in backward:
                return False
            else:
                forward[pd] = qd
                backward[qd] = pd
                queue.append((pd, qd))
    return True
