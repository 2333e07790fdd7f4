"""Shared test utilities: formula generators, word families, golden machines,
a second, deliberately naive semantics evaluator used to cross-check the
fixpoint one, machine isomorphism and a forward reachability check, and the
plain subset-construction route that synthesis is checked against.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from partmon.buchi import Nba, ltl_to_nba
from partmon.fsm import MooreMonitor, Verdict, per_state_nonempty
from partmon.ltl import (
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    Implies,
    LassoWord,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueFormula,
    UnknownEventError,
    Until,
    negate_nnf,
    nnf,
)

NAMES3 = ("ev1", "ev2", "ev3")
ALPHA3 = Alphabet(NAMES3)

_BINARY_OPS = (And, Or, Implies, Until, Release)
_UNARY_OPS = (Not, Next, Eventually, Always)


def random_formula(rng: random.Random, depth: int, names=NAMES3) -> Formula:
    """Uniform-ish random formula of nesting depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.7:
            return Atom(rng.choice(names))
        return TRUE if roll < 0.85 else FALSE
    op = rng.choice(_BINARY_OPS + _UNARY_OPS)
    if op in _UNARY_OPS:
        return op(random_formula(rng, depth - 1, names))
    return op(random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names))


def all_words(names, max_len: int) -> list[tuple[str, ...]]:
    """Every word over ``names`` of length 0..max_len, shortest first."""
    out: list[tuple[str, ...]] = []
    for length in range(max_len + 1):
        out.extend(itertools.product(names, repeat=length))
    return out


def all_lassos(names, max_stem: int, max_loop: int) -> list[LassoWord]:
    stems = all_words(names, max_stem)
    loops = [w for w in all_words(names, max_loop) if w]
    return [LassoWord(s, l) for s in stems for l in loops]


def unfold_eval(phi: Formula, word: LassoWord) -> bool:
    """Evaluate by recursive unfolding of the temporal fixpoint equations,
    cut off after 2 * (|stem| + |loop|) unrollings.

    Unfulfilled Until/Eventually default to false at the cutoff and
    Release/Always to true, which is exact on ultimately periodic words of
    this size.  Separate from lasso_eval on purpose: two disagreeing
    evaluators flag a bug in one of them.
    """
    events = word.stem + word.loop
    n = len(events)
    first_loop = len(word.stem)
    fuel_budget = 2 * n + 2
    memo: dict[tuple[Formula, int], bool] = {}

    def succ(i: int) -> int:
        return i + 1 if i + 1 < n else first_loop

    def holds(f: Formula, i: int) -> bool:
        key = (f, i)
        got = memo.get(key)
        if got is None:
            got = unfold(f, i, fuel_budget)
            memo[key] = got
        return got

    def unfold(f: Formula, i: int, fuel: int) -> bool:
        if isinstance(f, TrueFormula):
            return True
        if isinstance(f, FalseFormula):
            return False
        if isinstance(f, Atom):
            return events[i] == f.name
        if isinstance(f, Not):
            return not holds(f.arg, i)
        if isinstance(f, And):
            return holds(f.left, i) and holds(f.right, i)
        if isinstance(f, Or):
            return holds(f.left, i) or holds(f.right, i)
        if isinstance(f, Implies):
            return not holds(f.left, i) or holds(f.right, i)
        if isinstance(f, Next):
            return holds(f.arg, succ(i))
        if isinstance(f, Until):
            if holds(f.right, i):
                return True
            if fuel == 0:
                return False
            return holds(f.left, i) and unfold(f, succ(i), fuel - 1)
        if isinstance(f, Release):
            if not holds(f.right, i):
                return False
            if fuel == 0:
                return True
            return holds(f.left, i) or unfold(f, succ(i), fuel - 1)
        if isinstance(f, Eventually):
            if holds(f.arg, i):
                return True
            if fuel == 0:
                return False
            return unfold(f, succ(i), fuel - 1)
        if isinstance(f, Always):
            if not holds(f.arg, i):
                return False
            if fuel == 0:
                return True
            return unfold(f, succ(i), fuel - 1)
        raise TypeError(f"not a formula: {f!r}")

    return holds(phi, 0)


# --- hand-built machines matching the documented monitor shapes -------------

def eventually_ev1_machine(partial: bool = False) -> MooreMonitor:
    """Monitor for 'F ev1' over {ev1, ev2, ev3}: inconclusive start, TOP sink."""
    return MooreMonitor(
        ALPHA3,
        2,
        0,
        [[1, 0, 0], [1, 1, 1]],
        [Verdict.UNKNOWN, Verdict.TOP],
        partial,
    )


ALPHA4 = Alphabet(("ev1", "ev2", "ev3", "ev4"))


def mixed_branches_machine(partial: bool = False) -> MooreMonitor:
    """Monitor for '(ev1 & F ev2) | (ev3 & G F ev4)' over {ev1..ev4}.

    States: 0 start, 1 committed-to-F ev2, 2 inconclusive-forever sink,
    3 BOT sink, 4 TOP sink.  When ``partial`` is set, state 2 is a give-up
    state, otherwise it stays inconclusive.
    """
    outputs = [
        Verdict.UNKNOWN,
        Verdict.UNKNOWN,
        Verdict.GIVEUP if partial else Verdict.UNKNOWN,
        Verdict.BOT,
        Verdict.TOP,
    ]
    delta = [
        [1, 3, 2, 3],
        [1, 4, 1, 1],
        [2, 2, 2, 2],
        [3, 3, 3, 3],
        [4, 4, 4, 4],
    ]
    return MooreMonitor(ALPHA4, 5, 0, delta, outputs, partial)


RADIATION_ALPHA = Alphabet(
    ("rad_low", "rad_high", "rad_medium", "mv_dec", "insp_t1", "insp_t2")
)

RADIATION_FORMULA = (
    "rad_low U ((rad_high & <>mv_dec)"
    " | (rad_medium & []<>(insp_t1 | insp_t2)))"
)


def radiation_machine() -> MooreMonitor:
    """Partial monitor for the radiation property over the rover alphabet.

    States: 0 waiting on rad_low, 1 committed to eventually mv_dec, 2 give-up
    (entered on rad_medium), 3 BOT sink, 4 TOP sink.
    """
    outputs = [
        Verdict.UNKNOWN,
        Verdict.UNKNOWN,
        Verdict.GIVEUP,
        Verdict.BOT,
        Verdict.TOP,
    ]
    delta = [
        [0, 1, 2, 3, 3, 3],
        [1, 1, 1, 4, 1, 1],
        [2, 2, 2, 2, 2, 2],
        [3, 3, 3, 3, 3, 3],
        [4, 4, 4, 4, 4, 4],
    ]
    return MooreMonitor(RADIATION_ALPHA, 5, 0, delta, outputs, partial=True)


def giveup_only_machine(alphabet: Alphabet | None = None) -> MooreMonitor:
    """Single give-up state looping on every event."""
    alphabet = alphabet or ALPHA3
    return MooreMonitor(
        alphabet, 1, 0, [[0] * len(alphabet)], [Verdict.GIVEUP], partial=True
    )


# --- instruments -----------------------------------------------------------------

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


def reachability_oracle(machine: MooreMonitor, state: int) -> bool:
    """Forward breadth-first check: can this state reach a conclusive one?

    Independent of the backward sweep in :func:`partialize`; kept as a
    cross-check instrument.
    """
    if not 0 <= state < machine.num_states:
        raise ValueError(f"state {state} out of range")
    seen = {state}
    queue = deque([state])
    while queue:
        q = queue.popleft()
        if machine.outputs[q].is_conclusive:
            return True
        for dst in machine.delta[q]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return False


# --- reference stepper ---------------------------------------------------------

def reference_states(machine: MooreMonitor, trace, stop_early: bool = False) -> list[int]:
    """The machine's state after each consumed event, by the plain
    ``delta[s][alphabet.index(e)]`` walk under the session discipline.

    Every event is checked against the alphabet and counts toward positions;
    once the state's verdict is final it no longer moves, whatever its edges
    say.  With ``stop_early`` the walk ends before the first event that
    arrives after conclusion.  The compiled runtime is tested against this.
    """
    state = machine.initial
    states: list[int] = []
    for position, event in enumerate(trace, start=1):
        if stop_early and machine.outputs[state].is_final:
            break
        try:
            column = machine.alphabet.index(event)
        except UnknownEventError:
            raise UnknownEventError(event, position) from None
        if not machine.outputs[state].is_final:
            state = machine.delta[state][column]
        states.append(state)
    return states


# --- plain synthesis route --------------------------------------------------------

class ReferenceDfa:
    """Subset automaton of an NBA read over finite words: state ``i`` is the
    subset ``subsets[i]`` of NBA states, and it is final iff it holds a state
    with a nonempty omega-language."""

    def __init__(self, alphabet, subsets, delta, finals):
        self.alphabet = alphabet
        self.subsets = subsets
        self.num_states = len(subsets)
        self.initial = 0
        self.delta = delta
        self.finals = finals

    def step(self, state: int, event: str) -> int:
        return self.delta[state][self.alphabet.index(event)]


def determinize(nba: Nba) -> ReferenceDfa:
    """Rabin–Scott subset construction over every NBA state, dead ones
    included, with frozensets; the empty subset is the non-final sink."""
    live = per_state_nonempty(nba)
    start = frozenset(nba.initial)
    ids = {start: 0}
    subsets = [start]
    delta = []
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        row = []
        for event in nba.alphabet:
            target = frozenset(dst for q in subset for dst in nba.successors(q, event))
            if target not in ids:
                ids[target] = len(subsets)
                subsets.append(target)
                queue.append(target)
            row.append(ids[target])
        delta.append(row)
    finals = frozenset(i for i, subset in enumerate(subsets) if subset & live)
    return ReferenceDfa(nba.alphabet, subsets, delta, finals)


def prefix_accepts(nba: Nba, word) -> bool:
    """Whether the finite word has a continuation the NBA accepts."""
    current = set(nba.initial)
    for event in word:
        current = {dst for q in current for dst in nba.successors(q, event)}
    return bool(current & per_state_nonempty(nba))


def reference_monitor(phi: Formula, alphabet: Alphabet) -> MooreMonitor:
    """The unminimized three-valued monitor by the plain route: determinize
    both sides and take their synchronous product, one state per pair."""
    pos = determinize(ltl_to_nba(nnf(phi), alphabet))
    neg = determinize(ltl_to_nba(negate_nnf(phi), alphabet))
    ids = {(0, 0): 0}
    pairs = [(0, 0)]
    delta, outputs = [], []
    for qp, qn in pairs:
        can_satisfy, can_violate = qp in pos.finals, qn in neg.finals
        assert can_satisfy or can_violate, "product state is dead on both sides"
        if not can_violate:
            outputs.append(Verdict.TOP)
        elif not can_satisfy:
            outputs.append(Verdict.BOT)
        else:
            outputs.append(Verdict.UNKNOWN)
        row = []
        for k in range(len(alphabet)):
            target = (pos.delta[qp][k], neg.delta[qn][k])
            if target not in ids:
                ids[target] = len(pairs)
                pairs.append(target)
            row.append(ids[target])
        delta.append(row)
    return MooreMonitor(alphabet, len(pairs), 0, delta, outputs)
