"""Shared test utilities: formula generators, the synthesis families and
equivalent rewrites of formulas, word families, golden machines, a second,
deliberately naive semantics evaluator used to cross-check the fixpoint
one, machine isomorphism, equivalence and a forward reachability check, the
rule by which a formula's automaton decides every verdict alone, and the
plain route that synthesis is checked against: the canonical subformula
order, a state-based GPVW tableau over it, per-state emptiness from its
definition, the subset construction and a pair-per-state product; the
product over raw subset bitsets that synthesis's numbered side tables are
checked against; the product over pairs of both sides' ids that its
one-sided exploration is checked against; and the tableau's plain prefix
fold, which its shortcut for X obligations is checked against.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from partmon.buchi import Nba, _product, _tableau, _walk
from partmon.fsm import (
    MooreMonitor,
    Verdict,
    _live_subsets,
    _scan,
    minimize_moore,
    per_state_nonempty,
    synthesize_monitor,
)
from partmon.graphs import bits, explore, reachable_from
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
    children,
    negate_nnf,
    nnf,
    parse_formula,
    validate_formula,
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


def next_heavy_formula(rng: random.Random, depth: int, names=NAMES3) -> Formula:
    """Random formula of nesting depth at most ``depth`` in which half the
    operators are X, so that tableau states owe X obligations beside
    others."""
    if depth == 0 or rng.random() < 0.15:
        return Atom(rng.choice(names))
    if rng.random() < 0.5:
        return Next(next_heavy_formula(rng, depth - 1, names))
    op = rng.choice(_BINARY_OPS + (Not, Eventually, Always))
    if op in _UNARY_OPS:
        return op(next_heavy_formula(rng, depth - 1, names))
    return op(next_heavy_formula(rng, depth - 1, names), next_heavy_formula(rng, depth - 1, names))


def family_formulas() -> list[tuple[Formula, Alphabet]]:
    """The synthesis families over their alphabets: radiation, resp-2/3,
    <>(a & X^k b) for k = 4..10 and the conjunction of []<>e_i for n = 2..5."""
    rad = "rad_low U ((rad_high & <>mv_dec) | (rad_medium & []<>(insp_t1 | insp_t2)))"
    cases = [(rad, ["rad_low", "rad_high", "rad_medium", "mv_dec", "insp_t1", "insp_t2"])]
    for n in (2, 3):
        events = [e for i in range(n) for e in (f"r{i}", f"g{i}")] + ["idle"]
        cases.append((" & ".join(f"[](r{i} -> <>g{i})" for i in range(n)), events))
    cases += [("<>(a & " + "X " * k + "b)", ["a", "b", "c"]) for k in range(4, 11)]
    for n in range(2, 6):
        events = [f"e{i}" for i in range(n)] + ["z"]
        cases.append((" & ".join(f"[]<>e{i}" for i in range(n)), events))
    return [(parse_formula(text, Alphabet(events)), Alphabet(events)) for text, events in cases]


def _root_rewrites(phi: Formula) -> list[Formula]:
    """Formulas with the models of ``phi``, each by one rewrite at its root:
    ``!!f``; ``&`` and ``|`` commuted and by De Morgan; ``l -> r`` as
    ``!l | r``; ``<>f`` as ``true U f`` and as ``<><>f``; ``[]f`` as
    ``false R f`` and as ``!<>!f``; ``l U r`` as ``r | (l & X(l U r))``;
    ``l R r`` as ``!(!l U !r)``."""
    rewrites = [Not(Not(phi))]
    op = phi.__class__
    if op is And or op is Or:
        dual = Or if op is And else And
        rewrites += [op(phi.right, phi.left), Not(dual(Not(phi.left), Not(phi.right)))]
    elif op is Implies:
        rewrites.append(Or(Not(phi.left), phi.right))
    elif op is Eventually:
        rewrites += [Until(TRUE, phi.arg), Eventually(phi)]
    elif op is Always:
        rewrites += [Release(FALSE, phi.arg), Not(Eventually(Not(phi.arg)))]
    elif op is Until:
        rewrites.append(Or(phi.right, And(phi.left, Next(phi))))
    elif op is Release:
        rewrites.append(Not(Until(Not(phi.left), Not(phi.right))))
    return rewrites


def equivalent_rewrite(rng: random.Random, phi: Formula) -> Formula:
    """A formula with the models of ``phi``: bottom up, each node, its
    operands rewritten first, is replaced with probability 1/2 by one of
    its root rewrites, drawn uniformly."""
    kids = children(phi)
    if kids:
        phi = phi.__class__(*(equivalent_rewrite(rng, kid) for kid in kids))
    if rng.random() < 0.5:
        phi = rng.choice(_root_rewrites(phi))
    return phi


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


# s2 (TOP) and s3 (give-up) have edges back to undecided states; a session that
# reaches either must stay there.
LEAKY_FINALS_PMF = """\
PMF 1
ALPHABET ev1 ev2 ev3
INITIAL s0
STATE s0 ?
STATE s1 ?
STATE s2 TOP
STATE s3 x
TRANS s0 ev1 s2
TRANS s0 ev2 s3
TRANS s0 ev3 s1
TRANS s1 ev1 s0
TRANS s1 ev2 s1
TRANS s1 ev3 s2
TRANS s2 ev1 s0
TRANS s2 ev2 s1
TRANS s2 ev3 s3
TRANS s3 ev1 s0
TRANS s3 ev2 s1
TRANS s3 ev3 s2
"""


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

def eventually_ev1_machine() -> MooreMonitor:
    """Monitor for 'F ev1' over {ev1, ev2, ev3}: inconclusive start, TOP sink."""
    return MooreMonitor(
        ALPHA3,
        2,
        0,
        [[1, 0, 0], [1, 1, 1]],
        [Verdict.UNKNOWN, Verdict.TOP],
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
    return MooreMonitor(ALPHA4, 5, 0, delta, outputs)


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
    return MooreMonitor(RADIATION_ALPHA, 5, 0, delta, outputs)


def giveup_only_machine(alphabet: Alphabet | None = None) -> MooreMonitor:
    """Single give-up state looping on every event."""
    alphabet = alphabet or ALPHA3
    return MooreMonitor(alphabet, 1, 0, [[0] * len(alphabet)], [Verdict.GIVEUP])


def three_valued_machines(seed: int, count: int = 30) -> list[MooreMonitor]:
    """Machines as synthesis leaves them, before give-up labelling: the two
    hand-written ones, then ``count`` seeded unminimized ones.  Every other
    formula has a branch through a recurrence, so that many machines have
    undecided states that can never conclude."""
    rng = random.Random(seed)
    machines = [eventually_ev1_machine(), mixed_branches_machine()]
    for i in range(count):
        phi = random_formula(rng, 4)
        if i % 2:
            late = And(Atom(rng.choice(NAMES3)), Always(Eventually(Atom(rng.choice(NAMES3)))))
            phi = Or(random_formula(rng, 3), Until(phi, late))
        machines.append(synthesize_monitor(phi, ALPHA3, minimize=False))
    return machines


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


def moore_equivalent(first: MooreMonitor, second: MooreMonitor) -> bool:
    """Equal outputs on every trace: a breadth-first search over the pairs
    of states one trace reaches in both machines, from the initial pair,
    finds no pair whose outputs differ."""
    if first.alphabet != second.alphabet:
        return False
    seen = {(first.initial, second.initial)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        if first.outputs[p] is not second.outputs[q]:
            return False
        for pair in zip(first.delta[p], second.delta[q]):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def decides_alone(nba: Nba) -> bool:
    """Whether synthesis builds the monitor from this formula side alone:
    it has one initial state, and each live state, looping or not, reads
    each event on one edge to a live state at most."""
    if len(nba.initial) > 1:
        return False
    live = per_state_nonempty(nba)
    for q in live:
        read = 0
        for guard, dst, _ in nba.edges[q]:
            if dst in live:
                if guard & read:
                    return False
                read |= guard
    return True


def live_subsets(nba: Nba):
    """:func:`partmon.fsm._live_subsets` of the automaton's live states, as
    synthesis builds it: from one :func:`partmon.fsm._scan` of them."""
    live = per_state_nonempty(nba)
    return _live_subsets(nba, live, _scan(nba, live))


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


# --- state-based automata and the reference tableau ----------------------------

def _state_marked(alphabet, initial, successor_masks, accepting_sets, obligations) -> Nba:
    """The transition-based form of a state-based generalized Büchi
    automaton: every edge leaving a state of acceptance set i carries mark i,
    so a run takes mark i infinitely often iff it visits set i infinitely
    often."""
    edges = []
    for q, row in enumerate(successor_masks):
        marks = sum(1 << i for i, states in enumerate(accepting_sets) if q in states)
        guards: dict[int, int] = {}
        for k, mask in enumerate(row):
            for dst in bits(mask):
                guards[dst] = guards.get(dst, 0) | 1 << k
        edges.append([(guard, dst, marks) for dst, guard in sorted(guards.items())])
    return Nba(alphabet, initial, edges, len(accepting_sets), obligations)


def state_nba(alphabet, n, initial, transitions, accepting_sets) -> Nba:
    """An ``n``-state automaton from ``(src, event, dst)`` transitions, whose
    runs are accepting iff they visit every set of ``accepting_sets``
    infinitely often.  ``obligations[q]`` is ``1 << q``, which relates no two
    distinct states."""
    masks = [[0] * len(alphabet) for _ in range(n)]
    for src, event, dst in transitions:
        masks[src][alphabet.index(event)] |= 1 << dst
    return _state_marked(alphabet, initial, masks, accepting_sets, [1 << q for q in range(n)])


def _gpvw_sugar(phi: Formula) -> Formula:
    """Rewrite F/G into their Until/Release definitions for the tableau."""
    if isinstance(phi, Eventually):
        return Until(TRUE, _gpvw_sugar(phi.arg))
    if isinstance(phi, Always):
        return Release(FALSE, _gpvw_sugar(phi.arg))
    if isinstance(phi, (TrueFormula, FalseFormula, Atom)):
        return phi
    if isinstance(phi, Not):
        return Not(_gpvw_sugar(phi.arg))
    if isinstance(phi, Next):
        return Next(_gpvw_sugar(phi.arg))
    if isinstance(phi, And):
        return And(_gpvw_sugar(phi.left), _gpvw_sugar(phi.right))
    if isinstance(phi, Or):
        return Or(_gpvw_sugar(phi.left), _gpvw_sugar(phi.right))
    if isinstance(phi, Until):
        return Until(_gpvw_sugar(phi.left), _gpvw_sugar(phi.right))
    if isinstance(phi, Release):
        return Release(_gpvw_sugar(phi.left), _gpvw_sugar(phi.right))
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


def subformulas(phi: Formula) -> list[Formula]:
    """All distinct subformulas in left-to-right postorder (children first).
    For a formula in negation normal form this is the order in which the
    tableau's walk numbers its obligations."""
    out: dict[Formula, None] = {}

    def walk(f: Formula) -> None:
        if f not in out:
            for c in children(f):
                walk(c)
            out[f] = None

    walk(phi)
    return list(out)


def is_nnf(phi: Formula) -> bool:
    """Whether ``phi`` is in negation normal form: no implication, and
    negation only on atoms."""
    return not any(
        isinstance(f, Implies) or (isinstance(f, Not) and not isinstance(f.arg, Atom))
        for f in subformulas(phi)
    )


def gpvw_nba(phi: Formula, alphabet: Alphabet) -> Nba:
    """The state-based GPVW tableau of ``phi``, an NNF formula: the
    independent reference for :func:`partmon.buchi.ltl_to_nba`.

    State 0 owes the goal; every other state is a finished tableau node,
    keyed by its (old, next) obligation sets, with one acceptance set per
    Until subformula.  It shares no construction code with the package's
    transition-based tableau.
    """
    validate_formula(phi, alphabet)
    if not is_nnf(phi):
        raise ValueError("formula must be in negation normal form")
    goal = _gpvw_sugar(phi)

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
    return _state_marked(alphabet, [0], masks, accepting_sets, owes)



# --- plain synthesis route --------------------------------------------------------

def reference_nonempty(nba: Nba) -> frozenset[int]:
    """States with a nonempty omega-language, straight from the definition.

    A state is live iff it reaches a state ``u`` whose class of mutually
    reachable states (the states ``u`` reaches that reach ``u`` back) has an
    internal edge and carries every mark on its internal edges.  One search
    per state, so quadratic: for tests only.
    """
    successors = [[dst for _, dst, _ in row] for row in nba.edges]
    reach = [reachable_from(successors, [q]) for q in range(nba.num_states)]
    every_mark = (1 << nba.num_marks) - 1
    accepting = set()
    for u, reached in enumerate(reach):
        mutual = {v for v in reached if u in reach[v]}
        internal = False
        carried = 0
        for v in mutual:
            for _, w, marks in nba.edges[v]:
                if w in mutual:
                    internal = True
                    carried |= marks
        if internal and carried == every_mark:
            accepting.add(u)
    return frozenset(q for q, reached in enumerate(reach) if not accepting.isdisjoint(reached))


def successors(nba: Nba, state: int, event: str) -> tuple[int, ...]:
    """The targets, in increasing order, of the edges from ``state`` reading ``event``."""
    event_bit = 1 << nba.alphabet.index(event)
    return tuple(sorted({dst for guard, dst, _ in nba.edges[state] if guard & event_bit}))


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
    live = reference_nonempty(nba)
    start = frozenset(nba.initial)
    ids = {start: 0}
    subsets = [start]
    delta = []
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        row = []
        for event in nba.alphabet:
            target = frozenset(dst for q in subset for dst in successors(nba, q, event))
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
        current = {dst for q in current for dst in successors(nba, q, event)}
    return bool(current & reference_nonempty(nba))


def reference_monitor(phi: Formula, alphabet: Alphabet) -> MooreMonitor:
    """The unminimized three-valued monitor by the plain route: build both
    sides with the reference tableau, determinize them and take their
    synchronous product, one state per pair."""
    pos = determinize(gpvw_nba(nnf(phi), alphabet))
    neg = determinize(gpvw_nba(negate_nnf(phi), alphabet))
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


# --- the product over raw subset bitsets ---------------------------------------

def bitset_subsets(automaton: Nba):
    """The antichain-cut subset construction over the live states, kept on
    raw bitsets: the reference for :func:`partmon.fsm._live_subsets`' ids.

    Returns the initial subset and a function from a subset to its successor
    subset per event.  Each state's live successors on every event are
    packed into one integer, event k in bits k*n .. k*n+n-1.  A looping
    state has, on every event, a live successor owing a subset of its
    obligations.  A cut subset holding a looping state is the marker -1; 0
    and -1 step to themselves.
    """
    live = sum(1 << q for q in per_state_nonempty(automaton))
    n = automaton.num_states
    lanes = range(0, n * len(automaton.alphabet), n)
    packed = [0] * n
    for q, row in enumerate(automaton.edges):
        for guard, dst, _ in row:
            if live >> dst & 1:
                for k in bits(guard):
                    packed[q] |= 1 << (k * n + dst)
    owes = automaton.obligations
    looping = 0
    for q in range(n):
        weaker = sum(1 << p for p in range(n) if not owes[p] & ~owes[q])
        if all(packed[q] >> lane & weaker for lane in lanes):
            looping |= 1 << q
    rank = [owed.bit_count() * n + q for q, owed in enumerate(owes)]

    def reduce_subset(subset: int) -> int:
        got = 0
        kept: list[int] = []
        for q in sorted(bits(subset), key=rank.__getitem__):
            owed = owes[q]
            if not any(not other & ~owed for other in kept):
                kept.append(owed)
                got |= 1 << q
        return -1 if got & looping else got

    def row(subset: int) -> tuple[int, ...]:
        if subset <= 0:
            return (subset,) * len(lanes)
        union = 0
        for q in bits(subset):
            union |= packed[q]
        return tuple(reduce_subset((union >> lane) & live) for lane in lanes)

    return reduce_subset(sum(1 << q for q in automaton.initial) & live), row


def bitset_monitor(phi: Formula, alphabet: Alphabet, minimize: bool = True) -> MooreMonitor:
    """The three-valued monitor from :func:`bitset_subsets`' two sides, by
    the product :func:`partmon.fsm.synthesize_monitor` explores, with pairs
    of raw bitsets where it pairs ids."""
    pos_start, pos_row = bitset_subsets(_tableau(phi, alphabet, False))
    if pos_start == 0:
        return MooreMonitor(alphabet, 1, 0, [[0] * len(alphabet)], [Verdict.BOT])
    neg_start, neg_row = bitset_subsets(_tableau(phi, alphabet, True))

    def key(pos: int, neg: int) -> tuple[int, int]:
        if pos and neg:
            return (pos, neg)
        assert pos or neg, "product state is dead on both sides"
        return (-1, 0) if pos else (0, -1)

    pairs, delta = explore(
        [key(pos_start, neg_start)], lambda pair: map(key, pos_row(pair[0]), neg_row(pair[1]))
    )
    outputs = [
        Verdict.TOP if neg == 0 else Verdict.BOT if pos == 0 else Verdict.UNKNOWN
        for pos, neg in pairs
    ]
    machine = MooreMonitor(alphabet, len(pairs), 0, delta, outputs)
    return minimize_moore(machine) if minimize else machine


# --- the product over pairs of side ids ----------------------------------------

def pair_product(phi: Formula, alphabet: Alphabet) -> tuple[MooreMonitor, tuple[int, int]]:
    """The unminimized monitor by exploring pairs of both sides'
    :func:`partmon.fsm._live_subsets` ids, whatever the sides start at: the
    reference for :func:`partmon.fsm.synthesize_monitor`, which explores a
    side alone when the other starts at the never-empty marker -1, and
    which builds no pairs either when the formula side decides every
    verdict alone (:func:`decides_alone`).

    Returns the machine and the two sides' start ids, the negation's None
    when no word satisfies ``phi`` and it is not built."""
    pos = _tableau(phi, alphabet, False)
    pos_start, pos_row, _ = live_subsets(pos)
    if pos_start == 0:
        return MooreMonitor(alphabet, 1, 0, [[0] * len(alphabet)], [Verdict.BOT]), (0, None)
    neg = _tableau(phi, alphabet, True)
    neg_start, neg_row, _ = live_subsets(neg)

    def key(pos: int, neg: int) -> tuple[int, int]:
        assert pos or neg, "product state is dead on both sides"
        if pos and neg:
            return (pos, neg)
        return (-1, 0) if pos else (0, -1)

    pairs, delta = explore(
        [key(pos_start, neg_start)], lambda pair: map(key, pos_row(pair[0]), neg_row(pair[1]))
    )
    outputs = [
        Verdict.TOP if neg == 0 else Verdict.BOT if pos == 0 else Verdict.UNKNOWN
        for pos, neg in pairs
    ]
    return MooreMonitor(alphabet, len(pairs), 0, delta, outputs), (pos_start, neg_start)


# --- the tableau's plain prefix fold -------------------------------------------

def prefix_fold_tableau(phi: Formula, alphabet: Alphabet, negated: bool) -> Nba:
    """The tableau of ``phi``, or of its negation, with every state's row
    the product of the move lists of everything it owes, X obligations
    included, folded lowest obligation first: the reference for
    :func:`partmon.buchi._tableau`, which ORs X obligations' operands into a
    shared row instead."""
    moves, goal, untils, _ = _walk(phi, alphabet, negated)
    stay = [((1 << len(alphabet)) - 1, 0, 0)]
    products = {0: stay}

    def row_of(owed: int) -> list[tuple[int, int, int]]:
        prefix, row = 0, stay
        for i in bits(owed):
            prefix |= 1 << i
            if prefix not in products:
                products[prefix] = _product(row, moves[i])
            row = products[prefix]
        return row

    owes, targets = explore([1 << goal], lambda owed: [nxt for _, nxt, _ in row_of(owed)])
    all_marks = (1 << untils) - 1
    edges = [
        [(guard, dst, all_marks ^ pending) for (guard, _, pending), dst in zip(row_of(owed), row)]
        for owed, row in zip(owes, targets)
    ]
    return Nba(alphabet, [0], edges, untils, owes)
