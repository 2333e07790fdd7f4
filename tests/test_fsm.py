"""Prefix automata and Moore-machine synthesis."""

import copy
import gc
import hashlib
import json
import pickle
import random

import pytest

import partmon.buchi as buchi
import partmon.fsm as fsm
import partmon.partial
from partmon.buchi import Nba, _tableau, ltl_to_nba, nba_accepts_lasso
from partmon.formats import emit_monitor, parse_monitor
from partmon.fsm import (
    MooreMonitor,
    Verdict,
    minimize_moore,
    monitor_verdict,
    per_state_nonempty,
    synthesize_monitor,
)
from partmon.graphs import bits, can_reach, reachable_from
from partmon.ltl import (
    MAX_FORMULA_DEPTH,
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    FormulaTooDeepError,
    Implies,
    LassoWord,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    UnknownAtomError,
    UnknownEventError,
    Until,
    lasso_eval,
    negate_nnf,
    nnf,
    parse_formula,
)
from partmon.partial import classify, partialize

from helpers import (
    ALPHA3,
    ALPHA4,
    NAMES3,
    RADIATION_ALPHA,
    RADIATION_FORMULA,
    all_lassos,
    all_words,
    bitset_monitor,
    bitset_subsets,
    decides_alone,
    determinize,
    equivalent_rewrite,
    eventually_ev1_machine,
    family_formulas,
    is_nnf,
    live_subsets,
    mixed_branches_machine,
    moore_equivalent,
    moore_isomorphic,
    next_heavy_formula,
    pair_product,
    prefix_accepts,
    prefix_fold_tableau,
    radiation_machine,
    random_formula,
    reachability_oracle,
    reference_monitor,
    reference_nonempty,
    state_nba,
    successors,
)


# --- per-state emptiness ------------------------------------------------------

def test_per_state_nonempty_eventually_all_states():
    nba = ltl_to_nba(parse_formula("F ev1", ALPHA3), ALPHA3)
    assert per_state_nonempty(nba) == frozenset(range(nba.num_states))
    # confirm by sampling: from every state taken as initial, some lasso is accepted
    family = all_lassos(NAMES3, 2, 2)
    for state in range(nba.num_states):
        shifted = Nba(ALPHA3, [state], nba.edges, nba.num_marks, nba.obligations)
        assert any(nba_accepts_lasso(shifted, w) for w in family)


def test_per_state_nonempty_isolated_accepting_state():
    nba = state_nba(ALPHA3, 1, [0], [], ({0},))  # accepting but no transitions
    assert per_state_nonempty(nba) == frozenset()


def test_per_state_nonempty_accepting_self_loop():
    nba = state_nba(ALPHA3, 2, [0], [(0, "ev1", 1), (1, "ev1", 1)], ({1},))
    assert per_state_nonempty(nba) == frozenset({0, 1})


def test_per_state_nonempty_needs_every_acceptance_set():
    """State 1 loops inside the first set only, state 2 inside both: only
    the branch into state 2 is live."""
    edges = [(0, "ev1", 1), (1, "ev1", 1), (0, "ev2", 2), (2, "ev2", 2)]
    nba = state_nba(ALPHA3, 3, [0], edges, ({1, 2}, {2}))
    assert per_state_nonempty(nba) == frozenset({0, 2})
    # one SCC that meets the two sets in different states is live
    cycle = state_nba(ALPHA3, 2, [0], [(0, "ev1", 1), (1, "ev1", 0)], ({0}, {1}))
    assert per_state_nonempty(cycle) == frozenset({0, 1})
    # without acceptance sets any cycle will do, but a dead end will not
    free = state_nba(ALPHA3, 3, [0], [(0, "ev1", 1), (1, "ev1", 1), (0, "ev2", 2)], ())
    assert per_state_nonempty(free) == frozenset({0, 1})


def test_per_state_nonempty_matches_lasso_membership():
    """A generalized automaton's live states are those from which some lasso
    is accepted, on random formulas with several Until subformulas."""
    rng = random.Random(0x1DE)
    family = all_lassos(NAMES3, 2, 2)
    for _ in range(15):
        nba = ltl_to_nba(nnf(random_formula(rng, 3)), ALPHA3)
        live = per_state_nonempty(nba)
        for state in range(nba.num_states):
            shifted = Nba(ALPHA3, [state], nba.edges, nba.num_marks, nba.obligations)
            assert any(nba_accepts_lasso(shifted, w) for w in family) == (state in live)


def test_per_state_nonempty_matches_the_definition():
    """The fixpoint's live states are those the definition-based reference
    finds, on both sides of the families, the 200-formula corpus and 300
    deeper random draws."""
    cases = family_formulas()
    rng = random.Random(0xACCE55)
    cases += [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    rng = random.Random(7)
    cases += [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    for phi, alphabet in cases:
        for side, formula in (("formula", nnf(phi)), ("negation", negate_nnf(phi))):
            nba = ltl_to_nba(formula, alphabet)
            assert per_state_nonempty(nba) == reference_nonempty(nba), (phi, side)


# --- prefixes with a continuation (plain reference route) -------------------------

def test_nfa_of_eventually_accepts_every_prefix():
    nba = ltl_to_nba(parse_formula("F ev1", ALPHA3), ALPHA3)
    for word in all_words(NAMES3, 3):
        assert prefix_accepts(nba, word), word


def test_nfa_of_false_accepts_nothing():
    nba = ltl_to_nba(parse_formula("false", ALPHA3), ALPHA3)
    for word in all_words(NAMES3, 3):
        assert not prefix_accepts(nba, word)


def test_nfa_of_atom_prefixes():
    # 'ev1' holds iff the first event is ev1; the empty prefix is extendable.
    nba = ltl_to_nba(parse_formula("ev1", ALPHA3), ALPHA3)
    assert prefix_accepts(nba, ())
    for word in all_words(NAMES3, 2):
        if not word:
            continue
        assert prefix_accepts(nba, word) == (word[0] == "ev1"), word


# --- determinization (plain reference route) ------------------------------------

def test_determinize_universal_nfa():
    universal = state_nba(ALPHA3, 1, [0], [(0, e, 0) for e in NAMES3], ())
    dfa = determinize(universal)
    assert dfa.num_states == 1
    assert dfa.finals == frozenset({0})
    assert dfa.delta == [[0, 0, 0]]
    machine = synthesize_monitor(parse_formula("true", ALPHA3), ALPHA3)
    assert machine.outputs == (Verdict.TOP,)


def test_determinize_empty_language_nfa():
    empty = state_nba(ALPHA3, 1, [0], [(0, e, 0) for e in NAMES3], ({0}, ()))
    dfa = determinize(empty)
    assert dfa.num_states == 1
    assert dfa.finals == frozenset()
    machine = synthesize_monitor(parse_formula("false", ALPHA3), ALPHA3)
    assert machine.outputs == (Verdict.BOT,)


def test_determinize_no_ev1_prefixes():
    """The negation side of 'F ev1' accepts exactly the ev1-free prefixes,
    so the monitor is TOP exactly after an ev1."""
    phi = parse_formula("F ev1", ALPHA3)
    dfa = determinize(ltl_to_nba(negate_nnf(phi), ALPHA3))
    machine = synthesize_monitor(phi, ALPHA3, minimize=False)
    for word in all_words(NAMES3, 4):
        state = dfa.initial
        for event in word:
            state = dfa.step(state, event)
        assert (state in dfa.finals) == ("ev1" not in word), word
        assert (monitor_verdict(machine, word) is Verdict.TOP) == ("ev1" in word), word


def test_determinized_delta_is_total():
    rng = random.Random(5)
    for _ in range(20):
        phi = random_formula(rng, 3)
        dfa = determinize(ltl_to_nba(nnf(phi), ALPHA3))
        assert len(dfa.delta) == dfa.num_states
        for row in dfa.delta:
            assert len(row) == len(ALPHA3)
        machine = synthesize_monitor(phi, ALPHA3, minimize=False)
        for row in machine.delta:
            assert len(row) == len(ALPHA3)


# --- differential check against the plain route -----------------------------------

GOLDEN_FORMULAS = [
    ("(ev1 & <>ev2) | (ev3 & []<>ev4)", ALPHA4),
    ("<>ev1", ALPHA3),
    ("[]<>ev1", ALPHA3),
    (RADIATION_FORMULA, RADIATION_ALPHA),
]


def _pmf(machine: MooreMonitor) -> str:
    return emit_monitor(partialize(machine))


def test_minimal_pmf_matches_the_plain_route():
    rng = random.Random(0xD1FF)
    cases = [(random_formula(rng, 4), ALPHA3) for _ in range(60)]
    cases += [(parse_formula(text, alpha), alpha) for text, alpha in GOLDEN_FORMULAS]
    for phi, alpha in cases:
        expected = _pmf(minimize_moore(reference_monitor(phi, alpha)))
        assert _pmf(synthesize_monitor(phi, alpha)) == expected, phi


def test_fused_product_verdicts_match_the_plain_product():
    rng = random.Random(0xF05E)
    words = all_words(NAMES3, 5)
    for _ in range(30):
        phi = random_formula(rng, 4)
        fused = synthesize_monitor(phi, ALPHA3, minimize=False)
        plain = reference_monitor(phi, ALPHA3)
        assert fused.num_states <= plain.num_states
        for word in words:
            assert monitor_verdict(fused, word) is monitor_verdict(plain, word), (phi, word)


def test_fused_product_has_one_sink_per_conclusive_verdict():
    rng = random.Random(0x5171)
    for _ in range(30):
        machine = synthesize_monitor(random_formula(rng, 4), ALPHA3, minimize=False)
        for verdict in (Verdict.TOP, Verdict.BOT):
            states = [q for q in machine.states() if machine.outputs[q] is verdict]
            assert len(states) <= 1
            for q in states:
                assert set(machine.delta[q]) == {q}


def test_response_blowup_case_synthesizes_to_one_state():
    """resp-4, the conjunction of four response properties, is non-monitorable
    and minimizes to one give-up state.  A regression case for the subset
    blow-up: a degeneralized automaton made this take tens of seconds."""
    from partmon.partial import Monitorability

    text = " & ".join(f"[](r{i} -> <>g{i})" for i in range(4))
    alpha = Alphabet([e for i in range(4) for e in (f"r{i}", f"g{i}")])
    machine = partialize(synthesize_monitor(parse_formula(text, alpha), alpha))
    assert machine.num_states == 1
    assert classify(machine).classification is Monitorability.NON_MONITORABLE


# --- antichain subsets -----------------------------------------------------------

ABC = Alphabet(["a", "b", "c"])


@pytest.mark.parametrize("k", [*range(4, 9), 12])
def test_antichain_product_of_next_chain(k):
    """<>(a & X^k b): the negation side's subsets keep only their weakest
    tableau states, so the product is already the minimal machine."""
    phi = parse_formula("<>(a & " + "X " * k + "b)", ABC)
    assert synthesize_monitor(phi, ABC, minimize=False).num_states == 2 ** k + 1
    assert synthesize_monitor(phi, ABC).num_states == 2 ** k + 1


def test_antichain_product_of_radiation():
    """The rad_medium branch's formula side holds a looping state once
    []<>(insp_t1 | insp_t2) is owed, so that side is no longer stepped."""
    phi = parse_formula(RADIATION_FORMULA, RADIATION_ALPHA)
    assert synthesize_monitor(phi, RADIATION_ALPHA, minimize=False).num_states == 5


# --- one-sided products ---------------------------------------------------------

def test_a_side_starting_at_minus_one_gives_the_pair_product():
    """Synthesis explores one side's table alone when the other side starts
    at the never-empty marker -1.  Its unminimized machine must have the
    rows and verdicts of the product over pairs of both sides' ids, on the
    families, the corpus, <>(a & X^k b) and [](a -> X^k b) for k <= 10,
    [](x -> <>[]y) for literals x and y over {a, b, c} and 300 depth-5
    draws, with each of the three ways (the formula side at -1,
    the negation side at -1, both sides live) taken at least 20 times by
    formulas whose formula side does not decide alone.  A formula side that
    decides alone builds another machine, which must give the product's
    verdict on every trace."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    for k in range(11):
        cases.append((parse_formula("<>(a & " + "X " * k + "b)", ABC), ABC))
        cases.append((parse_formula("[](a -> " + "X " * k + "b)", ABC), ABC))
    # Formula sides that do not decide alone, with a negation side at -1.
    literals = ["a", "b", "c", "!a", "!b", "!c"]
    cases += [(parse_formula(f"[]({x} -> <>[]{y})", ABC), ABC) for x in literals for y in literals]
    rng = random.Random(0xD16E57)
    cases += [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    ways = {"formula side -1": 0, "negation side -1": 0, "both live": 0}
    alone = 0
    for phi, alphabet in cases:
        expected, (pos_start, neg_start) = pair_product(phi, alphabet)
        machine = synthesize_monitor(phi, alphabet, minimize=False)
        if pos_start != 0 and decides_alone(_tableau(phi, alphabet, False)):
            assert moore_equivalent(machine, expected), phi
            alone += 1
            continue
        assert machine.delta == expected.delta, phi
        assert machine.outputs == expected.outputs, phi
        if pos_start == -1:
            ways["formula side -1"] += 1
        elif neg_start == -1:
            ways["negation side -1"] += 1
        elif pos_start > 0 and neg_start > 0:
            ways["both live"] += 1
    assert min(ways.values()) >= 20, ways
    assert alone >= 20, alone


# --- sides that can no longer empty --------------------------------------------

def test_a_subset_holding_a_looping_state_never_empties():
    """A looping state is a live state with, on every event, an edge to a
    live state owing a subset of its obligations.  On both sides of the
    families and the corpus, every subset the construction reaches is the
    antichain cut of its members' live successors, given as the marker -1
    exactly when the cut holds a looping state; and the plain subset
    construction from a looping state alone never reaches a subset without
    a live state.  Every live state with a self-loop on every event is
    looping, and some sides have more looping states than those."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    marked = searched = widened = 0
    for phi, alphabet in cases:
        for formula in (nnf(phi), negate_nnf(phi)):
            nba = ltl_to_nba(formula, alphabet)
            live = reference_nonempty(nba)
            owes = nba.obligations
            looping = {
                q
                for q in live
                if all(
                    any(p in live and not owes[p] & ~owes[q] for p in successors(nba, q, e))
                    for e in alphabet
                )
            }
            self_looping = {q for q in live if all(q in successors(nba, q, e) for e in alphabet)}
            assert self_looping <= looping, (phi, formula)
            widened += self_looping < looping

            def cut(states):
                members = set(states) & live
                kept = {
                    q
                    for q in members
                    if not any(
                        owes[p] | owes[q] == owes[q] and (owes[p] != owes[q] or p < q)
                        for p in members
                    )
                }
                return -1 if kept & looping else sum(1 << q for q in kept)

            start, row, subset_of = live_subsets(nba)
            assert subset_of(start) == cut(nba.initial)
            seen = {start}
            frontier = [start]
            while frontier:
                i = frontier.pop()
                subset = subset_of(i)
                for event, target in zip(alphabet, row(i)):
                    if subset < 0:
                        assert target == -1
                    else:
                        expected = cut(d for q in bits(subset) for d in successors(nba, q, event))
                        assert subset_of(target) == expected
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
            marked += -1 in seen
            for q in looping:
                alone = Nba(alphabet, [q], nba.edges, nba.num_marks, owes)
                dfa = determinize(alone)
                assert dfa.finals == frozenset(range(dfa.num_states)), (phi, formula, q)
                searched += 1
    assert searched > 100
    assert marked > 100
    assert widened > 0


# --- numbered side tables --------------------------------------------------------


def _widened_draws(count: int):
    """Depth-4 draws over the three named events, each over an alphabet
    widened with 0-20 events no formula names, in shuffled order."""
    rng = random.Random(0x31DE)
    for _ in range(count):
        phi = random_formula(rng, 4)
        events = [*NAMES3, *(f"u{i}" for i in range(rng.randint(0, 20)))]
        rng.shuffle(events)
        yield phi, Alphabet(events)


def test_numbered_side_tables_give_the_bitset_products():
    """Pairing each side's subset ids gives byte for byte the machines that
    pairing raw subset bitsets gives, minimized or not, on the families, the
    corpus, 300 depth-5 draws and 100 draws over widened alphabets.  Where
    the formula side decides alone, no pairs are built: the unminimized
    machine must give the bitset product's verdict on every trace, and the
    minimal machines must still be equal byte for byte."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    rng = random.Random(0xD16E57)
    cases += [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    cases += list(_widened_draws(100))
    paired = alone = 0
    for phi, alphabet in cases:
        pos = _tableau(phi, alphabet, False)
        if not pos.initial.isdisjoint(per_state_nonempty(pos)) and decides_alone(pos):
            machine = synthesize_monitor(phi, alphabet, minimize=False)
            assert moore_equivalent(machine, bitset_monitor(phi, alphabet, minimize=False)), phi
            numbered = emit_monitor(synthesize_monitor(phi, alphabet))
            assert numbered == emit_monitor(bitset_monitor(phi, alphabet)), phi
            alone += 1
            continue
        for minimize in (False, True):
            numbered = emit_monitor(synthesize_monitor(phi, alphabet, minimize=minimize))
            assert numbered == emit_monitor(bitset_monitor(phi, alphabet, minimize)), (phi, minimize)
        paired += 1
    assert min(paired, alone) >= 100, (paired, alone)


def _check_numbered_table(nba: Nba, label) -> list[int]:
    """Require ``live_subsets(nba)`` to number what
    :func:`bitset_subsets` cuts: no two ids reached from the start name
    equal subsets, and each id's row names the bitset construction's row of
    its subset, as its ``subset_of`` gives them.  A side that steps its own
    states (:func:`partmon.fsm._scan` is not None) reaches only 0, -1 and
    ids q + 1 of live states q, whose subset is ``{q}``.  On any other side
    the ids reached are 0, -1 and exactly 1..N, and no id beyond N has a
    subset.  Returns the subsets of the ids reached and 0, but -1, in id
    order."""
    start, row, subset_of = live_subsets(nba)
    bitset_start, bitset_row = bitset_subsets(nba)
    assert subset_of(0) == 0
    assert subset_of(-1) == -1
    assert subset_of(start) == bitset_start, label
    reached = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        targets = row(i)
        assert tuple(map(subset_of, targets)) == bitset_row(subset_of(i)), label
        for target in targets:
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    numbered = sorted((reached | {0}) - {-1})
    subsets = [subset_of(i) for i in numbered]
    assert len(set(subsets)) == len(subsets), label
    live = per_state_nonempty(nba)
    if fsm._scan(nba, live) is not None:
        assert set(numbered) <= {0} | {q + 1 for q in live}, label
        assert all(subset_of(i) == 1 << (i - 1) for i in numbered if i), label
    else:
        assert numbered == list(range(len(numbered))), label
        with pytest.raises(IndexError):  # no id is numbered beyond those reached
            subset_of(len(numbered))
    return subsets


def test_each_side_numbers_its_cut_subsets_once_and_densely():
    """:func:`_check_numbered_table` on both sides of the families, the
    corpus and the widened draws."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    cases += list(_widened_draws(100))
    for phi, alphabet in cases:
        for negated in (False, True):
            _check_numbered_table(_tableau(phi, alphabet, negated), (phi, negated))


def _two_member_automaton(low_owes: int, high_owes: int) -> Nba:
    """State 0 reads a into {1, 2}, which owe ``low_owes`` and
    ``high_owes``; each of them loops on b and returns to 0 on a."""
    edges = [[(0b01, 1, 0), (0b01, 2, 0)], [(0b10, 1, 0), (0b01, 0, 0)], [(0b10, 2, 0), (0b01, 0, 0)]]
    return Nba(Alphabet(["a", "b"]), [0], edges, 0, [0b100, low_owes, high_owes])


def _random_automaton(rng: random.Random) -> Nba:
    """Two to six states over one to three events, with at most one mark,
    random edges and initial states, and obligations drawn from the four
    subsets of two obligations, so that two members often owe equal,
    included or incomparable sets."""
    n = rng.randint(2, 6)
    alphabet = Alphabet(["a", "b", "c"][: rng.randint(1, 3)])
    marks = rng.randint(0, 1)
    everything = (1 << len(alphabet)) - 1
    edges = [
        [
            (rng.randint(1, everything), rng.randrange(n), rng.randint(0, marks))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(n)
    ]
    initial = rng.sample(range(n), rng.randint(1, min(3, n)))
    return Nba(alphabet, initial, edges, marks, [rng.randrange(4) for _ in range(n)])


def test_a_two_member_union_is_cut_as_the_rank_order_cuts_it():
    """A union of two live states is cut by two subset tests, not by the
    rank-sorted loop: the state owing a subset of the other's obligations
    stays alone, the lower-numbered one when they owe the same.  Hand-built
    automata whose two members owe equal sets, strict inclusions both ways
    and incomparable sets, and 300 random automata, must number exactly the
    subsets and rows of :func:`bitset_subsets`, which cuts every union by
    the loop.  Tableau states never share an obligation set, so only
    automata built by hand test a tie."""
    automata = [
        _two_member_automaton(low, high)
        for low, high in [(0b01, 0b01), (0b01, 0b11), (0b11, 0b01), (0b01, 0b10), (0, 0)]
    ]
    rng = random.Random(0x2C07)
    automata += [_random_automaton(rng) for _ in range(300)]
    kinds = {"equal": 0, "lower owes less": 0, "higher owes less": 0, "incomparable": 0}
    for nba in automata:
        subsets = _check_numbered_table(nba, nba.edges)
        live = reference_nonempty(nba)
        owes = nba.obligations
        for subset in subsets:
            for event in nba.alphabet:
                union = {d for q in bits(subset) for d in successors(nba, q, event)} & live
                if len(union) == 2:
                    low, high = (owes[q] for q in sorted(union))
                    if low == high:
                        kinds["equal"] += 1
                    elif low | high == high:
                        kinds["lower owes less"] += 1
                    elif low | high == low:
                        kinds["higher owes less"] += 1
                    else:
                        kinds["incomparable"] += 1
    assert min(kinds.values()) >= 20, kinds


def _behind_a_looping_state() -> Nba:
    """State 0 reads b back to itself and a into state 1, which is looping:
    on a it loops, on b it reads into state 2, which owes a subset of its
    obligations.  State 2 reads both events back to 0.  So 2 is live and
    reached only through the looping state."""
    edges = [[(0b01, 1, 0), (0b10, 0, 0)], [(0b01, 1, 0), (0b10, 2, 0)], [(0b11, 0, 0)]]
    return Nba(Alphabet(["a", "b"]), [0], edges, 0, [0b001, 0b110, 0b010])


def _with_dead_states() -> Nba:
    """States 0 and 1 take a marked edge infinitely often; 0 also reads ev2
    into state 2 and 1 reads ev3 into state 3, which never take a marked
    edge again, and 2 reads ev1 on two edges, to itself and to 3."""
    edges = [
        [(0b001, 1, 1), (0b010, 2, 0), (0b100, 0, 0)],
        [(0b011, 0, 0), (0b100, 3, 0)],
        [(0b111, 2, 0), (0b001, 3, 0)],
        [(0b111, 3, 0)],
    ]
    return Nba(ALPHA3, [0], edges, 1, [0b0001, 0b0010, 0b0100, 0b1000])


def _two_initial_states() -> Nba:
    """A three-state cycle on a, each state reading b to itself, that
    starts in both 0 and 1; every state alone reads one edge per event."""
    edges = [[(0b01, (q + 1) % 3, 0), (0b10, q, 0)] for q in range(3)]
    return Nba(Alphabet(["a", "b"]), [0, 1], edges, 0, [0b001, 0b010, 0b100])


def _nondeterministic_last() -> Nba:
    """A four-state cycle on a, each state reading b to itself, except that
    state 3, the last the pass meets, reads a into both 0 and 1."""
    edges = [[(0b01, q + 1, 0), (0b10, q, 0)] for q in range(3)]
    edges.append([(0b01, 0, 0), (0b01, 1, 0), (0b10, 3, 0)])
    return Nba(Alphabet(["a", "b"]), [0], edges, 0, [0b0001, 0b0010, 0b0100, 0b1000])


def _one_event() -> Nba:
    """A three-state cycle over the one event a."""
    edges = [[(0b1, (q + 1) % 3, 0)] for q in range(3)]
    return Nba(Alphabet(["a"]), [0], edges, 0, [0b001, 0b010, 0b100])


@pytest.mark.parametrize(
    "build, deterministic, numbered",
    [
        (_behind_a_looping_state, True, [0, 0b001]),
        (_with_dead_states, True, [0, 0b0001, 0b0010]),
        (_two_initial_states, False, None),
        (_nondeterministic_last, False, None),
        (_one_event, True, [0, 0b001, 0b010, 0b100]),
    ],
)
def test_a_deterministic_side_is_its_own_table(build, deterministic, numbered):
    """A side with one initial state whose live states that are not looping
    read each event on one live edge at most steps its own states, with no
    subset construction: state q is id q + 1, a looping state is the marker
    and the states behind it are not reached, and dead states are neither
    successors nor checked for an event read on two edges.  Two
    initial states, or one live state reading an event on two live edges,
    take the general construction, even when that state is the last the
    pass meets.  Either way the table numbers exactly what the bitset
    construction cuts."""
    nba = build()
    assert (fsm._scan(nba, per_state_nonempty(nba)) is not None) == deterministic
    subsets = _check_numbered_table(nba, build.__name__)
    if numbered is not None:
        assert subsets == numbered


# --- a formula side that decides alone --------------------------------------------

AB = Alphabet(["a", "b"])
_CLASSES = {0: "dead", -2: "universal", -1: "hopeless"}


def _decided_alone(nba: Nba):
    """:func:`partmon.fsm._decided_alone` of the automaton's live states,
    from one :func:`partmon.fsm._scan` of them, as synthesis calls it, as
    each state's class: its id 0 is dead, -2 universal, -1 hopeless, and
    any other id must be q + 1 for state q, whose class is ``?``.  None
    when the side does not decide alone."""
    live = per_state_nonempty(nba)
    decided = fsm._decided_alone(nba, live, fsm._scan(nba, live))
    if decided is None:
        return None
    assert all(i in _CLASSES or i == q + 1 for q, i in enumerate(decided)), (nba.edges, decided)
    return [_CLASSES.get(i, "?") for i in decided]


def _exits_without_marks() -> Nba:
    """No marks, so every infinite run accepts.  State 0 reads a back to
    itself, and also to the dead state 3, and b into 1, a dead end that
    reads a into the universal state 2 and b only into 3."""
    edges = [[(0b01, 0, 0), (0b01, 3, 0), (0b10, 1, 0)], [(0b01, 2, 0), (0b10, 3, 0)], [(0b11, 2, 0)], []]
    return Nba(AB, [0], edges, 0, [0b0001, 0b0010, 0b0100, 0b1000])


def _two_looping_states() -> Nba:
    """One mark.  State 0 reads a into 1, the state of []<>a, and b into 2,
    the state owing nothing under true.  Both loop on every event, but only
    2 is universal, and 1 can reach no verdict."""
    edges = [[(0b01, 1, 0), (0b10, 2, 0)], [(0b01, 1, 1), (0b10, 1, 0)], [(0b11, 2, 1)]]
    return Nba(AB, [0], edges, 1, [0b001, 0b010, 0b100])


def _two_marks_and_a_dead_end() -> Nba:
    """Two marks.  State 0 reads a into 1 with mark 0 and b into 2 with mark
    1; 1 reads both events back to 0, and 2 reads a back to 0 and b into 3,
    a dead end that reads a to itself with both marks.  So each of 0, 1 and
    2 goes round a cycle without one of the marks, and reaches 3."""
    edges = [[(0b01, 1, 0b01), (0b10, 2, 0b10)], [(0b11, 0, 0)], [(0b01, 0, 0), (0b10, 3, 0)], [(0b01, 3, 0b11)]]
    return Nba(AB, [0], edges, 2, [0b0001, 0b0010, 0b0100, 0b1000])


def _a_hopeless_region() -> Nba:
    """Two marks.  State 0 reads a into the universal state 3 and b into 1;
    1 reads b to itself with mark 1 and a into 2 with mark 0, and 2 reads
    both events back to 1, so 1 and 2 accept (aab)^ω but not b^ω, and
    reach no verdict."""
    edges = [[(0b01, 3, 0), (0b10, 1, 0)], [(0b10, 1, 0b10), (0b01, 2, 0b01)], [(0b11, 1, 0)], [(0b11, 3, 0b11)]]
    return Nba(AB, [0], edges, 2, [0b0001, 0b0010, 0b0100, 0b1000])


def _random_deterministic_automaton(rng: random.Random) -> Nba:
    """One to four states over {a, b} with up to two marks, each state
    reading each event on one edge at most, with random marks."""
    n = rng.randint(1, 4)
    marks = rng.randint(0, 2)
    edges = [
        [(1 << k, rng.randrange(n), rng.randrange(1 << marks)) for k in range(2) if rng.random() < 0.85]
        for _ in range(n)
    ]
    return Nba(AB, [0], edges, marks, [1 << q for q in range(n)])


def _random_automaton_with_a_mark_everywhere(rng: random.Random) -> Nba:
    """As :func:`_random_deterministic_automaton`, with two marks: one,
    drawn at random, is carried by every edge, and the other by each edge
    with probability 0.6, so some cycles lack it."""
    n = rng.randint(1, 4)
    everywhere = 1 << rng.randrange(2)

    def marks() -> int:
        return 0b11 if rng.random() < 0.6 else everywhere

    edges = [[(1 << k, rng.randrange(n), marks()) for k in range(2) if rng.random() < 0.85] for _ in range(n)]
    return Nba(AB, [0], edges, 2, [1 << q for q in range(n)])


def _brute_force_classes(nba: Nba) -> dict[int, str]:
    """Each reached state's class by lasso membership, for an automaton in
    which each word reaches one state at most that accepts some word.

    A lasso's run from a state runs its loop from the state its stem
    reaches, so every loop is run from every state: loops of 1 to n events,
    n the state count, for universality, and up to n events per mark for
    emptiness, as many as a cycle through an edge of each mark can need.
    A state is dead when no state it reaches accepts a loop, universal when
    every state it reaches accepts every loop of at most n events.  A word
    decides when the states it reaches are all dead or one is universal.
    Any other state is hopeless when no word of at most n events from it
    decides, and ``?`` when one does."""
    n = nba.num_states
    loops = [LassoWord((), word) for word in all_words(AB.symbols, n * max(1, nba.num_marks)) if word]
    short = 2 ** (n + 1) - 2  # the loops of 1 to n events come first
    accepts_some, accepts_short = [], []
    for q in range(n):
        rooted = Nba(AB, [q], nba.edges, nba.num_marks, nba.obligations)
        got = [nba_accepts_lasso(rooted, loop) for loop in loops[:short]]
        accepts_short.append(all(got))
        accepts_some.append(any(got) or any(nba_accepts_lasso(rooted, loop) for loop in loops[short:]))
    words = all_words(AB.symbols, n)

    def after(q: int, word) -> set[int]:
        states = {q}
        for event in word:
            states = {dst for p in states for dst in successors(nba, p, event)}
        return states

    reach = [set().union(*(after(q, word) for word in words)) for q in range(n)]
    dead = [not any(accepts_some[r] for r in reach[q]) for q in range(n)]
    universal = [all(accepts_short[r] for r in reach[q]) for q in range(n)]

    def decides(states: set[int]) -> bool:
        alive = [q for q in states if not dead[q]]
        assert len(alive) <= 1, (nba.edges, states)
        return not alive or universal[alive[0]]

    classes = {}
    for q in sorted(reach[0]):
        if dead[q]:
            classes[q] = "dead"
        elif universal[q]:
            classes[q] = "universal"
        elif any(decides(after(q, word)) for word in words):
            classes[q] = "?"
        else:
            classes[q] = "hopeless"
    return classes


@pytest.mark.parametrize(
    "build, expected",
    [
        (_exits_without_marks, {0: "?", 1: "?", 2: "universal", 3: "dead"}),
        (_two_looping_states, {0: "?", 1: "hopeless", 2: "universal"}),
        (_two_marks_and_a_dead_end, {0: "?", 1: "?", 2: "?", 3: "?"}),
        (_a_hopeless_region, {0: "?", 1: "hopeless", 2: "hopeless", 3: "universal"}),
    ],
)
def test_a_side_deciding_alone_classes_its_states_as_lassos_do(build, expected):
    """A strictly deterministic side, built by hand: every reached state's
    class (dead, universal, hopeless or ``?``) is the one lasso membership
    gives, on no marks, one mark and two, a dead end, universal states, a
    hopeless region, and two looping states of which one is universal."""
    nba = build()
    decided = _decided_alone(nba)
    assert decided is not None
    classes = {q: decided[q] for q in expected}
    assert classes == expected
    assert _brute_force_classes(nba) == expected


def test_random_sides_deciding_alone_class_their_states_as_lassos_do():
    """The same on 150 seeded random automata of at most four states over
    two events, each state reading each event on one edge at most, and on
    150 more with two marks, one of them on every edge, whose search for
    cycles without it is skipped, while the other is missing from some
    cycles.  In each group each class is met at least 40 times, and in
    the second at least 100 automata have a live edge and a mark on every
    live edge."""
    rng = random.Random(0xDEC1DE)
    for build in (_random_deterministic_automaton, _random_automaton_with_a_mark_everywhere):
        met = dict.fromkeys(["dead", "universal", "hopeless", "?"], 0)
        skipped = 0
        for _ in range(150):
            nba = build(rng)
            live = per_state_nonempty(nba)
            decided = _decided_alone(nba)
            assert decided is not None, nba.edges
            expected = _brute_force_classes(nba)
            assert {q: decided[q] for q in expected} == expected, nba.edges
            for got in expected.values():
                met[got] += 1
            carried = -1  # the marks every live edge carries
            for q in live:
                for _, dst, marks in nba.edges[q]:
                    if dst in live:
                        carried &= marks
            skipped += carried != -1 and carried & ((1 << nba.num_marks) - 1) != 0
        assert min(met.values()) >= 40, (build.__name__, met)
        if build is _random_automaton_with_a_mark_everywhere:
            assert skipped >= 100, skipped


def test_a_side_with_an_event_on_two_live_edges_does_not_decide_alone():
    """Two initial states, or a live state reading an event on two edges to
    live states, looping or not, send a side down the product."""
    looping_twice = Nba(AB, [0], [[(0b11, 0, 1), (0b01, 1, 1)], [(0b11, 1, 1)]], 1, [0b01, 0b10])
    for nba in (_two_initial_states(), _nondeterministic_last(), looping_twice):
        assert _decided_alone(nba) is None


def test_state_rows_step_each_state_to_its_live_successor():
    """On both sides of the families and the corpus where the scan finds a
    side that steps its own states, and on 300 seeded deterministic
    automata, each id's :func:`partmon.fsm._state_rows` row gives, per
    event, the id of the state's live successor as :func:`successors`
    finds it: -1 for a looping successor, q + 1 for any other successor q
    and 0 for none.  On a side that decides alone, the row gives the
    successor's id from :func:`partmon.fsm._decided_alone` instead.  Ids
    0, -1 and -2 step to themselves."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    automata = [_tableau(phi, alphabet, negated) for phi, alphabet in cases for negated in (False, True)]
    rng = random.Random(0x5747E)
    automata += [_random_deterministic_automaton(rng) for _ in range(300)]
    rows = strict = 0
    for nba in automata:
        live = per_state_nonempty(nba)
        scan = fsm._scan(nba, live)
        if scan is None:
            continue
        owes = nba.obligations

        def live_successors(q, event):
            return [dst for dst in successors(nba, q, event) if dst in live]

        looping = {
            q
            for q in live
            if all(any(not owes[d] & ~owes[q] for d in live_successors(q, e)) for e in nba.alphabet)
        }
        ids = scan[1]
        assert {q: ids[q] for q in live} == {q: -1 if q in looping else q + 1 for q in live}, nba.edges
        sides = [(ids, live - looping)]
        decided = fsm._decided_alone(nba, live, scan)
        if decided is not None:
            sides.append((decided, {q for q in live if decided[q] == q + 1}))
        for ids, stepped in sides:
            row = fsm._state_rows(nba, ids)
            for sink in (0, -1, -2):
                assert row(sink) == (sink,) * len(nba.alphabet)
            for q in stepped:
                expected = []
                for event in nba.alphabet:
                    got = live_successors(q, event)
                    assert len(got) <= 1, (nba.edges, q, event)
                    expected.append(ids[got[0]] if got else 0)
                assert row(q + 1) == tuple(expected), (nba.edges, q)
                rows += 1
                strict += ids is decided
    assert rows >= 5000 and strict >= 2000, (rows, strict)


def test_synthesized_machines_pass_the_public_constructors():
    """Synthesis builds its tableaux, products and minimal machines without
    the public constructors' checks; every family and corpus case's are
    accepted by them and rebuild equal, minimized or not, but for the mark
    that only minimize_moore sets, and partialize to equal machines."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    for phi, alphabet in cases:
        for negated in (False, True):
            nba = _tableau(phi, alphabet, negated)
            rebuilt = Nba(alphabet, nba.initial, nba.edges, nba.num_marks, nba.obligations)
            for field in Nba.__slots__:
                assert getattr(rebuilt, field) == getattr(nba, field), (phi, negated, field)
        for minimize in (False, True):
            machine = synthesize_monitor(phi, alphabet, minimize=minimize)
            rebuilt = MooreMonitor(
                alphabet, machine.num_states, machine.initial, machine.delta, machine.outputs
            )
            for field in MooreMonitor.__slots__:
                if field != "_minimal":
                    assert getattr(rebuilt, field) == getattr(machine, field), (phi, minimize, field)
            assert not rebuilt._minimal
            scanned, swept = partialize(machine), partialize(rebuilt)
            for field in ("num_states", "initial", "delta", "outputs"):
                assert getattr(swept, field) == getattr(scanned, field), (phi, minimize, field)


# --- give-up states of minimal machines -----------------------------------------

def _random_machine(rng: random.Random, verdicts) -> MooreMonitor:
    """1 to 8 states over 1 to 3 events, outputs drawn from ``verdicts``;
    a random spanning tree from state 0 makes every state reachable, and
    every other transition goes anywhere."""
    width, n = rng.randint(1, 3), rng.randint(1, 8)
    delta = [[rng.randrange(n) for _ in range(width)] for _ in range(n)]
    free = [(0, k) for k in range(width)]
    for q in range(1, n):
        p, k = free.pop(rng.randrange(len(free)))
        delta[p][k] = q
        free += [(q, k) for k in range(width)]
    outputs = [rng.choice(verdicts) for _ in range(n)]
    return MooreMonitor(Alphabet(NAMES3[:width]), n, 0, delta, outputs)


def test_partialize_scans_a_minimal_machine_as_the_sweep_labels_it(monkeypatch):
    """partialize finds the give-up state of a machine minimize_moore
    returned, with no GIVEUP output, by a scan of its rows, with no
    backward sweep; the same machine rebuilt by the public constructor is
    swept, and both must get the same labels.  Cases: the families, the
    corpus, <>(a & X^k b) and [](a -> X^k b) for k <= 10, 300 depth-5 draws,
    and 3,000 seeded random machines, minimized, a quarter of them with
    outputs drawn from all four verdicts, so that some have GIVEUP outputs
    and are swept too.  Each random machine, unminimized, must get the
    labels of a forward search from every state.  At least 100 cases with
    no GIVEUP output have a give-up state once partialized."""
    sweeps = []

    def counting_can_reach(adjacency, targets):
        sweeps.append(len(adjacency))
        return can_reach(adjacency, targets)

    monkeypatch.setattr(partmon.partial, "can_reach", counting_can_reach)

    def scanned_as_swept(machine: MooreMonitor) -> bool:
        rebuilt = MooreMonitor(
            machine.alphabet, machine.num_states, machine.initial, machine.delta, machine.outputs
        )
        sweeps.clear()
        scanned = partialize(machine)
        if Verdict.GIVEUP in machine.outputs:
            assert sweeps, machine.outputs
        elif Verdict.UNKNOWN in machine.outputs:
            assert not sweeps, machine.outputs
        sweeps.clear()
        swept = partialize(rebuilt)
        assert sweeps
        assert (swept.initial, swept.delta) == (rebuilt.initial, rebuilt.delta)
        assert swept.outputs == scanned.outputs, (machine.delta, machine.outputs)
        return Verdict.GIVEUP in scanned.outputs and Verdict.GIVEUP not in machine.outputs

    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    for k in range(11):
        cases.append((parse_formula("<>(a & " + "X " * k + "b)", ABC), ABC))
        cases.append((parse_formula("[](a -> " + "X " * k + "b)", ABC), ABC))
    rng = random.Random(0xD16E57)
    cases += [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    gave_up = sum(scanned_as_swept(synthesize_monitor(phi, alphabet)) for phi, alphabet in cases)

    rng = random.Random(0x5CA4)
    three, four = [Verdict.TOP, Verdict.BOT, Verdict.UNKNOWN, Verdict.UNKNOWN], list(Verdict)
    for i in range(3000):
        machine = _random_machine(rng, four if i % 4 == 3 else three)
        gave_up += scanned_as_swept(minimize_moore(machine))
        hopeless = [
            out is Verdict.UNKNOWN and not reachability_oracle(machine, q)
            for q, out in enumerate(machine.outputs)
        ]
        expected = [Verdict.GIVEUP if h else out for h, out in zip(hopeless, machine.outputs)]
        assert list(partialize(machine).outputs) == expected, (machine.delta, machine.outputs)
    assert gave_up >= 100, gave_up


def test_synthesis_leaves_no_reference_cycles():
    """Every table synthesis builds is freed by reference counting: with
    the cyclic garbage collector off, synthesizing, partializing,
    classifying and emitting the families and the corpus leaves it nothing
    to free."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for phi, alphabet in cases:
            machine = partialize(synthesize_monitor(phi, alphabet))
            classify(machine)
            emit_monitor(machine)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# --- minimization of a machine that is already minimal --------------------------


def _alternating_machine(initial: int) -> MooreMonitor:
    """States 0 and 1 swap on ev1; ev2 takes 0 to TOP (2) and 1 to BOT (3).
    Minimal, and numbered breadth-first from state 0."""
    return MooreMonitor(
        ALPHA3,
        4,
        initial,
        [[1, 2, 0], [0, 3, 1], [2, 2, 2], [3, 3, 3]],
        [Verdict.UNKNOWN, Verdict.UNKNOWN, Verdict.TOP, Verdict.BOT],
    )


def test_minimize_returns_a_minimal_canonically_numbered_machine_as_it_is():
    for machine in (radiation_machine(), _alternating_machine(0)):
        assert minimize_moore(machine) is machine
    for k in (4, 6):
        raw = synthesize_monitor(parse_formula("<>(a & " + "X " * k + "b)", ABC), ABC, minimize=False)
        assert minimize_moore(raw) is raw


@pytest.mark.parametrize(
    "machine",
    [_alternating_machine(1), mixed_branches_machine()],
    ids=["initial-1", "not-breadth-first"],
)
def test_minimize_renumbers_a_minimal_machine_numbered_otherwise(machine):
    """Minimal, but its initial state is not 0, or a breadth-first walk
    from it does not visit 0, 1, 2, ... in order."""
    result = minimize_moore(machine)
    assert result is not machine
    assert result.initial == 0
    assert list(reachable_from(result.delta, [0])) == list(result.states())
    assert moore_isomorphic(result, machine)


def test_synthesized_machines_are_marked_canonical():
    """Every family and corpus case's machine, minimized or not, is marked
    canonically numbered, as is its partialized form, and the mark holds:
    a breadth-first search from state 0 discovers 0, 1, 2, ... in order."""
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    for phi, alphabet in cases:
        for minimize in (False, True):
            machine = synthesize_monitor(phi, alphabet, minimize=minimize)
            assert machine._canonical, (phi, minimize)
            assert machine.initial == 0
            assert list(reachable_from(machine.delta, [0])) == list(machine.states())
            assert partialize(machine)._canonical, (phi, minimize)


@pytest.mark.parametrize(
    "machine, canonical",
    [
        (radiation_machine(), True),
        (_alternating_machine(0), True),
        (_alternating_machine(1), False),
        (mixed_branches_machine(), False),
    ],
    ids=["radiation", "breadth-first", "initial-1", "not-breadth-first"],
)
def test_the_public_constructor_derives_the_canonical_mark(machine, canonical):
    """Set on a machine numbered breadth-first from its initial state 0;
    cleared when the initial state is not 0, or when a breadth-first search
    from it does not discover 0, 1, 2, ... in order."""
    assert machine._canonical is canonical


def test_minimize_returns_a_canonical_machine_with_distinct_outputs_untouched(monkeypatch):
    """A canonical machine whose outputs are pairwise distinct is returned
    as it is, marked minimal, before any refinement is set up: with the
    refinement's gatherers made to fail, it still returns.  The monitors of
    <>a and []a unminimized, and a four-state machine by hand, are such
    machines."""

    def no_refinement(*args):
        raise AssertionError("refinement set up")

    monkeypatch.setattr(fsm, "itemgetter", no_refinement)
    top, bot, unknown, giveup = Verdict.TOP, Verdict.BOT, Verdict.UNKNOWN, Verdict.GIVEUP
    by_hand = MooreMonitor(ALPHA3, 4, 0, [[1, 2, 3], [1, 1, 1], [2, 2, 2], [3, 3, 0]], [unknown, top, bot, giveup])
    machines = [by_hand]
    for text in ("<>a", "[]a"):
        machines.append(synthesize_monitor(parse_formula(text, ABC), ABC, minimize=False))
    for machine in machines:
        assert machine._canonical and len(set(machine.outputs)) == machine.num_states
        assert not machine._minimal
        assert minimize_moore(machine) is machine
        assert machine._minimal


def test_partialize_relabels_a_machine_starting_elsewhere_as_the_sweep_does():
    """A PMF whose initial state is not s0 parses to a machine that is not
    canonical.  partialize relabels its hopeless states as the backward
    sweep does, and its result shares the source's initial state and
    transition table and keeps the mark."""
    text = "\n".join(
        [
            "PMF 1",
            "ALPHABET a b",
            "INITIAL s1",
            "STATE s0 ?",
            "STATE s1 ?",
            "STATE s2 ?",
            "STATE s3 TOP",
            "TRANS s0 a s0",
            "TRANS s0 b s0",
            "TRANS s1 a s0",
            "TRANS s1 b s2",
            "TRANS s2 a s3",
            "TRANS s2 b s2",
            "TRANS s3 a s3",
            "TRANS s3 b s3",
        ]
    )
    machine = parse_monitor(text + "\n")
    assert machine.initial == 1 and not machine._canonical
    result = partialize(machine)
    hopeful = can_reach(machine.delta, [3])
    expected = [
        Verdict.GIVEUP if out is Verdict.UNKNOWN and q not in hopeful else out
        for q, out in enumerate(machine.outputs)
    ]
    assert list(result.outputs) == expected == [Verdict.GIVEUP, Verdict.UNKNOWN, Verdict.UNKNOWN, Verdict.TOP]
    assert result.delta is machine.delta
    assert result.initial == machine.initial
    assert not result._canonical and not result._minimal


# sha256 over each family formula's and each of 300 seeded depth-5 draws'
# partialized PMF text followed by its classify report as JSON, taken before
# synthesis stopped stepping sides that never empty.  Every minimal machine
# and every report must stay byte-identical.
FAMILIES_AND_DRAWS_SHA256 = "d9c7a330288c6481a7d9b3b975a312cf3965826361b115b5afcd70e2b92233d6"


def test_family_and_draw_pmfs_and_reports_are_unchanged():
    rng = random.Random(0xD16E57)
    cases = family_formulas() + [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    digest = hashlib.sha256()
    for phi, alphabet in cases:
        machine = synthesize_monitor(phi, alphabet)
        digest.update(_pmf(machine).encode())
        digest.update(json.dumps(classify(machine).as_dict()).encode() + b"\n")
    assert digest.hexdigest() == FAMILIES_AND_DRAWS_SHA256


# --- intermediate graphs ---------------------------------------------------------

# sha256 pins over the families, the 200-formula corpus and the 300 seeded
# depth-5 draws, taken before one builder numbered every explored graph.  The
# digests above see only minimal machines; these see how the tableaux, the
# unminimized products and the lasso products are numbered and built.  The
# first two were retaken when a dominated move came to keep only the events
# its dominators do not read, and the never-empty marker to follow edges to
# live states owing no more; the second again when a formula side deciding
# every verdict alone came to build the unminimized machine without pairs.
TABLEAUX_SHA256 = "541c9b007dafd21187a324008d70babafc2070f0fe6eeea9189e59ee24b803d4"
PRODUCTS_SHA256 = "93445f02e98e9c88aba24dc837f5ef1688d97a0aec8fd666fdaacd904472dde8"
LASSO_VERDICTS_SHA256 = "4383b8c09127375880f4dae6889a009846cc1da1e98646f68c4bacad3577cb86"


def _pinned_cases():
    rng = random.Random(0xACCE55)
    cases = family_formulas() + [(random_formula(rng, 4), ALPHA3) for _ in range(200)]
    rng = random.Random(0xD16E57)
    return cases + [(random_formula(rng, 5), ALPHA3) for _ in range(300)]


def _pinned_tableaux():
    for phi, alphabet in _pinned_cases():
        for formula in (nnf(phi), negate_nnf(phi)):
            yield alphabet, ltl_to_nba(formula, alphabet)


def test_tableaux_are_unchanged():
    """Both sides' initial states, edges, mark counts and obligations."""
    digest = hashlib.sha256()
    for _, nba in _pinned_tableaux():
        fields = [sorted(nba.initial), nba.edges, nba.num_marks, nba.obligations]
        digest.update(json.dumps(fields).encode() + b"\n")
    assert digest.hexdigest() == TABLEAUX_SHA256


def test_unminimized_product_pmfs_are_unchanged():
    digest = hashlib.sha256()
    for phi, alphabet in _pinned_cases():
        digest.update(emit_monitor(synthesize_monitor(phi, alphabet, minimize=False)).encode())
    assert digest.hexdigest() == PRODUCTS_SHA256


def test_lasso_verdicts_are_unchanged():
    """Both sides of every three-event case on every lasso with a stem of
    at most one event and a loop of one or two."""
    lassos = all_lassos(NAMES3, 1, 2)
    digest = hashlib.sha256()
    for alphabet, nba in _pinned_tableaux():
        if alphabet == ALPHA3:
            digest.update(bytes(nba_accepts_lasso(nba, word) for word in lassos))
    assert digest.hexdigest() == LASSO_VERDICTS_SHA256


def test_equivalent_formulas_give_byte_identical_monitors():
    """The minimal Moore machine of a language is unique and emitted
    canonically, so a formula and each of three equivalent rewrites of it
    (:func:`equivalent_rewrite`) must give the same partialized PMF, however
    differently their tableaux, side tables and products are built: over
    ``random_formula`` and ``next_heavy_formula`` draws at depth 4, seeds
    0-4.

    This gate adds to the sha256 pins and the lasso oracles and replaces
    none of them: it sees two shapes of one language disagree, not a wrong
    answer they share.  A mutant whose ``buchi._undominated`` ignores
    pending marks, or whose ``minimize_moore`` refines on every event but
    the last, passes every rewrite, and the pins catch it.  No mutant was
    found that fails here and passes every pin.  One whose tableau ORs in
    each X's operand by one shift, chain or not, passes the three PMF pins
    and fails here, but ``TABLEAUX_SHA256`` catches it."""
    for seed in range(5):
        rng = random.Random(seed)
        draws = [random_formula(rng, 4) for _ in range(100)]
        draws += [next_heavy_formula(rng, 4) for _ in range(100)]
        for phi in draws:
            expected = emit_monitor(partialize(synthesize_monitor(phi, ALPHA3)))
            for _ in range(3):
                rewritten = equivalent_rewrite(rng, phi)
                got = emit_monitor(partialize(synthesize_monitor(rewritten, ALPHA3)))
                assert got == expected, (seed, phi, rewritten)


def test_the_walk_from_the_parsed_formula_builds_the_normal_forms_tableaux():
    """Synthesis builds each side from the formula as parsed, pushing
    negations inward as it walks; it must build exactly the automaton of the
    normal form, over the pinned cases and 300 more depth-5 draws."""
    rng = random.Random(0x9011)
    cases = _pinned_cases() + [(random_formula(rng, 5), ALPHA3) for _ in range(300)]
    for phi, alphabet in cases:
        for negated, normal_form in ((False, nnf), (True, negate_nnf)):
            walked = _tableau(phi, alphabet, negated)
            built = ltl_to_nba(normal_form(phi), alphabet)
            assert walked.initial == built.initial, (phi, negated)
            assert walked.edges == built.edges, (phi, negated)
            assert walked.obligations == built.obligations, (phi, negated)
            assert walked.num_marks == built.num_marks, (phi, negated)


def _automaton(nba):
    """Initial states, edges, mark count and obligations: equal for equal tableaux."""
    return sorted(nba.initial), nba.edges, nba.num_marks, nba.obligations


_EV1, _EV2 = Atom("ev1"), Atom("ev2")
# A negation over every node class but an atom, and implications under
# negations and inside each other.
_NOT_NNF_SHAPES = [
    Not(TRUE),
    Not(FALSE),
    Not(Not(_EV1)),
    Not(Not(Not(_EV1))),
    Not(Next(_EV1)),
    Not(Eventually(_EV1)),
    Not(Always(_EV1)),
    Not(And(_EV1, _EV2)),
    Not(Or(_EV1, _EV2)),
    Not(Implies(_EV1, _EV2)),
    Not(Until(_EV1, _EV2)),
    Not(Release(_EV1, _EV2)),
    Implies(Implies(_EV1, _EV2), Not(Implies(_EV2, Eventually(Not(_EV1))))),
    Not(Implies(Not(Until(_EV1, Not(_EV2))), Always(Implies(_EV1, Next(Not(Not(_EV2))))))),
]


def test_ltl_to_nba_builds_any_formula_as_its_normal_form():
    """``ltl_to_nba`` pushes negations inward as it walks, so a tree not in
    negation normal form gives exactly the automaton of ``nnf(phi)``, the
    formula side synthesis builds, and ``Not(phi)`` that of
    ``negate_nnf(phi)``, over the pinned cases and hand-written shapes."""
    assert not any(is_nnf(phi) for phi in _NOT_NNF_SHAPES)
    for phi, alphabet in _pinned_cases() + [(phi, ALPHA3) for phi in _NOT_NNF_SHAPES]:
        built = _automaton(ltl_to_nba(phi, alphabet))
        assert built == _automaton(ltl_to_nba(nnf(phi), alphabet)), phi
        assert built == _automaton(_tableau(phi, alphabet, False)), phi
        negated = _automaton(ltl_to_nba(Not(phi), alphabet))
        assert negated == _automaton(ltl_to_nba(negate_nnf(phi), alphabet)), phi


def test_x_obligations_or_into_the_shared_row_as_the_full_fold_would():
    """A state owing X obligations takes the row of the rest of what it owes
    with their operands ORed in, or the full fold where a move of the rest
    already owes one of those operands; either way its edges, in order, and
    the obligations must be those of the fold over everything it owes.  Both
    ways must run often: on the pinned cases, <>(a & X^k b) and
    [](a -> X^k b) for k <= 10, and 200 formulas in which half the
    operators are X."""
    taken = {False: 0, True: 0}
    abc = Alphabet(["a", "b", "c"])
    cases = _pinned_cases()
    for k in range(11):
        chain = "X " * k + "b"
        for text in (f"<>(a & {chain})", f"[](a -> {chain})"):
            cases.append((parse_formula(text, abc), abc))
    # The negation's fold relates two moves at an earlier step than its last
    # row shows: ORing in the operands' bits only at the last row would list
    # one state's edges in another order.
    cases.append((parse_formula("(ev3 R X X (X ev3 U G (ev3 | ev1))) R X ev3", ALPHA3), ALPHA3))
    rng = random.Random(0x4E47)
    cases += [(next_heavy_formula(rng, 7), ALPHA3) for _ in range(200)]
    for phi, alphabet in cases:
        for negated in (False, True):
            built = _tableau(phi, alphabet, negated)
            folded = prefix_fold_tableau(phi, alphabet, negated)
            assert built.edges == folded.edges, (phi, negated)
            assert built.obligations == folded.obligations, (phi, negated)
            assert built.num_marks == folded.num_marks, (phi, negated)
            # Which way each state owing X obligations went: the full fold
            # iff a move of the rest of what it owes owes an added operand.
            moves, _, _, next_of = buchi._walk(phi, alphabet, negated)
            for owed in built.obligations:
                owed_x = [bit for bit in next_of if owed & bit]
                if owed_x:
                    added = sum(next_of[bit] for bit in owed_x)
                    rest = owed & ~sum(owed_x)
                    folds = any(nxt & added for i in bits(rest) for _, nxt, _ in moves[i])
                    taken[folds] += 1
    assert taken[False] >= 100 and taken[True] >= 100, taken


# --- synthesis ---------------------------------------------------------------

def test_synthesize_eventually_matches_expected_machine():
    machine = synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)
    assert machine.num_states == 2
    assert moore_isomorphic(machine, eventually_ev1_machine())


def test_synthesize_mixed_branches_shape():
    phi = parse_formula("(ev1 & <>ev2) | (ev3 & []<>ev4)", ALPHA4)
    machine = synthesize_monitor(phi, ALPHA4)
    assert machine.num_states == 5
    assert moore_isomorphic(machine, mixed_branches_machine())
    # transition spot checks through the verdict function
    assert monitor_verdict(machine, ("ev2",)) is Verdict.BOT
    assert monitor_verdict(machine, ("ev4",)) is Verdict.BOT
    assert monitor_verdict(machine, ("ev1", "ev2")) is Verdict.TOP
    assert monitor_verdict(machine, ("ev1", "ev4", "ev3", "ev2")) is Verdict.TOP
    assert monitor_verdict(machine, ("ev3", "ev1", "ev2")) is Verdict.UNKNOWN


def test_synthesize_recurrence_collapses_to_one_state():
    machine = synthesize_monitor(parse_formula("[]<>ev1", ALPHA3), ALPHA3)
    assert machine.num_states == 1
    assert machine.outputs == (Verdict.UNKNOWN,)


def test_synthesize_recurrence_over_singleton_alphabet_is_trivially_true():
    """Over a one-event alphabet the only infinite word repeats that event, so
    a recurrence of it holds vacuously and the monitor is a TOP sink.  This is
    why inferring the alphabet from a single-atom recurrence formula gives a
    decided monitor rather than a give-up one."""
    solo = Alphabet(("inspect_tank_1",))
    machine = synthesize_monitor(parse_formula("[]<>inspect_tank_1", solo), solo)
    assert machine.num_states == 1
    assert machine.outputs == (Verdict.TOP,)


def test_monitor_verdict_examples():
    machine = synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)
    assert monitor_verdict(machine, ("ev2", "ev3", "ev2")) is Verdict.UNKNOWN
    assert monitor_verdict(machine, ("ev2", "ev1")) is Verdict.TOP
    assert monitor_verdict(machine, ()) is machine.output(machine.initial)


def test_monitor_verdict_rejects_unknown_event():
    machine = synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)
    with pytest.raises(UnknownEventError):
        monitor_verdict(machine, ("ev1", "nope"))


# --- minimization ------------------------------------------------------------

def test_verdicts_hash_copy_and_look_up_as_the_same_members():
    """Verdicts hash by identity; as set members and dict keys, through
    pickle and copies and by value they stay the four singletons."""
    members = list(Verdict)
    assert len(members) == len(set(members + members)) == 4
    table = {verdict: verdict.value for verdict in members}
    for verdict in members:
        assert table[verdict] == verdict.value
        assert verdict in set(members) and verdict in frozenset(table)
        assert hash(verdict) == hash(Verdict(verdict.value)) == hash(Verdict[verdict.name])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(verdict, protocol)) is verdict
        assert copy.deepcopy(verdict) is verdict and copy.copy(verdict) is verdict
        assert copy.deepcopy(table)[verdict] == verdict.value
    assert {Verdict.TOP, Verdict.BOT} & {Verdict("BOT")} == {Verdict.BOT}
    assert Verdict("x") is Verdict.GIVEUP


def test_minimize_fixpoint_on_minimal_machine():
    machine = eventually_ev1_machine()
    assert moore_isomorphic(minimize_moore(machine), machine)


def test_minimize_collapses_recurrence_monitor():
    phi = parse_formula("[]<>ev1", ALPHA3)
    raw = synthesize_monitor(phi, ALPHA3, minimize=False)
    machine = minimize_moore(raw)
    assert machine.num_states == 1
    for word in all_words(NAMES3, 5):
        assert monitor_verdict(raw, word) is monitor_verdict(machine, word)


def test_minimize_merges_equal_sinks():
    two_tops = MooreMonitor(
        ALPHA3,
        3,
        0,
        [[1, 2, 0], [1, 1, 1], [2, 2, 2]],
        [Verdict.UNKNOWN, Verdict.TOP, Verdict.TOP],
    )
    merged = minimize_moore(two_tops)
    assert merged.num_states == 2
    for word in all_words(NAMES3, 4):
        assert monitor_verdict(two_tops, word) is monitor_verdict(merged, word)


def test_minimize_preserves_verdicts_on_random_formulas():
    rng = random.Random(77)
    words = all_words(NAMES3, 5)
    for _ in range(15):
        phi = random_formula(rng, 3)
        raw = synthesize_monitor(phi, ALPHA3, minimize=False)
        small = minimize_moore(raw)
        assert small.num_states <= raw.num_states
        for word in words:
            assert monitor_verdict(raw, word) is monitor_verdict(small, word)


# --- machine-level invariants on random formulas -------------------------------

def test_monitor_invariants_on_random_formulas():
    """Bounded soundness, duality, stickiness and totality."""
    rng = random.Random(4242)
    prefixes = all_words(NAMES3, 4)
    lassos = all_lassos(NAMES3, 2, 2)
    for _ in range(40):
        phi = random_formula(rng, 4)
        machine = synthesize_monitor(phi, ALPHA3)
        negated = synthesize_monitor(Not(phi), ALPHA3)

        # totality: every state has exactly one target per event
        for row in machine.delta:
            assert len(row) == len(ALPHA3)

        # stickiness at machine level: conclusive states only reach themselves
        for state in machine.states():
            if machine.outputs[state].is_conclusive:
                for target in machine.delta[state]:
                    assert machine.outputs[target] is machine.outputs[state]

        cache = {}

        def holds(stem, loop):
            key = (stem, loop)
            if key not in cache:
                cache[key] = lasso_eval(phi, LassoWord(stem, loop))
            return cache[key]

        for sigma in prefixes:
            verdict = monitor_verdict(machine, sigma)
            assert monitor_verdict(negated, sigma) is verdict.dual()
            if verdict is Verdict.TOP:
                assert all(holds(sigma + w.stem, w.loop) for w in lassos)
            elif verdict is Verdict.BOT:
                assert not any(holds(sigma + w.stem, w.loop) for w in lassos)


def test_synthesis_accepts_only_known_atoms():
    with pytest.raises(UnknownAtomError):
        synthesize_monitor(parse_formula("<>zork"), ALPHA3)


_YY, _ZZ = Atom("yy"), Atom("zz")


@pytest.mark.parametrize(
    "phi, name",
    [
        (Implies(Atom("ev1"), _ZZ), "zz"),
        (Implies(_YY, _ZZ), "yy"),
        (Not(Implies(Next(_YY), _ZZ)), "yy"),
        (Not(Not(_ZZ)), "zz"),
        (Or(Not(Not(Always(_YY))), _ZZ), "yy"),
        (Release(_YY, _ZZ), "yy"),
        (Not(Release(Atom("ev2"), Until(_ZZ, _YY))), "zz"),
    ],
    ids=["implies", "implies-left-first", "negated-implies", "not-not", "not-not-first", "release", "negated-release"],
)
def test_synthesis_names_the_first_unknown_atom_in_postorder(phi, name):
    with pytest.raises(UnknownAtomError, match=f"^unknown atom '{name}'$"):
        synthesize_monitor(phi, ALPHA3)


def test_synthesis_refuses_a_tree_too_deep_or_of_a_foreign_class():
    class Mine(And):
        __slots__ = ()

    deep = Atom("ev1")
    for _ in range(MAX_FORMULA_DEPTH // 2 + 1):
        deep = Not(Implies(deep, Atom("ev2")))
    with pytest.raises(FormulaTooDeepError):
        synthesize_monitor(deep, ALPHA3)
    with pytest.raises(TypeError, match="^not a formula: "):
        synthesize_monitor(Mine(Atom("ev1"), Atom("ev2")), ALPHA3)


_UNSATISFIABLE = ["false", "ev1 & ev2", "ev1 & !ev1", "[]ev1 & <>ev2", "X (ev1 U false)", "!(ev1 -> ev1)"]


@pytest.mark.parametrize("text", _UNSATISFIABLE)
def test_an_unsatisfiable_formula_synthesizes_the_bot_sink(text):
    """The machine is the one the plain route builds from both sides, and
    the one-state BOT machine with and without minimizing.  (The product
    pins above, taken when both sides were always built, hold the corpus's
    unsatisfiable formulas too.)"""
    phi = parse_formula(text, ALPHA3)
    bot = emit_monitor(MooreMonitor(ALPHA3, 1, 0, [[0, 0, 0]], [Verdict.BOT]))
    assert _pmf(minimize_moore(reference_monitor(phi, ALPHA3))) == bot
    for minimize in (True, False):
        assert _pmf(synthesize_monitor(phi, ALPHA3, minimize)) == bot


def test_an_unsatisfiable_formula_never_walks_its_negation(monkeypatch):
    walked = []
    real = fsm._tableau

    def counted(phi, alphabet, negated):
        walked.append(negated)
        return real(phi, alphabet, negated)

    monkeypatch.setattr(fsm, "_tableau", counted)
    for text in _UNSATISFIABLE:
        walked.clear()
        synthesize_monitor(parse_formula(text, ALPHA3), ALPHA3)
        assert walked == [False], text
    # A formula that holds on some word walks its negation too, unless its
    # formula side decides alone.
    for text, alone in [
        ("ev1", True),
        ("!ev1 & !ev2", True),
        ("[]<>ev1", True),
        ("[]ev1 | []ev2", True),
        ("[]ev1 | <>ev2", False),
        ("<>(ev1 & X ev2)", False),
        ("<>[]ev1", False),
    ]:
        phi = parse_formula(text, ALPHA3)
        assert decides_alone(real(phi, ALPHA3, False)) == alone, text
        walked.clear()
        synthesize_monitor(phi, ALPHA3)
        assert walked == ([False] if alone else [False, True]), text


def test_synthesis_refuses_an_alphabet_that_is_not_an_alphabet():
    """A list or a string of names would otherwise get as far as a machine
    whose alphabet has no ``symbols``, or read the atom ``ab`` as the event
    ``a`` of the string ``"abc"``."""
    ab = Alphabet(["a", "b"])
    phi = parse_formula("(a & G F b) | (!a & G b)", ab)
    with pytest.raises(TypeError, match="^not an alphabet: "):
        synthesize_monitor(phi, ["a", "b"])
    with pytest.raises(TypeError, match="^not an alphabet: "):
        synthesize_monitor(Eventually(Atom("ab")), "abc")
    with pytest.raises(TypeError, match="^not an alphabet: "):
        MooreMonitor(["a", "b"], 1, 0, [[0, 0]], [Verdict.UNKNOWN])
    assert synthesize_monitor(phi, ab).alphabet is ab


def test_moore_monitor_validation():
    with pytest.raises(ValueError):
        MooreMonitor(ALPHA3, 2, 0, [[1, 1]], [Verdict.UNKNOWN, Verdict.TOP])  # row arity
    with pytest.raises(ValueError):
        MooreMonitor(ALPHA3, 2, 0, [[0, 0, 0], [1, 1, 1]], [Verdict.UNKNOWN, Verdict.TOP])  # unreachable
    with pytest.raises(ValueError):
        MooreMonitor(ALPHA3, 1, 1, [[0, 0, 0]], [Verdict.UNKNOWN])  # initial out of range
    with pytest.raises(ValueError):
        MooreMonitor(ALPHA3, 1, 0, [[0, 0, 1]], [Verdict.UNKNOWN])  # target out of range
    with pytest.raises(ValueError):
        MooreMonitor(ALPHA3, 1, 0, [[0, 0, 0]], ["?"])  # not a verdict
    # every verdict is a valid output, give-up included
    assert MooreMonitor(ALPHA3, 1, 0, [[0, 0, 0]], [Verdict.GIVEUP]).outputs == (Verdict.GIVEUP,)
