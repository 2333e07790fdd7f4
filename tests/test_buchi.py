"""Büchi construction: language correctness against the lasso oracle."""

import random
from functools import reduce

import pytest

from partmon.buchi import Nba, ltl_to_nba, nba_accepts_lasso
from partmon.fsm import per_state_nonempty
from partmon.graphs import bits
from partmon.ltl import (
    Alphabet,
    And,
    Atom,
    Eventually,
    FALSE,
    Implies,
    LassoWord,
    Not,
    Or,
    TRUE,
    UnknownAtomError,
    lasso_eval,
    negate_nnf,
    nnf,
    parse_formula,
)

from helpers import ALPHA3, NAMES3, all_lassos, gpvw_nba, random_formula, state_nba, subformulas


def test_eventually_membership():
    phi = parse_formula("F ev1", ALPHA3)
    nba = ltl_to_nba(phi, ALPHA3)
    assert nba_accepts_lasso(nba, LassoWord(("ev2",), ("ev1",)))
    assert not nba_accepts_lasso(nba, LassoWord((), ("ev2", "ev3")))
    # exhaustive family: membership coincides with the semantics evaluator
    for word in all_lassos(NAMES3, 2, 2):
        assert nba_accepts_lasso(nba, word) == lasso_eval(phi, word)


def test_false_has_empty_language():
    nba = ltl_to_nba(FALSE, ALPHA3)
    for word in all_lassos(NAMES3, 1, 2):
        assert not nba_accepts_lasso(nba, word)


def test_true_accepts_everything():
    nba = ltl_to_nba(TRUE, ALPHA3)
    for word in all_lassos(NAMES3, 1, 2):
        assert nba_accepts_lasso(nba, word)


def test_accepts_lasso_spot_checks():
    alpha = ALPHA3
    assert nba_accepts_lasso(
        ltl_to_nba(parse_formula("F ev1", alpha), alpha),
        LassoWord(("ev1",), ("ev3",)),
    )
    gf = parse_formula("[]<>ev3", alpha)
    assert nba_accepts_lasso(ltl_to_nba(nnf(gf), alpha), LassoWord((), ("ev3", "ev2")))
    assert not nba_accepts_lasso(
        ltl_to_nba(nnf(gf), alpha), LassoWord(("ev3", "ev3"), ("ev2",))
    )


def test_oracle_equivalence_and_complement_split():
    """Membership must match the lasso evaluator for the formula, and be the
    exact complement for the negated formula, both for the tableau and for
    the state-based reference tableau."""
    rng = random.Random(0x5EED)
    lassos = all_lassos(NAMES3, 3, 2)
    for _ in range(50):
        phi = random_formula(rng, 4)
        for build in (ltl_to_nba, gpvw_nba):
            nba_pos = build(nnf(phi), ALPHA3)
            nba_neg = build(negate_nnf(phi), ALPHA3)
            for word in lassos:
                expected = lasso_eval(phi, word)
                assert nba_accepts_lasso(nba_pos, word) == expected, (build, phi, word)
                assert nba_accepts_lasso(nba_neg, word) == (not expected), (build, phi, word)


@pytest.mark.parametrize(
    "text",
    [
        "<>true", "<>false", "[]true", "[]false",
        "[]<>true", "<>[]false", "ev1 U true", "true U ev1",
        "false R ev2", "ev2 R false", "<>(ev1 & []false)", "[](ev1 -> <>true)",
    ],
)
def test_constant_side_expansions_match_the_evaluator(text):
    """The tableau reads F r as true U r and G r as false R r with no
    obligation for the constant side; literal constants meet that reading."""
    phi = parse_formula(text, ALPHA3)
    for goal in (nnf(phi), negate_nnf(phi)):
        nba = ltl_to_nba(goal, ALPHA3)
        for word in all_lassos(NAMES3, 2, 2):
            assert nba_accepts_lasso(nba, word) == lasso_eval(goal, word), (goal, word)


def test_construction_is_deterministic():
    rng = random.Random(31337)
    for _ in range(40):
        phi = nnf(random_formula(rng, 4))
        first = ltl_to_nba(phi, ALPHA3)
        second = ltl_to_nba(phi, ALPHA3)
        assert first.initial == second.initial
        assert first.edges == second.edges
        assert first.num_marks == second.num_marks
        assert first.obligations == second.obligations


_EV1, _EV2, _ZZ = Atom("ev1"), Atom("ev2"), Atom("zz")


@pytest.mark.parametrize(
    "phi",
    [
        Not(Not(_ZZ)),
        Not(_ZZ),
        Or(Implies(_EV1, _EV2), _ZZ),
        And(_ZZ, Implies(_EV1, _EV2)),
    ],
    ids=["not-not-unknown", "not-unknown", "implies-then-unknown", "unknown-then-implies"],
)
def test_refuses_the_first_bad_subformula_in_postorder(phi):
    """Any formula is read, negations and implications included, so the
    only bad subformula left is an atom the alphabet does not name: it is
    refused wherever it sits, under negations or beside an implication."""
    with pytest.raises(UnknownAtomError, match=r"^unknown atom 'zz'$") as caught:
        ltl_to_nba(phi, ALPHA3)
    assert caught.type is UnknownAtomError


def test_nba_validates_structure():
    import pytest

    loop = [(0b111, 1, 0b1)]
    Nba(ALPHA3, [0], [[], loop], 1, (1, 2))  # well formed
    with pytest.raises(ValueError):
        Nba(ALPHA3, [], [[], loop], 1, (1, 2))  # no initial state
    with pytest.raises(ValueError):
        Nba(ALPHA3, [2], [[], loop], 1, (1, 2))  # initial state out of range
    with pytest.raises(ValueError):
        Nba(ALPHA3, [0], [[(0b1, 5, 0)], loop], 1, (1, 2))  # target out of range
    with pytest.raises(ValueError):
        Nba(ALPHA3, [0], [[(0b1000, 1, 0)], loop], 1, (1, 2))  # unknown event
    with pytest.raises(ValueError):
        Nba(ALPHA3, [0], [[(0, 1, 0)], loop], 1, (1, 2))  # empty guard
    with pytest.raises(ValueError):
        Nba(ALPHA3, [0], [[(0b1, 1, 0b10)], loop], 1, (1, 2))  # mark out of range
    with pytest.raises(ValueError):
        Nba(ALPHA3, [0], [[], loop], 1, (1,))  # one obligation set short
    with pytest.raises(TypeError, match="^not an alphabet: "):
        Nba(["ev1", "ev2", "ev3"], [0], [[], loop], 1, (1, 2))


def test_the_tableau_refuses_an_alphabet_that_is_not_an_alphabet():
    """A string of names would otherwise read the atom ``ab`` as the event
    ``a``, by substring membership."""
    for alphabet in ("abc", ["a", "b"], ("a", "b")):
        with pytest.raises(TypeError, match="^not an alphabet: "):
            ltl_to_nba(Eventually(Atom("ab")), alphabet)


def test_tableaux_round_trip_through_the_constructor():
    """Rebuilding a tableau from its fields gives the same automaton."""
    rng = random.Random(0xB17)
    for _ in range(20):
        nba = ltl_to_nba(nnf(random_formula(rng, 3)), ALPHA3)
        rebuilt = Nba(ALPHA3, nba.initial, nba.edges, nba.num_marks, nba.obligations)
        assert rebuilt.num_states == nba.num_states
        assert rebuilt.initial == nba.initial
        assert rebuilt.edges == nba.edges
        assert rebuilt.num_marks == nba.num_marks
        assert rebuilt.obligations == nba.obligations


# --- generalized acceptance -----------------------------------------------------

# Two states that alternate on ev1 / ev2 and each loop on ev3.
_TWO_LOOPS = [(0, "ev1", 1), (1, "ev2", 0), (0, "ev3", 0), (1, "ev3", 1)]


def test_lasso_must_meet_every_acceptance_set():
    nba = state_nba(ALPHA3, 2, [0], _TWO_LOOPS, ({0}, {1}))
    assert nba_accepts_lasso(nba, LassoWord((), ("ev1", "ev2")))
    # ev3 forever stays in state 0: it meets the first set only.
    assert not nba_accepts_lasso(nba, LassoWord((), ("ev3",)))
    assert not nba_accepts_lasso(nba, LassoWord(("ev1",), ("ev3",)))


def test_no_acceptance_sets_accept_every_infinite_run():
    nba = state_nba(ALPHA3, 2, [0], _TWO_LOOPS, ())
    assert nba_accepts_lasso(nba, LassoWord((), ("ev3",)))
    assert nba_accepts_lasso(nba, LassoWord(("ev1",), ("ev3",)))
    # ev2 has no edge out of state 0: no run at all.
    assert not nba_accepts_lasso(nba, LassoWord((), ("ev2",)))


def test_an_empty_acceptance_set_accepts_nothing():
    nba = state_nba(ALPHA3, 2, [0], _TWO_LOOPS, ({0, 1}, ()))
    for word in all_lassos(NAMES3, 1, 2):
        assert not nba_accepts_lasso(nba, word)


def test_tableau_keeps_one_acceptance_set_per_until():
    alpha = ALPHA3
    assert ltl_to_nba(parse_formula("[]ev1", alpha), alpha).num_marks == 0
    gf = nnf(parse_formula("[]<>ev1 & []<>ev2", alpha))
    assert ltl_to_nba(gf, alpha).num_marks == 2


# --- the obligation preorder ----------------------------------------------------


def test_hand_built_automata_relate_no_two_states():
    assert state_nba(ALPHA3, 2, [0], _TWO_LOOPS, ()).obligations == (1 << 0, 1 << 1)
    nba = state_nba(ALPHA3, 3, [0], [], ())
    assert nba.obligations == tuple(1 << q for q in range(3))


def test_weaker_obligations_accept_every_word_of_stronger_ones():
    """A state owing a subset of another's obligations accepts every word the
    other accepts: the preorder synthesis cuts its subsets down by."""
    rng = random.Random(0x0B1)
    lassos = rng.sample(all_lassos(NAMES3, 2, 2), 40)
    strict_pairs = 0
    for _ in range(30):
        phi = random_formula(rng, 4)
        for goal in (nnf(phi), negate_nnf(phi)):
            nba = ltl_to_nba(goal, ALPHA3)
            assert len(nba.obligations) == nba.num_states
            accepted = {}
            for q in per_state_nonempty(nba):
                start = Nba(ALPHA3, [q], nba.edges, nba.num_marks, nba.obligations)
                accepted[q] = {i for i, w in enumerate(lassos) if nba_accepts_lasso(start, w)}
            owes = nba.obligations
            for p in accepted:
                for q in accepted:
                    if not owes[p] & ~owes[q]:
                        assert accepted[q] <= accepted[p], (goal, p, q)
                        strict_pairs += owes[p] != owes[q] and bool(accepted[q])
    assert strict_pairs > 0


# --- one state per obligation set -------------------------------------------------


def test_tableau_has_one_state_per_obligation_set():
    """States are keyed by the obligations they owe, not copied per way of
    reaching them: resp-4's formula side has 17 states (346 as a state-based
    tableau), and the negation side of <>(a & X^8 b) has 256 (513)."""
    resp4 = " & ".join(f"[](r{i} -> <>g{i})" for i in range(4))
    alpha = Alphabet([e for i in range(4) for e in (f"r{i}", f"g{i}")])
    chain = "<>(a & X X X X X X X X b)"
    abc = Alphabet(["a", "b", "c"])
    cases = [
        (nnf(parse_formula(resp4, alpha)), alpha, 17),
        (negate_nnf(parse_formula(chain, abc)), abc, 256),
    ]
    for goal, alphabet, size in cases:
        nba = ltl_to_nba(goal, alphabet)
        assert nba.num_states == size
        assert len(set(nba.obligations)) == size


# --- dominated edges ------------------------------------------------------------


def _seeded_tableaux():
    """The tableaux of 40 seeded random formulas and of their negations."""
    rng = random.Random(3)
    goals = []
    for _ in range(40):
        phi = random_formula(rng, 4)
        goals += [nnf(phi), negate_nnf(phi)]
    return [(goal, ltl_to_nba(goal, ALPHA3)) for goal in goals]


def test_each_state_accepts_what_it_owes():
    """GPVW's correctness lemma, which dropping dominated edges relies on and
    must keep: the words accepted from a state are exactly the words that
    satisfy the conjunction of the obligations it owes."""
    lassos = random.Random(0x1E44A).sample(all_lassos(NAMES3, 2, 2), 40)
    checks = 0
    for goal, nba in _seeded_tableaux():
        formulas = subformulas(goal)
        for q, owed in enumerate(nba.obligations):
            conjuncts = [formulas[i] for i in bits(owed)]
            owes = reduce(And, conjuncts) if conjuncts else TRUE
            start = Nba(ALPHA3, [q], nba.edges, nba.num_marks, nba.obligations)
            for word in lassos:
                assert nba_accepts_lasso(start, word) == lasso_eval(owes, word), (goal, q, word)
                checks += 1
    assert checks > 5000


def test_no_edge_is_dominated_by_another_of_its_state():
    """No edge shares an event with another edge of its state that owes a
    subset of what it owes and carries a superset of its marks, that is,
    leaves a subset of its marks pending.  So the move of <>ev1 that owes
    it again, its mark pending, does not read ev1."""
    eventually = Eventually(Atom("ev1"))
    for goal, nba in [*_seeded_tableaux(), (eventually, ltl_to_nba(eventually, ALPHA3))]:
        owes = nba.obligations
        for q, row in enumerate(nba.edges):
            assert len({(dst, marks) for _, dst, marks in row}) == len(row), (goal, q)
            for guard, dst, marks in row:
                for other_guard, other_dst, other_marks in row:
                    if (other_dst, other_marks) != (dst, marks):
                        assert not (
                            guard & other_guard
                            and not owes[other_dst] & ~owes[dst]
                            and not marks & ~other_marks
                        ), (goal, q, (guard, dst, marks), (other_guard, other_dst, other_marks))


def _resp(n):
    """resp-n, the conjunction of [](r_i -> <>g_i) for i < n, and its alphabet."""
    text = " & ".join(f"[](r{i} -> <>g{i})" for i in range(n))
    return text, Alphabet([e for i in range(n) for e in (f"r{i}", f"g{i}")])


@pytest.mark.parametrize(
    "text, alphabet, side, states, edges",
    [
        # Keeping every merged edge would give 17 states / 205 edges,
        (*_resp(4), nnf, 17, 85),
        # 36 / 310,
        ("(<>(<>((ev2 -> ev3))) U ((true U <>(ev2)) U ev1))", ALPHA3, nnf, 11, 48),
        # 24 / 307,
        (
            "([](((true -> ev1) & (ev3 & ev2))) U ((true R <>(ev3)) -> (X (ev2) R ev2)))",
            ALPHA3,
            negate_nnf,
            4,
            8,
        ),
        # 129 / 7,418,
        (*_resp(7), nnf, 129, 1032),
        # and 1,025 / 256,903; dropping only the moves one other move reads
        # every event of gave 65,193 edges.
        (*_resp(10), nnf, 1025, 11275),
    ],
)
def test_dropping_dominated_edges_shrinks_the_tableau(text, alphabet, side, states, edges):
    nba = ltl_to_nba(side(parse_formula(text, alphabet)), alphabet)
    assert (nba.num_states, sum(len(row) for row in nba.edges)) == (states, edges)


_ONE_EVENT = Alphabet(["a"])


@pytest.mark.parametrize("text", ["[] !a", "<> !a", "!a U a", "a R !a", "(a | !a) U a"])
def test_a_literal_no_event_satisfies_has_no_moves(text):
    """Over the one-event alphabet {a}, no event satisfies !a: its move list
    is empty, and every formula built on it still gets its language right."""
    phi = parse_formula(text, _ONE_EVENT)
    for goal in (nnf(phi), negate_nnf(phi)):
        nba = ltl_to_nba(goal, _ONE_EVENT)
        for word in all_lassos(("a",), 2, 2):
            assert nba_accepts_lasso(nba, word) == lasso_eval(goal, word), (goal, word)
