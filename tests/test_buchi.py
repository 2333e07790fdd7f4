"""Büchi construction: language correctness against the lasso oracle."""

import random

from partmon.buchi import Nba, ltl_to_nba, nba_accepts_lasso
from partmon.fsm import per_state_nonempty
from partmon.ltl import (
    Atom,
    Eventually,
    FALSE,
    LassoWord,
    Not,
    TRUE,
    lasso_eval,
    negate_nnf,
    nnf,
    parse_formula,
)

from helpers import ALPHA3, NAMES3, all_lassos, random_formula


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
    exact complement for the negated formula."""
    rng = random.Random(0x5EED)
    lassos = all_lassos(NAMES3, 3, 2)
    for _ in range(50):
        phi = random_formula(rng, 4)
        nba_pos = ltl_to_nba(nnf(phi), ALPHA3)
        nba_neg = ltl_to_nba(negate_nnf(phi), ALPHA3)
        for word in lassos:
            expected = lasso_eval(phi, word)
            assert nba_accepts_lasso(nba_pos, word) == expected, (phi, word)
            assert nba_accepts_lasso(nba_neg, word) == (not expected), (phi, word)


def test_construction_is_deterministic():
    rng = random.Random(31337)
    for _ in range(40):
        phi = nnf(random_formula(rng, 4))
        first = ltl_to_nba(phi, ALPHA3)
        second = ltl_to_nba(phi, ALPHA3)
        assert first.num_states == second.num_states
        assert first.initial == second.initial
        assert first.transitions == second.transitions
        assert first.accepting_sets == second.accepting_sets


def test_rejects_non_nnf_input():
    import pytest

    with pytest.raises(ValueError):
        ltl_to_nba(Not(Eventually(Atom("ev1"))), ALPHA3)


def test_nba_validates_structure():
    import pytest

    with pytest.raises(ValueError):
        Nba(ALPHA3, 2, [], [], ())  # no initial state
    with pytest.raises(ValueError):
        Nba(ALPHA3, 2, [0], [(0, "ev1", 5)], ())  # endpoint out of range
    with pytest.raises(ValueError):
        Nba(ALPHA3, 2, [0], [(0, "nope", 1)], ())  # unknown event
    with pytest.raises(ValueError):
        Nba(ALPHA3, 2, [0], [], ({0}, {2}))  # accepting state out of range


def test_transitions_round_trip_through_the_constructor():
    rng = random.Random(0xB17)
    for _ in range(20):
        nba = ltl_to_nba(nnf(random_formula(rng, 3)), ALPHA3)
        rebuilt = Nba(ALPHA3, nba.num_states, nba.initial, nba.transitions, nba.accepting_sets)
        assert rebuilt.successor_masks == nba.successor_masks
        for src, event, dst in nba.transitions:
            assert dst in nba.successors(src, event)


# --- generalized acceptance -----------------------------------------------------

# Two states that alternate on ev1 / ev2 and each loop on ev3.
_TWO_LOOPS = [(0, "ev1", 1), (1, "ev2", 0), (0, "ev3", 0), (1, "ev3", 1)]


def test_lasso_must_meet_every_acceptance_set():
    nba = Nba(ALPHA3, 2, [0], _TWO_LOOPS, ({0}, {1}))
    assert nba_accepts_lasso(nba, LassoWord((), ("ev1", "ev2")))
    # ev3 forever stays in state 0: it meets the first set only.
    assert not nba_accepts_lasso(nba, LassoWord((), ("ev3",)))
    assert not nba_accepts_lasso(nba, LassoWord(("ev1",), ("ev3",)))


def test_no_acceptance_sets_accept_every_infinite_run():
    nba = Nba(ALPHA3, 2, [0], _TWO_LOOPS, ())
    assert nba_accepts_lasso(nba, LassoWord((), ("ev3",)))
    assert nba_accepts_lasso(nba, LassoWord(("ev1",), ("ev3",)))
    # ev2 has no edge out of state 0: no run at all.
    assert not nba_accepts_lasso(nba, LassoWord((), ("ev2",)))


def test_an_empty_acceptance_set_accepts_nothing():
    nba = Nba(ALPHA3, 2, [0], _TWO_LOOPS, ({0, 1}, ()))
    for word in all_lassos(NAMES3, 1, 2):
        assert not nba_accepts_lasso(nba, word)


def test_tableau_keeps_one_acceptance_set_per_until():
    alpha = ALPHA3
    assert ltl_to_nba(parse_formula("[]ev1", alpha), alpha).accepting_sets == ()
    gf = nnf(parse_formula("[]<>ev1 & []<>ev2", alpha))
    assert len(ltl_to_nba(gf, alpha).accepting_sets) == 2


# --- the obligation preorder ----------------------------------------------------


def test_hand_built_automata_relate_no_two_states():
    import pytest

    assert Nba(ALPHA3, 2, [0], _TWO_LOOPS, ()).obligations == (1 << 0, 1 << 1)
    nba = Nba.from_masks(ALPHA3, 3, [0], [[0] * 3] * 3, ())
    assert nba.obligations == tuple(1 << q for q in range(3))
    with pytest.raises(ValueError):
        Nba.from_masks(ALPHA3, 3, [0], [[0] * 3] * 3, (), obligations=(0, 0))


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
                start = Nba.from_masks(
                    ALPHA3, nba.num_states, [q], nba.successor_masks, nba.accepting_sets
                )
                accepted[q] = {i for i, w in enumerate(lassos) if nba_accepts_lasso(start, w)}
            owes = nba.obligations
            for p in accepted:
                for q in accepted:
                    if not owes[p] & ~owes[q]:
                        assert accepted[q] <= accepted[p], (goal, p, q)
                        strict_pairs += owes[p] != owes[q] and bool(accepted[q])
    assert strict_pairs > 0
