"""Give-up relabeling and monitorability classification."""

import random

import pytest

from partmon.fsm import Verdict, minimize_moore, monitor_verdict, synthesize_monitor
from partmon.partial import (
    Monitorability,
    classify,
    partialize,
)
from partmon.graphs import can_reach
from partmon.ltl import Always, And, Atom, Eventually, Next, Or, Until, parse_formula
from partmon.runtime import run_trace

from helpers import (
    ALPHA3,
    ALPHA4,
    NAMES3,
    RADIATION_ALPHA,
    RADIATION_FORMULA,
    all_words,
    mixed_branches_machine,
    giveup_only_machine,
    moore_isomorphic,
    random_formula,
    reachability_oracle,
    three_valued_machines,
)


def _mixed_branches_partial():
    phi = parse_formula("(ev1 & <>ev2) | (ev3 & []<>ev4)", ALPHA4)
    return partialize(synthesize_monitor(phi, ALPHA4))


# --- partialize ----------------------------------------------------------------

def test_partialize_relabels_only_the_hopeless_state():
    machine = _mixed_branches_partial()
    assert moore_isomorphic(machine, mixed_branches_machine(partial=True))


def test_partialize_recurrence_gives_up_immediately():
    machine = partialize(synthesize_monitor(parse_formula("[]<>ev1", ALPHA3), ALPHA3))
    assert machine.num_states == 1
    assert machine.outputs == (Verdict.GIVEUP,)


def test_partialize_keeps_decidable_machines_unchanged():
    before = synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)
    after = partialize(before)
    assert after.outputs == before.outputs
    assert after.delta == before.delta
    assert after.initial == before.initial
    assert after is before  # nothing to relabel: no new machine


def test_partialize_is_structure_preserving_and_idempotent():
    rng = random.Random(515)
    for _ in range(40):
        machine = synthesize_monitor(random_formula(rng, 4), ALPHA3)
        partial = partialize(machine)
        assert partial.delta == machine.delta
        assert partial.initial == machine.initial
        assert partial.num_states == machine.num_states
        for before, after in zip(machine.outputs, partial.outputs):
            if before is Verdict.UNKNOWN:
                assert after in (Verdict.UNKNOWN, Verdict.GIVEUP)
            else:
                assert after is before
        again = partialize(partial)
        assert again.outputs == partial.outputs


def test_partialize_sweeps_once_per_machine(monkeypatch):
    """The first call keeps its result on the machine and on the result, so
    partialize, classify and the runtime never sweep that machine again."""
    import partmon.partial

    sweeps = []

    def counting_can_reach(adjacency, targets):
        sweeps.append(len(adjacency))
        return can_reach(adjacency, targets)

    monkeypatch.setattr(partmon.partial, "can_reach", counting_can_reach)
    relabelled = 0
    for machine in three_valued_machines(0xCAC4E, count=10) + [giveup_only_machine()]:
        outputs = machine.outputs
        partial = partialize(machine)
        assert len(sweeps) == 1
        relabelled += partial is not machine
        assert partialize(machine) is partial
        assert partialize(partial) is partial
        assert classify(machine) == classify(partial)
        run_trace(machine, machine.alphabet.symbols[:1])
        run_trace(partial, machine.alphabet.symbols[:1])
        assert len(sweeps) == 1
        assert machine.outputs == outputs
        sweeps.clear()
    assert relabelled >= 3


def test_partialize_agrees_with_forward_oracle():
    rng = random.Random(616)
    for _ in range(40):
        partial = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        for state in partial.states():
            reachable = reachability_oracle(partial, state)
            if partial.outputs[state] is Verdict.GIVEUP:
                assert not reachable
            else:
                assert reachable


def test_giveup_states_are_closed_under_successors():
    rng = random.Random(717)
    for _ in range(40):
        partial = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        for state in partial.states():
            if partial.outputs[state] is Verdict.GIVEUP:
                for target in partial.delta[state]:
                    assert partial.outputs[target] is Verdict.GIVEUP


def test_partialize_commutes_with_minimization():
    rng = random.Random(818)
    for _ in range(25):
        raw = synthesize_monitor(random_formula(rng, 4), ALPHA3, minimize=False)
        assert moore_isomorphic(
            minimize_moore(partialize(raw)), partialize(minimize_moore(raw))
        )


def test_unknown_states_reach_conclusion_within_diameter():
    """Every inconclusive state of a partialized machine can reach a
    conclusive verdict in fewer steps than there are states."""
    rng = random.Random(2024)
    for _ in range(30):
        partial = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        # shortest trace from the initial state to each state
        paths = {partial.initial: ()}
        frontier = [partial.initial]
        while frontier:
            nxt = []
            for q in frontier:
                for k, event in enumerate(partial.alphabet):
                    t = partial.delta[q][k]
                    if t not in paths:
                        paths[t] = paths[q] + (event,)
                        nxt.append(t)
            frontier = nxt
        for state in partial.states():
            if partial.outputs[state] is not Verdict.UNKNOWN:
                continue
            # breadth-first distance from `state` to any conclusive state
            seen = {state: ()}
            frontier = [state]
            suffix = None
            while frontier and suffix is None:
                nxt = []
                for q in frontier:
                    for k, event in enumerate(partial.alphabet):
                        t = partial.delta[q][k]
                        if t in seen:
                            continue
                        seen[t] = seen[q] + (event,)
                        if partial.outputs[t].is_conclusive:
                            suffix = seen[t]
                            break
                        nxt.append(t)
                    if suffix is not None:
                        break
                frontier = nxt
            assert suffix is not None
            assert len(suffix) <= partial.num_states - 1
            assert monitor_verdict(partial, paths[state] + suffix).is_conclusive


def test_disjoined_implications_are_universally_monitorable():
    """(ev1 -> <>ev2) | (ev3 -> []ev4): with mutually exclusive events at most
    one antecedent can hold at the first position, so some implication is
    always vacuously true and the property is universally monitorable."""
    report = classify(
        partialize(
            synthesize_monitor(
                parse_formula("(ev1 -> <>ev2) | (ev3 -> []ev4)", ALPHA4), ALPHA4
            )
        )
    )
    assert report.classification is Monitorability.FORALL_PZ
    assert report.giveup_state_count == 0


def test_partialize_commutes_with_negation():
    """A trace is hopeless for a property iff it is hopeless for its negation."""
    from partmon.ltl import Not

    rng = random.Random(919)
    words = all_words(NAMES3, 4)
    for _ in range(20):
        phi = random_formula(rng, 3)
        pos = partialize(synthesize_monitor(phi, ALPHA3))
        neg = partialize(synthesize_monitor(Not(phi), ALPHA3))
        for word in words:
            a = monitor_verdict(pos, word)
            b = monitor_verdict(neg, word)
            assert (a is Verdict.GIVEUP) == (b is Verdict.GIVEUP), (phi, word)


# --- reachability oracle ---------------------------------------------------------

def test_reachability_oracle_on_mixed_machine():
    machine = mixed_branches_machine(partial=True)
    assert not reachability_oracle(machine, 2)  # the give-up sink
    assert reachability_oracle(machine, 0)  # BOT one step away
    assert reachability_oracle(machine, 4)  # a TOP state reaches itself


def test_reachability_oracle_range_check():
    with pytest.raises(ValueError):
        reachability_oracle(mixed_branches_machine(partial=True), 99)


# --- classification ----------------------------------------------------------------

def test_classify_mixed_branches():
    report = classify(_mixed_branches_partial())
    assert report.classification is Monitorability.EXISTS_PZ_ONLY
    assert report.ugly_witness == ("ev3",)
    assert report.state_count == 5
    assert report.giveup_state_count == 1
    assert report.can_reach_top and report.can_reach_bot


def test_classify_recurrence_is_non_monitorable():
    report = classify(partialize(synthesize_monitor(parse_formula("[]<>ev1", ALPHA3), ALPHA3)))
    assert report.classification is Monitorability.NON_MONITORABLE
    assert report.ugly_witness == ()
    assert not report.can_reach_top and not report.can_reach_bot


def test_classify_eventually_is_universally_monitorable():
    report = classify(partialize(synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)))
    assert report.classification is Monitorability.FORALL_PZ
    assert report.can_reach_top
    assert not report.can_reach_bot
    assert report.ugly_witness is None
    assert report.giveup_state_count == 0


def test_witness_ties_break_by_alphabet_declaration_order():
    """Two equally short traces lead to give-up states; the winner follows the
    alphabet's declaration order, not lexicographic event names."""
    from partmon.fsm import MooreMonitor
    from partmon.ltl import Alphabet

    alpha = Alphabet(("b", "a", "c"))  # deliberately not alphabetical
    machine = MooreMonitor(
        alpha,
        4,
        0,
        [[1, 2, 3], [1, 1, 1], [2, 2, 2], [3, 3, 3]],
        [Verdict.UNKNOWN, Verdict.GIVEUP, Verdict.GIVEUP, Verdict.TOP],
    )
    assert classify(machine).ugly_witness == ("b",)


def test_witness_is_the_first_word_that_gives_up():
    """The witness is the first word, shortest first and in declaration order
    within a length, that the machine sends to GIVEUP."""
    rng = random.Random(1313)
    cases = [(random_formula(rng, 4), ALPHA3) for _ in range(40)]
    # Plain random formulas rarely give up after a nonempty prefix; these
    # reach a recurrence, which gives up, after 1 to 4 events.
    for _ in range(40):
        late = And(Atom(rng.choice(NAMES3)), Always(Eventually(Atom(rng.choice(NAMES3)))))
        for _ in range(rng.randrange(4)):
            late = Next(late)
        cases.append((Or(random_formula(rng, 3), Until(random_formula(rng, 2), late)), ALPHA3))
    cases.append((parse_formula(RADIATION_FORMULA, RADIATION_ALPHA), RADIATION_ALPHA))
    words = {alphabet: all_words(tuple(alphabet), 5) for alphabet in (ALPHA3, RADIATION_ALPHA)}
    nonempty = 0
    for phi, alphabet in cases:
        machine = partialize(synthesize_monitor(phi, alphabet))
        witness = classify(machine).ugly_witness
        first = next(
            (w for w in words[alphabet] if monitor_verdict(machine, w) is Verdict.GIVEUP), None
        )
        if first is None:
            assert witness is None or len(witness) > 5
        else:
            assert witness == first
            nonempty += len(first) > 0
    assert nonempty >= 20


def test_classify_reports_on_the_partialized_machine():
    """classify(m) == classify(partialize(m)) on three-valued machines, the
    hand-written ones and 30 seeded unminimized ones."""
    relabelled = 0
    for machine in three_valued_machines(1019):
        labelled = partialize(machine)
        relabelled += labelled is not machine
        assert classify(machine) == classify(labelled)
    assert classify(mixed_branches_machine()).classification is Monitorability.EXISTS_PZ_ONLY
    assert relabelled >= 10


def test_classify_report_serialization():
    report = classify(giveup_only_machine())
    assert report.as_dict() == {
        "classification": "NON_MONITORABLE",
        "can_reach_top": False,
        "can_reach_bot": False,
        "state_count": 1,
        "giveup_state_count": 1,
        "ugly_witness": [],
    }


def test_classify_report_is_an_immutable_value():
    report = classify(mixed_branches_machine())
    assert report == classify(mixed_branches_machine())
    assert hash(report) == hash(classify(mixed_branches_machine()))
    assert report != classify(giveup_only_machine())
    assert repr(report) == (
        "MonitorabilityReport(classification=<Monitorability.EXISTS_PZ_ONLY: 'EXISTS_PZ_ONLY'>,"
        " can_reach_top=True, can_reach_bot=True, state_count=5, giveup_state_count=1,"
        " ugly_witness=('ev3',))"
    )
    with pytest.raises(AttributeError):
        report.state_count = 0
    with pytest.raises(AttributeError):
        del report.ugly_witness
    assert report.state_count == 5 and report.ugly_witness == ("ev3",)


def test_classification_invariants_on_random_formulas():
    rng = random.Random(1021)
    for _ in range(40):
        partial = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        report = classify(partial)
        initial_gives_up = partial.outputs[partial.initial] is Verdict.GIVEUP
        assert (report.classification is Monitorability.NON_MONITORABLE) == initial_gives_up
        assert (report.classification is Monitorability.FORALL_PZ) == (
            report.giveup_state_count == 0
        )
        if report.classification is Monitorability.NON_MONITORABLE:
            assert not report.can_reach_top and not report.can_reach_bot
        if report.ugly_witness is not None:
            assert monitor_verdict(partial, report.ugly_witness) is Verdict.GIVEUP
        else:
            assert report.giveup_state_count == 0
