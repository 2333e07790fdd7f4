"""Online sessions: stepping, early stopping, and conclusion permanence."""

import random

import pytest

from partmon.formats import parse_monitor
from partmon.fsm import Verdict, monitor_verdict, synthesize_monitor
from partmon.ltl import Alphabet, LassoWord, UnknownEventError, lasso_eval, parse_formula
from partmon.partial import partialize
from partmon.runtime import MonitorSession, compile_monitor, run_trace, start

from helpers import (
    ALPHA3,
    ALPHA4,
    LEAKY_FINALS_PMF,
    NAMES3,
    RADIATION_ALPHA,
    RADIATION_FORMULA,
    all_lassos,
    all_words,
    mixed_branches_machine,
    random_formula,
    reference_states,
    three_valued_machines,
)


def _radiation_monitor():
    phi = parse_formula(RADIATION_FORMULA, RADIATION_ALPHA)
    return partialize(synthesize_monitor(phi, RADIATION_ALPHA))


def _mixed_branches_monitor():
    phi = parse_formula("(ev1 & <>ev2) | (ev3 & []<>ev4)", ALPHA4)
    return partialize(synthesize_monitor(phi, ALPHA4))


# --- session start -----------------------------------------------------------

def test_start_concludes_immediately_on_giveup_only_monitor():
    alpha = RADIATION_ALPHA
    machine = partialize(synthesize_monitor(parse_formula("[]<>insp_t1", alpha), alpha))
    session = start(machine)
    assert session.concluded
    assert session.verdict is Verdict.GIVEUP
    assert session.steps == 0


def test_start_runs_on_decidable_monitor():
    session = start(partialize(synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)))
    assert not session.concluded
    assert session.verdict is Verdict.UNKNOWN


def test_start_concludes_top_for_trivial_property():
    session = start(partialize(synthesize_monitor(parse_formula("true", ALPHA3), ALPHA3)))
    assert session.concluded
    assert session.verdict is Verdict.TOP


def _session_view(machine, word):
    session = MonitorSession(machine)
    views = [(session.verdict, session.concluded, session.steps, session.position)]
    for event in word:
        session.step(event)
        views.append((session.verdict, session.concluded, session.steps, session.position))
    return views


def test_three_valued_machines_run_as_their_partialized_form():
    """run_trace and sessions on m give what they give on partialize(m): the
    hand-written three-valued machines and 30 seeded unminimized ones."""
    relabelled = 0
    for machine in three_valued_machines(2716):
        labelled = partialize(machine)
        relabelled += labelled is not machine
        for word in all_words(tuple(machine.alphabet), 4):
            for stop_early in (False, True):
                assert run_trace(machine, word, stop_early) == run_trace(labelled, word, stop_early)
            assert _session_view(machine, word) == _session_view(labelled, word)
    assert start(mixed_branches_machine()).step("ev3") is Verdict.GIVEUP
    assert relabelled >= 10


# --- stepping ------------------------------------------------------------------

def test_step_gives_up_on_medium_radiation():
    session = start(_radiation_monitor())
    assert session.step("rad_medium") is Verdict.GIVEUP
    assert session.concluded
    assert session.steps == 1


def test_step_sequence_to_decontamination():
    machine = _radiation_monitor()
    session = start(machine)
    assert session.step("rad_low") is Verdict.UNKNOWN
    assert session.step("rad_high") is Verdict.UNKNOWN
    assert session.step("mv_dec") is Verdict.TOP
    assert session.steps == 3

    # oracle confirmation: every bounded lasso continuation satisfies the property
    phi = parse_formula(RADIATION_FORMULA, RADIATION_ALPHA)
    prefix = ("rad_low", "rad_high", "mv_dec")
    for cont in all_lassos(RADIATION_ALPHA.symbols, 1, 1):
        assert lasso_eval(phi, LassoWord(prefix + cont.stem, cont.loop))


def test_step_violation_on_immediate_inspection():
    session = start(_radiation_monitor())
    assert session.step("insp_t1") is Verdict.BOT

    # oracle confirmation: no bounded lasso continuation satisfies the property
    phi = parse_formula(RADIATION_FORMULA, RADIATION_ALPHA)
    for cont in all_lassos(RADIATION_ALPHA.symbols, 1, 1):
        assert not lasso_eval(phi, LassoWord(("insp_t1",) + cont.stem, cont.loop))


def test_step_absorbs_events_after_conclusion():
    session = start(_radiation_monitor())
    session.step("insp_t1")
    assert session.concluded
    for event in ("rad_low", "rad_medium", "mv_dec"):
        assert session.step(event) is Verdict.BOT
    assert session.steps == 1  # nothing consumed after conclusion


def test_step_rejects_unknown_event():
    session = start(_radiation_monitor())
    with pytest.raises(UnknownEventError):
        session.step("warp_drive")


def test_unknown_event_after_conclusion_reports_its_own_position():
    session = start(_mixed_branches_monitor())
    for event in ("ev1", "ev2", "ev1", "ev1"):
        session.step(event)
    with pytest.raises(UnknownEventError) as err:
        session.step("zz")
    assert err.value.position == 5
    assert session.steps == 2  # transitions stop at conclusion
    assert session.position == 4  # a rejected event is not counted


# --- batch replay ----------------------------------------------------------------

def test_run_trace_mixed_property_satisfaction():
    machine = _mixed_branches_monitor()
    assert run_trace(machine, ("ev1", "ev2")) == [
        (1, Verdict.UNKNOWN),
        (2, Verdict.TOP),
    ]


def test_run_trace_stop_early_on_giveup():
    machine = _mixed_branches_monitor()
    assert run_trace(machine, ("ev3", "ev1", "ev2"), stop_early=True) == [
        (1, Verdict.GIVEUP)
    ]


def test_run_trace_without_stop_early_consumes_everything():
    machine = _mixed_branches_monitor()
    results = run_trace(machine, ("ev3", "ev1", "ev2"))
    assert [p for p, _ in results] == [1, 2, 3]
    assert all(v is Verdict.GIVEUP for _, v in results)


def test_run_trace_empty_trace():
    machine = _mixed_branches_monitor()
    assert run_trace(machine, ()) == []
    assert start(machine).verdict is Verdict.UNKNOWN


def test_run_trace_reports_offending_index():
    machine = _mixed_branches_monitor()
    with pytest.raises(UnknownEventError) as err:
        run_trace(machine, ("ev1", "bogus"))
    assert err.value.position == 2


def _a_then_x_b():
    abc = Alphabet(["a", "b", "c"])
    return synthesize_monitor(parse_formula("<>(a & X b)", abc), abc)


def _yield_then_raise(events, error):
    yield from events
    raise error


@pytest.mark.parametrize("stop_early", [False, True])
def test_run_trace_passes_on_the_trace_iterables_own_key_error(stop_early):
    """A KeyError or TypeError raised by the trace iterable comes back
    unchanged, at the first event or later, even when its key is not an
    event; an unknown event is still reported at its position."""
    machine = _a_then_x_b()
    for before in ((), ("a", "c")):
        for error in (KeyError(3), KeyError("zz"), TypeError("mine")):
            with pytest.raises(type(error)) as err:
                run_trace(machine, _yield_then_raise(before, error), stop_early)
            assert err.value is error
    for trace, position in ((["zz"], 1), (["a", "c", "zz"], 3)):
        with pytest.raises(UnknownEventError) as err:
            run_trace(machine, iter(trace), stop_early)
        assert (err.value.event, err.value.position) == ("zz", position)


@pytest.mark.parametrize("stop_early", [False, True])
def test_run_trace_refuses_an_unhashable_event_by_position(stop_early):
    machine = _a_then_x_b()
    for trace, position in (([["b"]], 1), (["a", ["b"]], 2)):
        with pytest.raises(UnknownEventError, match=r"^unknown event \"\['b'\]\" at position \d$") as err:
            run_trace(machine, iter(trace), stop_early)
        assert (err.value.event, err.value.position) == (["b"], position)


def test_session_refuses_an_unhashable_event_and_keeps_its_place():
    session = start(_a_then_x_b())
    session.step("c")
    with pytest.raises(UnknownEventError) as err:
        session.step(["b"])
    assert (err.value.event, err.value.position) == (["b"], 2)
    assert (session.position, session.steps, session.verdict) == (1, 1, Verdict.UNKNOWN)
    assert session.step("a") is Verdict.UNKNOWN
    assert session.step("b") is Verdict.TOP


def test_run_trace_agrees_with_monitor_verdict():
    rng = random.Random(2711)
    words = all_words(NAMES3, 4)
    for _ in range(25):
        machine = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        for word in words:
            results = run_trace(machine, word)
            final = results[-1][1] if results else machine.output(machine.initial)
            assert final is monitor_verdict(machine, word)


def test_verdict_sequences_follow_the_session_discipline():
    """Per session: zero or more UNKNOWNs, then at most one settled verdict."""
    rng = random.Random(2712)
    words = all_words(NAMES3, 5)
    for _ in range(15):
        machine = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        for word in words:
            verdicts = [v for _, v in run_trace(machine, word)]
            settled = [v for v in verdicts if v.is_final]
            if settled:
                first = verdicts.index(settled[0])
                assert all(v is Verdict.UNKNOWN for v in verdicts[:first])
                assert all(v is settled[0] for v in verdicts[first:])


# --- compiled runtime against the reference stepper ------------------------------

def _replay_outcome(machine, trace, stop_early):
    try:
        return run_trace(machine, trace, stop_early=stop_early)
    except UnknownEventError as err:
        return ("unknown", err.event, err.position)


def _reference_replay(machine, trace, stop_early):
    try:
        states = reference_states(machine, trace, stop_early)
    except UnknownEventError as err:
        return ("unknown", err.event, err.position)
    return [(position, machine.outputs[q]) for position, q in enumerate(states, start=1)]


def _session_records(machine, trace):
    """(verdict, state, steps, position) after each step, then the error if any."""
    session = start(machine)
    records = []
    try:
        for event in trace:
            records.append((session.step(event), session.current, session.steps, session.position))
    except UnknownEventError as err:
        records.append(("unknown", err.event, err.position))
    return records


def _reference_session(machine, trace):
    records = []
    for position in range(1, len(trace) + 1):
        try:
            states = reference_states(machine, trace[:position])
        except UnknownEventError as err:
            records.append(("unknown", err.event, err.position))
            break
        before = [machine.initial] + states[:-1]
        steps = sum(not machine.outputs[q].is_final for q in before)
        records.append((machine.outputs[states[-1]], states[-1], steps, position))
    return records


def _assert_matches_reference(machine, traces):
    for trace in traces:
        for stop_early in (False, True):
            assert _replay_outcome(machine, trace, stop_early) == _reference_replay(
                machine, trace, stop_early
            ), (trace, stop_early)
        assert _session_records(machine, trace) == _reference_session(machine, trace), trace


def test_compiled_runtime_matches_reference_on_random_machines():
    rng = random.Random(2713)
    words = all_words(NAMES3, 5)
    for _ in range(20):
        machine = partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3))
        _assert_matches_reference(machine, words)


def test_compiled_runtime_matches_reference_without_minimization():
    rng = random.Random(2714)
    words = all_words(NAMES3, 5)
    for _ in range(10):
        machine = partialize(
            synthesize_monitor(random_formula(rng, 4), ALPHA3, minimize=False)
        )
        _assert_matches_reference(machine, words)


def test_final_states_stay_put_despite_their_edges():
    machine = parse_monitor(LEAKY_FINALS_PMF)
    assert run_trace(machine, ("ev1", "ev1", "ev3")) == [
        (1, Verdict.TOP),
        (2, Verdict.TOP),
        (3, Verdict.TOP),
    ]
    session = start(machine)
    for event in ("ev2", "ev1", "ev2", "ev3"):
        assert session.step(event) is Verdict.GIVEUP
    assert (session.current, session.steps, session.position) == (3, 1, 4)
    _assert_matches_reference(machine, all_words(NAMES3, 5))


def test_replay_starts_at_an_initial_state_that_is_not_state_0():
    machine = parse_monitor(LEAKY_FINALS_PMF.replace("INITIAL s0", "INITIAL s1"))
    assert machine.initial == 1
    assert run_trace(machine, ("ev1",)) == [(1, Verdict.UNKNOWN)]
    _assert_matches_reference(machine, all_words(NAMES3, 5))


def test_unknown_event_positions_match_reference():
    rng = random.Random(2715)
    machines = [parse_monitor(LEAKY_FINALS_PMF)] + [
        partialize(synthesize_monitor(random_formula(rng, 4), ALPHA3)) for _ in range(10)
    ]
    traces = [
        word[:cut] + ("zz",) + word[cut:]
        for word in all_words(NAMES3, 4)
        for cut in range(len(word) + 1)
    ]
    absorbed = 0  # stop-early replays that never read the unknown event
    for machine in machines:
        _assert_matches_reference(machine, traces)
        absorbed += sum(
            isinstance(_replay_outcome(machine, trace, True), list) for trace in traces
        )
    assert absorbed  # the unknown event came after conclusion in some trace


def test_table_is_built_on_first_run_and_kept():
    machine = _mixed_branches_monitor()
    assert machine._compiled is None  # synthesis does not pay for it
    run_trace(machine, ("ev1",))
    compiled = machine._compiled
    assert compiled is not None
    start(machine).step("ev2")
    assert compile_monitor(machine) is compiled
