"""PMF serialization, DOT export, and trace parsing."""

import io
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon import formats
from partmon.formats import (
    FormatError,
    ValidationError,
    emit_dot,
    emit_monitor,
    line_batches,
    parse_monitor,
    parse_trace,
    trace_events,
)
from partmon.fsm import Verdict, synthesize_monitor
from partmon.ltl import UnknownEventError, parse_formula
from partmon.partial import classify, partialize
from partmon.runtime import run_trace

from helpers import (
    ALPHA3,
    NAMES3,
    RADIATION_ALPHA,
    RADIATION_FORMULA,
    eventually_ev1_machine,
    mixed_branches_machine,
    giveup_only_machine,
    moore_isomorphic,
    radiation_machine,
    random_formula,
)


# --- PMF emission -----------------------------------------------------------

def test_emit_eventually_machine_layout():
    text = emit_monitor(eventually_ev1_machine())
    lines = text.strip().splitlines()
    assert lines[0] == "PMF 1"
    assert lines[1] == "ALPHABET ev1 ev2 ev3"
    assert lines[2] == "INITIAL s0"
    state_lines = [l for l in lines if l.startswith("STATE")]
    trans_lines = [l for l in lines if l.startswith("TRANS")]
    assert state_lines == ["STATE s0 ?", "STATE s1 TOP"]
    assert len(trans_lines) == 6


def test_emit_giveup_output_symbol():
    text = emit_monitor(giveup_only_machine())
    assert "STATE s0 x" in text.splitlines()


def test_emission_is_deterministic():
    machine = mixed_branches_machine(partial=True)
    assert emit_monitor(machine) == emit_monitor(machine)
    again = mixed_branches_machine(partial=True)
    assert emit_monitor(machine) == emit_monitor(again)


# --- PMF parsing round trip ----------------------------------------------------

def test_round_trip_random_machines():
    """A machine read back from PMF classifies and runs as the one written,
    including partialized machines without a give-up state, such as <>ev1's."""
    rng = random.Random(3001)
    formulas = [parse_formula("<>ev1", ALPHA3)] + [random_formula(rng, 4) for _ in range(100)]
    for phi in formulas:
        machine = partialize(synthesize_monitor(phi, ALPHA3))
        parsed = parse_monitor(emit_monitor(machine))
        assert moore_isomorphic(parsed, machine)
        assert classify(parsed) == classify(machine)
        for _ in range(5):
            word = rng.choices(NAMES3, k=rng.randrange(8))
            assert run_trace(parsed, word) == run_trace(machine, word)


def test_round_trip_radiation_machine():
    machine = partialize(
        synthesize_monitor(
            parse_formula(RADIATION_FORMULA, RADIATION_ALPHA), RADIATION_ALPHA
        )
    )
    parsed = parse_monitor(emit_monitor(machine))
    assert parsed.num_states == 5
    assert sum(1 for v in parsed.outputs if v is Verdict.GIVEUP) == 1
    assert moore_isomorphic(parsed, radiation_machine())


def test_parse_accepts_comments_and_blank_lines():
    text = emit_monitor(eventually_ev1_machine())
    noisy = "# monitor file\n\n" + text.replace("INITIAL s0", "INITIAL s0  # start here")
    assert moore_isomorphic(parse_monitor(noisy), eventually_ev1_machine())


@pytest.mark.parametrize("separator", ["\f", "\x85", "\u2028"])
def test_pmf_lines_end_only_at_lf_crlf_or_cr(separator):
    """Other line separators neither end a comment nor count as a line."""
    text = emit_monitor(eventually_ev1_machine())
    hidden = text.replace("INITIAL s0", f"INITIAL s0 # {separator}STATE s9 TOP")
    assert moore_isomorphic(parse_monitor(hidden), eventually_ev1_machine())
    crs = text.replace("\n", " # a comment ended by CR\r")
    assert moore_isomorphic(parse_monitor(crs), eventually_ev1_machine())
    with pytest.raises(FormatError) as err:
        parse_monitor(f"PMF 1 # {separator}\r\nALPHABET ev1 # {separator}\rBOGUS\n")
    assert err.value.line == 3


# --- PMF validation errors -------------------------------------------------------

_GOOD = """PMF 1
ALPHABET ev1 ev2 ev3
INITIAL s0
STATE s0 ?
STATE s1 TOP
TRANS s0 ev1 s1
TRANS s0 ev2 s0
TRANS s0 ev3 s0
TRANS s1 ev1 s1
TRANS s1 ev2 s1
TRANS s1 ev3 s1
"""


def test_parse_good_file():
    machine = parse_monitor(_GOOD)
    assert moore_isomorphic(machine, eventually_ev1_machine())


def test_parse_missing_transition_is_not_total():
    with pytest.raises(ValidationError, match="delta not total"):
        parse_monitor(_GOOD.replace("TRANS s1 ev3 s1\n", ""))


def test_parse_unknown_output():
    with pytest.raises(ValidationError, match="unknown output"):
        parse_monitor(_GOOD.replace("STATE s1 TOP", "STATE s1 MAYBE"))


def test_parse_duplicate_state():
    with pytest.raises(ValidationError, match="duplicate state"):
        parse_monitor(_GOOD.replace("STATE s1 TOP", "STATE s0 TOP"))


def test_parse_duplicate_transition():
    with pytest.raises(ValidationError, match="duplicate transition"):
        parse_monitor(_GOOD + "TRANS s1 ev3 s0\n")


def test_parse_undeclared_states():
    with pytest.raises(ValidationError, match="undeclared state"):
        parse_monitor(_GOOD + "TRANS s9 ev1 s0\n")
    with pytest.raises(ValidationError, match="is not declared"):
        parse_monitor(_GOOD.replace("INITIAL s0", "INITIAL s7"))


def test_parse_format_errors():
    with pytest.raises(FormatError):
        parse_monitor("MONITOR 1\n")
    with pytest.raises(FormatError):
        parse_monitor(_GOOD.replace("PMF 1", "PMF 9"))
    with pytest.raises(FormatError):
        parse_monitor(_GOOD + "WIBBLE s0\n")
    with pytest.raises(FormatError):
        parse_monitor(_GOOD + "TRANS s0 ev1\n")  # arity
    with pytest.raises(ValidationError):
        parse_monitor("PMF 1\nALPHABET ev1\nINITIAL s0\n")  # no states


# Lines of a PMF file, valid and broken, so that generated text also reaches
# the checks past the line grammar.
_PMF_LINES = st.lists(
    st.sampled_from(
        ["PMF 1", "PMF 9", "ALPHABET ev1 ev2", "ALPHABET ev1 ev1", "ALPHABET é", "ALPHABET X",
         "INITIAL s0", "INITIAL s1", "STATE s0 ?", "STATE s0 TOP", "STATE s1 x", "STATE s1 ¿",
         "TRANS s0 ev1 s0", "TRANS s0 ev2 s1", "TRANS s1 ev1 s1", "TRANS s1 ev2 s1",
         "TRANS s0 ev3 s0", "TRANS s0", "# note", "", "WIBBLE"]
    ),
    max_size=12,
).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=60), _PMF_LINES))
def test_parse_monitor_raises_only_typed_errors(text):
    try:
        parse_monitor(text)
    except (FormatError, ValidationError):
        pass


def test_parse_unreachable_state_rejected():
    text = _GOOD + "STATE s2 BOT\n" + "".join(
        f"TRANS s2 {e} s2\n" for e in ("ev1", "ev2", "ev3")
    )
    with pytest.raises(ValidationError, match="unreachable"):
        parse_monitor(text)


# --- DOT export --------------------------------------------------------------

def test_dot_eventually_machine_labels():
    dot = emit_dot(eventually_ev1_machine())
    assert dot.startswith("digraph monitor {")
    assert "__start -> s0;" in dot
    assert 's0 -> s1 [label="ev1"];' in dot
    assert 's0 -> s0 [label="ev2, ev3"];' in dot
    assert 's1 -> s1 [label="*"];' in dot


def test_dot_giveup_machine_star_loop():
    dot = emit_dot(giveup_only_machine())
    assert 's0 -> s0 [label="*"];' in dot
    assert dot.count("label=\"*\"") == 1


def test_dot_one_missing_event_uses_star_minus():
    dot = emit_dot(mixed_branches_machine(partial=True))
    # the committed state loops on every event except ev2
    assert 's1 -> s1 [label="* \\\\ ev2"];' in dot


def test_dot_is_deterministic():
    machine = mixed_branches_machine(partial=True)
    assert emit_dot(machine) == emit_dot(machine)


# --- trace parsing ---------------------------------------------------------------

def test_parse_trace_event_names():
    trace = parse_trace("rad_low rad_high mv_dec", RADIATION_ALPHA)
    assert trace == ("rad_low", "rad_high", "mv_dec")


def test_parse_trace_empty():
    assert parse_trace("", ALPHA3) == ()
    assert parse_trace("# only a comment\n", ALPHA3) == ()


def test_parse_trace_unknown_event_position():
    with pytest.raises(UnknownEventError) as err:
        parse_trace("rad_low radX", RADIATION_ALPHA)
    assert err.value.event == "radX"
    assert err.value.position == 2


def test_parse_trace_multiline_with_comments():
    text = "ev1 ev2   # first burst\n\nev3\nev1 # tail\n"
    assert parse_trace(text, ALPHA3) == ("ev1", "ev2", "ev3", "ev1")


@pytest.mark.parametrize("separator", ["\f", "\x85", "\u2028"])
def test_trace_comment_runs_to_lf_crlf_or_cr(separator):
    assert parse_trace(f"ev1 # skip{separator}ev2\nev3", ALPHA3) == ("ev1", "ev3")
    assert parse_trace(f"ev1 # skip{separator}ev2\rev3", ALPHA3) == ("ev1", "ev3")
    assert parse_trace(f"ev1 #{separator}\r\nev2", ALPHA3) == ("ev1", "ev2")


def _plain_events(text):
    """The plain rule: lines end at LF, CR LF or CR; drop each line's
    comment, then split on whitespace."""
    lines = re.split(r"\r\n|\r|\n", text)
    return tuple(event for line in lines for event in line.split("#", 1)[0].split())


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab #\n\r\t\x0b\x0c\x1c\x85\u2028\u2029", max_size=40))
def test_trace_events_read_line_by_line_match_whole_text(text):
    """``partmon run`` reads a trace file line by line; ``parse_trace`` splits
    the whole text.  Both must yield the events of the plain rule, whether
    the lines come from a file or from stdin, which splits lines at LF only
    and leaves CR as it is."""
    expected = _plain_events(text)
    file_lines = io.StringIO(text, newline=None)  # how open() reads a trace file
    stdin_lines = io.StringIO(text, newline="\n")  # how sys.stdin reads on POSIX
    assert tuple(trace_events(file_lines)) == expected
    assert tuple(trace_events(stdin_lines)) == expected
    assert tuple(trace_events((text,))) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab #\n\r\t\x0b\x85", max_size=60), st.integers(1, 8))
def test_line_batches_end_at_line_breaks(text, size):
    """``partmon run`` reads a trace in batches of whole lines: each batch
    but the last is at least ``size`` characters and ends at a line break,
    no batch runs past the line that its first ``size`` characters end in,
    and the batches hold the events of the whole text."""
    with mock.patch.object(formats, "_BATCH", size):
        batches = list(line_batches(io.StringIO(text, newline=None)))
    read = text.replace("\r\n", "\n").replace("\r", "\n")  # how open() reads a trace file
    assert "".join(batches) == read
    assert all(len(batch) >= size and batch.endswith("\n") for batch in batches[:-1])
    assert not any("\n" in batch[size:-1] for batch in batches)
    expected = _plain_events(text)
    assert tuple(trace_events(batches)) == tuple(trace_events((text,))) == expected
