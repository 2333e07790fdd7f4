"""Command-line behavior: output contracts and exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.cli import main
from partmon.formats import emit_monitor, parse_monitor, parse_trace
from partmon.fsm import Verdict, monitor_verdict, synthesize_monitor
from partmon.ltl import Alphabet, UnknownEventError, parse_formula
from partmon.partial import partialize
from partmon.runtime import run_trace

from helpers import (
    ALPHA3,
    LEAKY_FINALS_PMF,
    NAMES3,
    RADIATION_FORMULA,
    all_words,
    eventually_ev1_machine,
    mixed_branches_machine,
    moore_isomorphic,
    random_formula,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- synth -------------------------------------------------------------------

def test_synth_writes_pmf_to_stdout(capsys):
    code, out, err = run_cli(capsys, "synth", "-f", "<>ev1", "-a", "ev1,ev2,ev3")
    assert code == 0 and err == ""
    machine = parse_monitor(out)
    assert moore_isomorphic(machine, eventually_ev1_machine())
    assert out.splitlines()[0] == "PMF 1"


def test_synth_writes_files(tmp_path, capsys):
    pmf = tmp_path / "monitor.pmf"
    dot = tmp_path / "monitor.dot"
    code, out, _ = run_cli(
        capsys,
        "synth",
        "-f",
        "(ev1 & <>ev2) | (ev3 & []<>ev4)",
        "-a",
        "ev1,ev2,ev3,ev4",
        "-o",
        str(pmf),
        "--dot",
        str(dot),
    )
    assert code == 0 and out == ""
    machine = parse_monitor(pmf.read_text())
    assert moore_isomorphic(machine, mixed_branches_machine(partial=True))
    assert dot.read_text().startswith("digraph monitor {")


def test_synth_infer_alphabet_uses_first_occurrence(capsys):
    code, out, _ = run_cli(capsys, "synth", "-f", "ev2 U ev1", "--infer-alphabet")
    assert code == 0
    assert "ALPHABET ev2 ev1" in out


def test_synth_syntax_error_exits_65(capsys):
    code, out, err = run_cli(capsys, "synth", "-f", "(ev1 &", "-a", "ev1,ev2")
    assert code == 65
    assert "error:" in err


@pytest.mark.parametrize(
    "text",
    ["!" * 3000 + "a", "(" * 2000 + "a" + ")" * 2000, " & ".join(["a"] * 1500)],
    ids=["negations", "parentheses", "conjunction_chain"],
)
def test_classify_too_deep_formula_exits_65(capsys, text):
    code, out, err = run_cli(capsys, "classify", "-f", text, "-a", "a")
    assert code == 65 and out == ""
    assert "nested deeper than" in err and "position" in err


def test_synth_unknown_atom_exits_65(capsys):
    code, _, err = run_cli(capsys, "synth", "-f", "<>zork", "-a", "ev1,ev2")
    assert code == 65 and "zork" in err


def test_synth_requires_alphabet_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "-f", "<>ev1"])
    assert exc.value.code == 64


def test_usage_error_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--no-such-flag"])
    assert exc.value.code == 64


def test_infer_alphabet_without_atoms_exits_65(capsys):
    code, _, err = run_cli(capsys, "synth", "-f", "true", "--infer-alphabet")
    assert code == 65 and "alphabet" in err


# --- classify -----------------------------------------------------------------

def test_classify_exists_pz(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "-f", "(ev1 & <>ev2) | (ev3 & []<>ev4)", "-a", "ev1,ev2,ev3,ev4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "EXISTS_PZ_ONLY"
    assert report["ugly_witness"] == ["ev3"]
    assert report["state_count"] == 5
    assert report["giveup_state_count"] == 1


def test_classify_forall_pz(capsys):
    code, out, _ = run_cli(capsys, "classify", "-f", "<>ev1", "-a", "ev1,ev2,ev3")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "FORALL_PZ"
    assert report["can_reach_top"] is True
    assert report["can_reach_bot"] is False
    assert report["ugly_witness"] is None


def test_classify_non_monitorable(capsys):
    code, out, _ = run_cli(capsys, "classify", "-f", "[]<>ev1", "-a", "ev1,ev2,ev3")
    assert code == 0  # classification is the answer, not an error
    report = json.loads(out)
    assert report["classification"] == "NON_MONITORABLE"
    assert report["ugly_witness"] == []


# --- run -----------------------------------------------------------------------

RAD_ALPHA_CSV = "rad_low,rad_high,rad_medium,mv_dec,insp_t1,insp_t2"


def test_run_trace_to_top(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("rad_low rad_high mv_dec\n")
    code, out, _ = run_cli(
        capsys, "run", "-f", RADIATION_FORMULA, "-a", RAD_ALPHA_CSV, "-t", str(trace)
    )
    lines = out.splitlines()
    assert lines == [
        "1 rad_low ?",
        "2 rad_high ?",
        "3 mv_dec TOP",
        "FINAL TOP",
    ]
    assert code == 0


def test_run_stop_early_gives_up(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("rad_medium insp_t1\n")
    code, out, _ = run_cli(
        capsys,
        "run",
        "-f",
        RADIATION_FORMULA,
        "-a",
        RAD_ALPHA_CSV,
        "-t",
        str(trace),
        "--stop-early",
    )
    lines = out.splitlines()
    assert lines == ["1 rad_medium x", "FINAL x"]
    assert code == 3


def test_run_exit_codes_cover_all_verdicts(tmp_path, capsys):
    cases = [
        ("ev1 ev2", 0),  # TOP: ev1 then the eventually-ev2 part satisfied
        ("ev2", 1),  # BOT immediately
        ("ev1", 2),  # still waiting on ev2
        ("ev3", 3),  # give-up branch
    ]
    for text, expected in cases:
        trace = tmp_path / "t.trace"
        trace.write_text(text + "\n")
        code, out, _ = run_cli(
            capsys,
            "run",
            "-f",
            "(ev1 & <>ev2) | (ev3 & []<>ev4)",
            "-a",
            "ev1,ev2,ev3,ev4",
            "-t",
            str(trace),
        )
        assert code == expected, (text, out)


def test_run_from_pmf_matches_in_memory_run(tmp_path, capsys):
    pmf = tmp_path / "m.pmf"
    code, _, _ = run_cli(
        capsys,
        "synth",
        "-f",
        "(ev1 & <>ev2) | (ev3 & []<>ev4)",
        "-a",
        "ev1,ev2,ev3,ev4",
        "-o",
        str(pmf),
    )
    assert code == 0
    machine = parse_monitor(pmf.read_text())

    trace = tmp_path / "t.trace"
    trace.write_text("ev1 ev4 ev2\n")
    code, out, _ = run_cli(capsys, "run", "-m", str(pmf), "-t", str(trace))
    assert out.splitlines()[-1] == "FINAL TOP"
    assert code == 0
    assert monitor_verdict(machine, ("ev1", "ev4", "ev2")) is Verdict.TOP


# A three-valued machine: its only state is undecided and can never conclude.
_HOPELESS_PMF = """\
PMF 1
ALPHABET ev1 ev2
INITIAL s0
STATE s0 ?
TRANS s0 ev1 s0
TRANS s0 ev2 s0
"""


def test_run_empty_trace_reports_initial_verdict(tmp_path, capsys):
    """FINAL on an empty trace is the partialized machine's initial verdict,
    whether the machine comes from a formula or from a three-valued file."""
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    pmf = tmp_path / "hopeless.pmf"
    pmf.write_text(_HOPELESS_PMF)
    cases = [
        (("-f", "<>ev1", "-a", "ev1,ev2,ev3"), "FINAL ?", 2),
        (("-f", "[]<>ev1", "-a", "ev1,ev2,ev3"), "FINAL x", 3),
        (("-m", str(pmf)), "FINAL x", 3),
    ]
    for source, final, expected in cases:
        code, out, _ = run_cli(capsys, "run", *source, "-t", str(trace))
        assert out.splitlines() == [final], source
        assert code == expected, source


def test_run_unknown_trace_event_exits_65(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("ev1 warp\n")
    code, _, err = run_cli(
        capsys, "run", "-f", "<>ev1", "-a", "ev1,ev2,ev3", "-t", str(trace)
    )
    assert code == 65 and "warp" in err


def test_run_unknown_event_shows_a_byte_order_mark(tmp_path, capsys):
    """A trace saved with a UTF-8 byte-order mark is refused, and the message
    shows the mark as an escape rather than printing it invisibly."""
    trace = tmp_path / "bom.trace"
    trace.write_bytes("\ufeffev1 ev2\n".encode())
    code, out, err = run_cli(
        capsys, "run", "-f", "<>ev1", "-a", "ev1,ev2,ev3", "-t", str(trace)
    )
    assert (code, out) == (65, "")
    assert "unknown event '\\ufeffev1' at position 1" in err


MIXED_RUN = ("run", "-f", "(ev1 & <>ev2) | (ev3 & []<>ev4)", "-a", "ev1,ev2,ev3,ev4")


def test_run_stop_early_ignores_unknown_events_after_conclusion(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("ev1 ev2 warp\nev3\n")
    code, out, _ = run_cli(capsys, *MIXED_RUN, "-t", str(trace), "--stop-early")
    assert out == "1 ev1 ?\n2 ev2 TOP\nFINAL TOP\n"
    assert code == 0
    # without --stop-early every event is validated and nothing is printed
    code, out, err = run_cli(capsys, *MIXED_RUN, "-t", str(trace))
    assert code == 65 and out == "" and "warp" in err


class _LiveStream:
    """Stand-in for stdin that fails if read past ``limit`` lines."""

    def __init__(self, lines, limit):
        self.lines = iter(lines)
        self.left = limit

    def __iter__(self):
        return self

    def __next__(self):
        if self.left == 0:
            raise AssertionError("read past the concluding event")
        self.left -= 1
        return next(self.lines)


def test_run_stop_early_stops_reading_at_conclusion(monkeypatch, capsys):
    lines = ["ev1 # first\n", "ev2\n", "never read\n"]
    monkeypatch.setattr(sys, "stdin", _LiveStream(lines, limit=2))
    code, out, _ = run_cli(capsys, *MIXED_RUN, "-t", "-", "--stop-early")
    assert out.splitlines() == ["1 ev1 ?", "2 ev2 TOP", "FINAL TOP"]
    assert code == 0


@pytest.mark.parametrize(
    "text, final, code",
    [
        ("ev1 # skip\fev2\n", "FINAL ?", 2),
        ("ev1 # skip\x85ev2\n", "FINAL ?", 2),
        ("ev1 # skip\u2028ev2\n", "FINAL ?", 2),
        ("ev1 # skip\rev2\n", "FINAL TOP", 0),
    ],
)
def test_run_trace_comment_ends_at_lf_crlf_or_cr(tmp_path, capsys, monkeypatch, text, final, code):
    """A trace comment ends at the same line break whether the trace is a
    file, read with universal newlines, or stdin, split at LF only."""
    trace = tmp_path / "t.trace"
    trace.write_bytes(text.encode())
    for stop_early in ((), ("--stop-early",)):
        got, out, _ = run_cli(capsys, *MIXED_RUN, "-t", str(trace), *stop_early)
        assert (out.splitlines()[-1], got) == (final, code)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text, newline="\n"))
        got, out, _ = run_cli(capsys, *MIXED_RUN, "-t", "-", *stop_early)
        assert (out.splitlines()[-1], got) == (final, code)


def _long_trace(violate_from: int | None, events: int = 60_000) -> str:
    """A trace text several 64 KiB batches long in the layouts a trace file
    may take: several events a line, ``#`` comments, blank lines, CRLF line
    breaks and no final newline.  Every ev1 is answered at once by ev2,
    except the first one from event ``violate_from`` on."""
    rng = random.Random(11)
    trace = []
    while len(trace) < events:
        trace.append(rng.choice(NAMES3))
        if trace[-1] == "ev1":
            trace.append("ev2")
    if violate_from is not None:
        trace[trace.index("ev1", violate_from) + 1] = "ev3"
    lines = []
    for lo in range(0, len(trace), 7):
        line = " ".join(trace[lo : lo + 7])
        shape = lo % 5
        if shape == 1:
            line += "   # ev1 ev1 ev1"
        elif shape == 3:
            line = "\t" + line + "\r\n# a comment line"
        lines.append(line)
        if shape == 4:
            lines.append("")
    return "\r\n".join(lines)


def _write_response_pmf(tmp_path):
    """A monitor of "every ev1 is followed at once by ev2", which concludes BOT only."""
    pmf = tmp_path / "response.pmf"
    phi = parse_formula("[](ev1 -> X ev2)", ALPHA3)
    pmf.write_text(emit_monitor(synthesize_monitor(phi, ALPHA3)))
    return pmf


def test_run_reads_a_multi_batch_trace_as_parse_trace_does(tmp_path, capsys):
    """A trace longer than one read batch prints what run_trace gives on
    parse_trace of the whole text, with and without --stop-early; the
    conclusion lies in a later batch."""
    pmf = _write_response_pmf(tmp_path)
    machine = parse_monitor(pmf.read_text())
    text = _long_trace(violate_from=30_000)
    assert len(text.encode()) > 3 * (1 << 16)
    trace = tmp_path / "long.trace"
    trace.write_bytes(text.encode())
    events = parse_trace(text, ALPHA3)
    for stop_early in (False, True):
        results = run_trace(machine, events, stop_early=stop_early)
        final = results[-1][1]
        expected = "".join(f"{p} {e} {v.value}\n" for (p, v), e in zip(results, events))
        expected += f"FINAL {final.value}\n"
        flag = ("--stop-early",) if stop_early else ()
        code, out, _ = run_cli(capsys, "run", "-m", str(pmf), "-t", str(trace), *flag)
        assert out == expected, stop_early
        assert code == 1
    assert 30_000 < len(results) < len(events)


class _CountedStdin(io.StringIO):
    """Stand-in for stdin that fails on its read call number ``limit + 1``."""

    def __init__(self, text, limit):
        super().__init__(text)
        self.left = limit

    def read(self, size=-1):
        if self.left == 0:
            raise AssertionError("read past the batch with the unknown event")
        self.left -= 1
        return super().read(size)


def test_run_unknown_event_in_a_later_batch_exits_65(tmp_path, capsys, monkeypatch):
    """An unknown event in the second batch exits 65 with nothing on stdout,
    and from stdin it does so without reading the third batch."""
    pmf = _write_response_pmf(tmp_path)
    text = _long_trace(violate_from=None)
    at = text.index(" ev3 ", 80_000) + 1
    bad = text[:at] + "warp" + text[at + 3 :]
    assert (1 << 16) < at < 2 * (1 << 16) < len(bad) - (1 << 16)
    with pytest.raises(UnknownEventError) as expected:
        parse_trace(bad, ALPHA3)
    trace = tmp_path / "bad.trace"
    trace.write_bytes(bad.encode())
    code, out, err = run_cli(capsys, "run", "-m", str(pmf), "-t", str(trace))
    assert (code, out, err) == (65, "", f"error: {expected.value}\n")
    monkeypatch.setattr(sys, "stdin", _CountedStdin(bad, limit=2))
    code, out, err = run_cli(capsys, "run", "-m", str(pmf), "-t", "-")
    assert (code, out, err) == (65, "", f"error: {expected.value}\n")


# --- run against run_trace ------------------------------------------------------

_EXIT_CODES = {Verdict.TOP: 0, Verdict.BOT: 1, Verdict.UNKNOWN: 2, Verdict.GIVEUP: 3}


def _expected_run(machine, trace, stop_early):
    """partmon run's stdout and exit code, built from run_trace."""
    try:
        results = run_trace(machine, trace, stop_early=stop_early)
    except UnknownEventError:
        return "", 65
    final = results[-1][1] if results else partialize(machine).output(machine.initial)
    lines = [f"{i} {e} {v.value}\n" for (i, v), e in zip(results, trace)]
    return "".join(lines) + f"FINAL {final.value}\n", _EXIT_CODES[final]


def _differential_pmfs():
    """The leaky-finals PMF, whose final states' TRANS lines lead elsewhere,
    the mixed-branches monitor, which gives up, and three partialized
    random-formula monitors of four states or more."""
    rng = random.Random(1507)
    machines = [mixed_branches_machine()]
    while len(machines) < 4:
        machine = synthesize_monitor(random_formula(rng, 4), ALPHA3)
        if machine.num_states >= 4:
            machines.append(machine)
    return [LEAKY_FINALS_PMF] + [emit_monitor(partialize(machine)) for machine in machines]


@pytest.mark.parametrize(
    "pmf", _differential_pmfs(), ids=["leaky-finals", "mixed-branches", "random0", "random1", "random2"]
)
def test_run_prints_what_run_trace_gives(tmp_path, capsys, monkeypatch, pmf):
    """partmon run -m writes run_trace's verdicts and exits with the final
    one, with and without --stop-early, on every word of up to four events;
    an unknown event, put at every cut of every word of up to three, exits
    65 with nothing on stdout unless --stop-early concludes before it."""
    path = tmp_path / "m.pmf"
    path.write_text(pmf)
    machine = parse_monitor(pmf)
    names = list(machine.alphabet)
    traces = all_words(names, 4) + [
        word[:cut] + ("zz",) + word[cut:] for word in all_words(names, 3) for cut in range(len(word) + 1)
    ]
    codes = set()
    for trace in traces:
        for flag in ((), ("--stop-early",)):
            expected = _expected_run(machine, trace, bool(flag))
            monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{e}\n" for e in trace)))
            code, out, _ = run_cli(capsys, "run", "-m", str(path), "-t", "-", *flag)
            assert (out, code) == expected, (trace, flag)
            codes.add(code)
    assert {2, 65} < codes  # some trace concluded, one was refused


def test_run_requires_exactly_one_source(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("ev1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "-t", str(trace)])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "option",
    [["-a", "x,y"], ["-a", "ev1,ev2,ev3"], ["--infer-alphabet"]],
    ids=["other_alphabet", "same_alphabet", "infer_alphabet"],
)
def test_run_monitor_with_an_alphabet_option_exits_64(tmp_path, capsys, option):
    """A PMF carries its own alphabet: naming another one next to -m is a
    usage error, even when it is the PMF's own, not an option silently dropped."""
    pmf = tmp_path / "m.pmf"
    pmf.write_text(emit_monitor(eventually_ev1_machine()))
    trace = tmp_path / "t.trace"
    trace.write_text("ev1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "-m", str(pmf), *option, "-t", str(trace)])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == "" and "-m/--monitor" in captured.err


def test_run_missing_file_exits_65(capsys):
    code, _, err = run_cli(
        capsys, "run", "-m", "/no/such/file.pmf", "-t", "/no/such/trace"
    )
    assert code == 65


# --- oracle ----------------------------------------------------------------------

def test_oracle_sat(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "-f", "[]<>ev4", "--stem", "ev3", "--loop", "ev2,ev4"
    )
    assert code == 0 and out.strip() == "SAT"


def test_oracle_unsat(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-f", "<>ev2", "--stem", "", "--loop", "ev1")
    assert code == 0 and out.strip() == "UNSAT"


def test_oracle_until_resolved_in_stem(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "-f", "ev1 U ev2", "--stem", "ev1,ev2", "--loop", "ev3"
    )
    assert code == 0 and out.strip() == "SAT"


def test_oracle_empty_loop_exits_65(capsys):
    code, _, err = run_cli(capsys, "oracle", "-f", "<>ev1", "--loop", "")
    assert code == 65 and "loop" in err


@pytest.mark.parametrize("token", ["!!", "X", "1x"])
@pytest.mark.parametrize("option", ["--stem", "--loop"])
def test_oracle_without_alphabet_refuses_an_invalid_event_name(capsys, option, token):
    """Without -a, the word's names are checked as -a names are: a token
    that is no identifier, a reserved word and a leading digit exit 65."""
    word = {"--stem": "ev1", "--loop": "ev1", option: token}
    code, out, err = run_cli(
        capsys, "oracle", "-f", "<>ev1", "--stem", word["--stem"], "--loop", word["--loop"]
    )
    assert code == 65 and out == "" and "invalid event name" in err


# --- whole-pipeline determinism ----------------------------------------------------

def test_synth_output_is_stable_across_interpreter_runs(tmp_path):
    """Byte-identical PMF output under different hash seeds."""
    env_base = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env_base["PYTHONPATH"] = src + os.pathsep + env_base.get("PYTHONPATH", "")
    outputs = []
    for seed in ("1", "2"):
        env = dict(env_base, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "partmon",
                "synth",
                "-f",
                "(ev1 & <>ev2) | (ev3 & []<>ev4)",
                "-a",
                "ev1,ev2,ev3,ev4",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_cli_start_up_imports_neither_dataclasses_nor_json():
    """A fresh interpreter (without site, so only partmon's own imports
    count) loads neither module for the CLI; classify imports json itself
    and prints the report's JSON."""
    probe = "import sys, partmon.cli; print(sorted({'dataclasses', 'json'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert proc.stdout == "[]\n"
    argv = ["classify", "-f", "(ev1 & <>ev2) | (ev3 & []<>ev4)", "-a", "ev1,ev2,ev3,ev4"]
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "partmon", *argv], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0
    assert proc.stdout == """\
{
  "classification": "EXISTS_PZ_ONLY",
  "can_reach_top": true,
  "can_reach_bot": true,
  "state_count": 5,
  "giveup_state_count": 1,
  "ugly_witness": [
    "ev3"
  ]
}
"""


# --- fuzzed command lines -------------------------------------------------------------

_FUZZ_ALPHABET = Alphabet(["a", "b"])
_FUZZ_PMF = emit_monitor(synthesize_monitor(parse_formula("<>a", _FUZZ_ALPHABET), _FUZZ_ALPHABET))
_FUZZ_FORMULAS = ("<>a", "[](a->b)", "(", "é", "true U a")
_FUZZ_EVENTS = ("", ",", "a,a", "a,b")
# {name} stands for a file made fresh for every example; see _fuzz_paths.
_FUZZ_PATHS = ("{pmf}", "{binary}", "{dir}", "{missing}", "-")
_FUZZ_KIND = {
    "-f": _FUZZ_FORMULAS,
    "-a": _FUZZ_EVENTS,
    "--stem": _FUZZ_EVENTS,
    "--loop": _FUZZ_EVENTS,
    "-m": _FUZZ_PATHS,
    "-t": _FUZZ_PATHS,
    "-o": _FUZZ_PATHS,
    "--dot": _FUZZ_PATHS,
}
_FUZZ_VALUES = _FUZZ_FORMULAS + _FUZZ_EVENTS + _FUZZ_PATHS
# Each subcommand's options; the first ones listed are the ones it requires.
_FUZZ_OPTIONS = {
    "synth": ("-f", "-a", "--infer-alphabet", "-o", "--dot", "--no-minimize"),
    "classify": ("-f", "-a", "--infer-alphabet"),
    "run": ("-t", "-m", "-f", "-a", "--infer-alphabet", "--stop-early"),
    "oracle": ("-f", "--loop", "-a", "--stem"),
}
_FUZZ_REQUIRED = {"synth": 1, "classify": 1, "run": 1, "oracle": 2}
_FUZZ_SWITCHES = ("--infer-alphabet", "--no-minimize", "--stop-early", "--help")
_FUZZ_PIECES = (*_FUZZ_OPTIONS, *_FUZZ_KIND, *_FUZZ_SWITCHES, *_FUZZ_VALUES)


def _fuzz_command(command):
    """A subcommand, its required options and some of the others, each
    valued option mostly with a value of its own kind."""
    options = {}
    for i, flag in enumerate(_FUZZ_OPTIONS[command]):
        if flag in _FUZZ_KIND:
            value = st.sampled_from(_FUZZ_KIND[flag]) | st.sampled_from(_FUZZ_VALUES)
            options[flag] = value if i < _FUZZ_REQUIRED[command] else st.none() | value
        elif flag == "--infer-alphabet":
            options[flag] = st.just(False) | st.booleans()  # seldom next to -a
        else:
            options[flag] = st.booleans()

    def argv(chosen):
        pieces = [command]
        for flag, value in chosen.items():
            if value is True:
                pieces.append(flag)
            elif isinstance(value, str):
                pieces += [flag, value]
        return pieces

    return st.fixed_dictionaries(options).map(argv)


# Mostly well-shaped command lines, so that most reach a subcommand's body;
# sometimes any pieces in any order.
_FUZZ_ARGV = st.one_of(
    *map(_fuzz_command, _FUZZ_OPTIONS), st.lists(st.sampled_from(_FUZZ_PIECES), max_size=6)
)


def _fuzz_paths(root: str) -> dict[str, str]:
    paths = {name: os.path.join(root, name) for name in ("pmf", "binary", "dir")}
    paths["missing"] = os.path.join(root, "no", "such", "file")
    with open(paths["pmf"], "w", encoding="utf-8") as handle:
        handle.write(_FUZZ_PMF)
    with open(paths["binary"], "wb") as handle:
        handle.write(bytes(range(256)))
    os.mkdir(paths["dir"])
    return paths


@settings(max_examples=400, deadline=None)
@given(_FUZZ_ARGV)
def test_main_exits_with_a_documented_code(argv):
    """Any command line returns, or exits with, a code the module documents;
    no exception escapes main()."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(sys, "stdin", io.StringIO("b a # c\n")):
        paths = _fuzz_paths(root)
        # -o and --dot may name a relative path: write it in the temporary directory.
        os.chdir(root)
        try:
            code = main([piece.format(**paths) for piece in argv])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3, 64, 65), argv
