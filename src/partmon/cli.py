"""Command-line interface: synthesize, classify, run and query monitors.

Exit codes: ``run`` encodes the final verdict (0 TOP, 1 BOT, 2 ?, 3 x) so
shell pipelines can branch on monitor outcomes; every command uses 64 for
usage errors and 65 for data errors (unparsable formulas, bad files).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence, TextIO

from .fsm import Verdict, synthesize_monitor
from .formats import emit_dot, emit_monitor, line_batches, parse_monitor, trace_events
from .ltl import Alphabet, Formula, atoms_in_order, parse_formula, LassoWord, lasso_eval
from .partial import classify, partialize
from .runtime import _replay, compile_monitor

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65

_VERDICT_EXIT = {Verdict.TOP: 0, Verdict.BOT: 1, Verdict.UNKNOWN: 2, Verdict.GIVEUP: 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _split_events(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_formula(parser: argparse.ArgumentParser, args) -> tuple[Formula, Alphabet]:
    """Parse the formula against an explicit or inferred alphabet."""
    if args.alphabet:
        alphabet = Alphabet(_split_events(args.alphabet))
        return parse_formula(args.formula, alphabet), alphabet
    if not args.infer_alphabet:
        parser.error("one of -a/--alphabet or --infer-alphabet is required")
    phi = parse_formula(args.formula)
    names = atoms_in_order(phi)
    if not names:
        raise ValueError(
            "cannot infer an alphabet from a formula without events; use -a"
        )
    return phi, Alphabet(names)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _open_text(path: str) -> contextlib.AbstractContextManager[TextIO]:
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _read_text(path: str) -> str:
    with _open_text(path) as handle:
        return handle.read()


def _add_formula_options(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("-f", "--formula", required=required, help="LTL formula text")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-a",
        "--alphabet",
        help="comma-separated event names, e.g. ev1,ev2,ev3",
    )
    group.add_argument(
        "--infer-alphabet",
        action="store_true",
        help="use the formula's events, in order of first occurrence",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="partmon", description="Partial monitors for LTL properties")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser("synth", help="synthesize a partial monitor and write it as PMF")
    _add_formula_options(synth)
    synth.add_argument("-o", "--output", default="-", help="PMF output path (default stdout)")
    synth.add_argument("--dot", help="also write a Graphviz rendering to this path")
    synth.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip Moore minimization (debugging aid)",
    )

    cls = sub.add_parser("classify", help="report what the monitor can still conclude")
    _add_formula_options(cls)

    run = sub.add_parser("run", help="replay a trace file through a monitor")
    run.add_argument("-m", "--monitor", help="PMF monitor file")
    _add_formula_options(run, required=False)
    run.add_argument("-t", "--trace", required=True, help="trace file path (- for stdin)")
    run.add_argument(
        "--stop-early",
        action="store_true",
        help="stop consuming events at the first conclusive or give-up verdict",
    )

    oracle = sub.add_parser(
        "oracle", help="evaluate a formula on an ultimately periodic word"
    )
    oracle.add_argument("-f", "--formula", required=True, help="LTL formula text")
    oracle.add_argument("-a", "--alphabet", help="comma-separated event names")
    oracle.add_argument("--stem", default="", help="comma-separated finite prefix (may be empty)")
    oracle.add_argument("--loop", required=True, help="comma-separated loop, repeated forever")
    return parser


def _cmd_synth(parser: argparse.ArgumentParser, args) -> int:
    phi, alphabet = _load_formula(parser, args)
    machine = partialize(
        synthesize_monitor(phi, alphabet, minimize=not args.no_minimize)
    )
    _write_text(args.output, emit_monitor(machine))
    if args.dot:
        _write_text(args.dot, emit_dot(machine))
    return EX_OK


def _cmd_classify(parser: argparse.ArgumentParser, args) -> int:
    import json  # only classify writes JSON: kept off the other commands' start-up

    phi, alphabet = _load_formula(parser, args)
    report = classify(synthesize_monitor(phi, alphabet))
    print(json.dumps(report.as_dict(), indent=2))
    return EX_OK


def _cmd_run(parser: argparse.ArgumentParser, args) -> int:
    if bool(args.monitor) == bool(args.formula):
        parser.error("exactly one of -m/--monitor or -f/--formula is required")
    if args.monitor:
        if args.alphabet or args.infer_alphabet:
            parser.error("-m/--monitor takes its alphabet from the PMF: drop -a/--infer-alphabet")
        machine = parse_monitor(_read_text(args.monitor))
    else:
        phi, alphabet = _load_formula(parser, args)
        machine = synthesize_monitor(phi, alphabet)
    compiled = compile_monitor(machine)
    # The text each slot's line has after its position; the start slot's
    # entry is never written.
    names, width = list(compiled.index), compiled.width
    tails = [f" {names[slot % width]} {verdict.value}\n" for slot, verdict in enumerate(compiled.after)]
    with _open_text(args.trace) as handle:
        # With --stop-early the trace is read line by line, so reading stops
        # at the line that concludes; otherwise in batches of whole lines.
        chunks = handle if args.stop_early else line_batches(handle)
        written, slot = _replay(compiled, trace_events(chunks), args.stop_early, tails)
    # Nothing is written before the run ends, so a bad event leaves stdout empty.
    # The last slot taken, or the start slot on an empty trace, gives FINAL.
    final = compiled.after[slot]
    lines = [f"{position}{tail}" for position, tail in enumerate(written, 1)]
    lines.append(f"FINAL {final.value}\n")
    sys.stdout.write("".join(lines))
    return _VERDICT_EXIT[final]


def _cmd_oracle(args) -> int:
    word = LassoWord(_split_events(args.stem), _split_events(args.loop))
    events = word.stem + word.loop
    if args.alphabet:
        alphabet = Alphabet(_split_events(args.alphabet))
        phi = parse_formula(args.formula, alphabet)
    else:
        phi = parse_formula(args.formula)
        # The formula's events and the word's, checked as -a names are.
        alphabet = Alphabet(dict.fromkeys(atoms_in_order(phi) + list(events)))
    for event in events:
        alphabet.index(event)  # raises UnknownEventError
    print("SAT" if lasso_eval(phi, word) else "UNSAT")
    return EX_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(parser, args)
        if args.command == "classify":
            return _cmd_classify(parser, args)
        if args.command == "run":
            return _cmd_run(parser, args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
