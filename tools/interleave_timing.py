"""Time synthesis, its stages and the replay of two checkouts in one process.

Usage: python tools/interleave_timing.py OLD NEW [--rounds N]

OLD and NEW are partmon checkouts, maybe the same one, which times it
alone.  Each one's ``src/partmon`` is copied to a temporary directory as
``partmon_old`` or ``partmon_new`` (it imports itself only relatively) and
imported.  Only ``partmon.__all__`` and ``partmon.cli.main`` are called,
and nothing is rebound.

Formula sets: the 14 synthesis families and the 200-formula corpus of
``perfbench/workloads.py``, <>(a & X^10 b) over {a, b, c}, and ``large``:
<>(a & X^12 b) over {a, b, c} and over a, b and 30 unnamed events, resp-8
([](r_i -> <>g_i) for i < 8, over its 16 events) and [](a -> X^10 b) over
{a, b, c}, rendered to text by this script's checkout.  Each copy prebuilds
every row's inputs, untimed.  The rows, each timed over the whole set but
``pass p50``:

- ``pass``: what the benchmark's synthesis workloads time, formula text ->
  ``parse_formula`` -> ``synthesize_monitor`` -> ``partialize`` ->
  ``classify`` -> ``emit_monitor``;
- ``pass p50``: the same pass with each formula timed alone; a round's
  value is the median over the set's formulas of those times, which
  resolves the benchmark's ``synth_p50_ms`` in one process (the benchmark
  takes each formula's median over passes first);
- ``parse``: ``parse_formula`` on each text;
- ``tableau φ``: ``ltl_to_nba(phi)``;
- ``tableau ¬φ``: ``ltl_to_nba(Not(phi))``, only where synthesis builds it,
  that is where the φ tableau's initial state is live and the φ side does
  not decide alone (:func:`decides_alone`);
- ``live``: ``per_state_nonempty`` on every tableau of the two rows above,
  built afresh each round, untimed;
- ``synth unminimized``: ``synthesize_monitor(..., minimize=False)``, which
  builds its tableaux itself;
- ``product (derived)``: liveness, the verdict classes of a φ side that
  decides alone, the subset tables and the product, per round and copy
  ``synth unminimized`` minus the two tableau rows, since timing it alone
  would mean serving synthesis tableaux through private names.  It is
  approximate: three timings' noise adds up in it, and synthesis negates
  ``phi`` in its walk, skipping the ``Not`` node that
  ``ltl_to_nba(Not(phi))`` reads (the automata are the same).  Both copies'
  ``tableau ¬φ`` rows build the ¬φ tableaux that this script's rule says
  synthesis builds.  A copy that builds more of them, as one from before φ
  sides decided alone builds one for every satisfiable formula, has the
  time of the others in its ``product (derived)``;
- ``minimize``: ``minimize_moore`` on each unminimized machine;
- ``partialize+classify+emit``: on fresh copies of the minimal machines,
  made untimed, since ``partialize`` keeps its result on the machine, and
  passed through ``minimize_moore``, untimed too, so that ``partialize``
  scans them as it scans synthesis's machines.

Size lines follow each set's rows: tableau states and edges per side, the
negation sides not built, the φ sides that decide alone and their states,
the sides whose ids are their tableau states, with no subset construction
(deterministic over their live states, looping ones aside; for φ, among the
sides that neither decide alone nor are unsatisfiable) and their states,
and the product and minimal states; and a short sha256 over the ``edges``,
``obligations`` and ``num_marks`` of every φ and ¬φ tableau those lines
count, so that a copy that changes any automaton prints two differing
lines.  A last size line gives each copy's ``src/partmon`` line count, in
total and per file, so that a change's line counts come from the run that
times it.  ``replay`` times ``cli.main(["run", "-m", PMF, "-t", TRACE])``,
stdout to devnull, and ``run_trace`` on the events already read, on the X^8
monitor of ``perfbench/workloads.py`` and a 100,000-event undecided trace,
both written once.

One untimed round warms both copies up.  Then each of ``--rounds`` rounds
(default 30, at least 2) times every row once with each copy, the first
copy alternating, with the garbage collector off; it collects between
rounds.  The copies' PMFs (every pass's and the X^8 monitor's) must be
equal.  Per row it prints each copy's median and quartiles in ms, the
ratio of the medians (NEW / OLD) and the rounds NEW was faster in.

Identical code has read up to 50 % apart in two processes, so a smaller
change is resolved only by timing both versions round by round in one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVENTS = 100_000
SEED = 15


def formula_sets() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Each set's formulas as (text, events) pairs."""
    from perfbench.workloads import REPLAY_EVENTS, corpus, families, render, x_k

    resp_8 = " & ".join(f"[](r{i} -> <>g{i})" for i in range(8))
    return {
        "families": [(case.text, case.events) for case in families()],
        "corpus": [(case.text, case.events) for case in corpus()],
        "X^10": [(render(x_k(10)), REPLAY_EVENTS)],
        "large": [
            (render(x_k(12)), REPLAY_EVENTS),
            (render(x_k(12)), ("a", "b", *(f"u{i}" for i in range(30)))),
            (resp_8, tuple(e for i in range(8) for e in (f"r{i}", f"g{i}"))),
            ("[](a -> " + "X " * 10 + "b)", REPLAY_EVENTS),
        ],
    }


def load(checkout: str, name: str, scratch: str):
    """The checkout's ``src/partmon``, imported as the package ``name``."""
    source = os.path.join(checkout, "src", "partmon")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        sys.exit(f"interleave_timing: {checkout} is not a partmon checkout (no src/partmon)")
    shutil.copytree(source, os.path.join(scratch, name), ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def each(function, inputs):
    """A row that calls ``function`` on each of its prebuilt ``inputs``."""

    def call():
        for args in inputs:
            function(*args)

    return lambda: call


def stage_rows(pm, formulas) -> tuple[dict, list[str]]:
    """Per row, a function that prepares the row's inputs with package
    ``pm``, untimed, and returns the call to time; and the set's size lines."""
    cases = [(text, pm.Alphabet(events)) for text, events in formulas]
    parsed = [(pm.parse_formula(text, alphabet), alphabet) for text, alphabet in cases]
    pos = [pm.ltl_to_nba(phi, alphabet) for phi, alphabet in parsed]
    satisfiable = [not nba.initial.isdisjoint(pm.per_state_nonempty(nba)) for nba in pos]
    alone = [live and decides_alone(pm, nba) for live, nba in zip(satisfiable, pos)]
    negated = [
        (pm.Not(phi), alphabet)
        for (phi, alphabet), live, decided in zip(parsed, satisfiable, alone)
        if live and not decided
    ]
    paired = [nba for nba, live, decided in zip(pos, satisfiable, alone) if live and not decided]
    neg = [pm.ltl_to_nba(phi, alphabet) for phi, alphabet in negated]
    products = [pm.synthesize_monitor(phi, alphabet, minimize=False) for phi, alphabet in parsed]
    minimal = [pm.minimize_moore(machine) for machine in products]

    def one_pass(text, alphabet):
        machine = pm.partialize(pm.synthesize_monitor(pm.parse_formula(text, alphabet), alphabet))
        pm.classify(machine)
        return text, pm.emit_monitor(machine)

    def synthesis_pass():
        return [one_pass(*case) for case in cases]

    def synthesis_p50():
        pmfs, times = [], []
        for case in cases:
            started = time.perf_counter()
            pmfs.append(one_pass(*case))
            times.append((time.perf_counter() - started) * 1000)
        return Median(pmfs, statistics.median(times))

    def finish(machines):
        for machine in machines:
            pm.emit_monitor(pm.partialize(machine))
            pm.classify(machine)

    def live():
        # Tableaux built afresh each round: the same ones timed every round
        # read up to 30 % apart between two copies of one checkout.
        nbas = [pm.ltl_to_nba(*case) for case in parsed + negated]
        return each(pm.per_state_nonempty, [(nba,) for nba in nbas])()

    def fresh():
        rebuilt = (pm.MooreMonitor(m.alphabet, m.num_states, m.initial, m.delta, m.outputs) for m in minimal)
        copies = list(map(pm.minimize_moore, rebuilt))
        return lambda: finish(copies)

    rows = {
        "pass": lambda: synthesis_pass,
        "pass p50": lambda: synthesis_p50,
        "parse": each(pm.parse_formula, cases),
        "tableau φ": each(pm.ltl_to_nba, parsed),
        "tableau ¬φ": each(pm.ltl_to_nba, negated),
        "live": live,
        "synth unminimized": each(pm.synthesize_monitor, [(*case, False) for case in parsed]),
        "minimize": each(pm.minimize_moore, [(machine,) for machine in products]),
        "partialize+classify+emit": fresh,
    }

    def states(machines):
        return sum(machine.num_states for machine in machines)

    sides = ", ".join(
        f"{side} {states(nbas)} states {sum(len(row) for nba in nbas for row in nba.edges)} edges"
        for side, nbas in (("φ", pos), ("¬φ", neg))
    )

    def stepped(nbas):
        got = [nba for nba in nbas if deterministic(pm, nba)]
        return f"{len(got)} of {len(nbas)} ({states(got)} of {states(nbas)} states)"

    deciding = [nba for nba, decided in zip(pos, alone) if decided]
    automata = repr([(nba.edges, nba.obligations, nba.num_marks) for nba in pos + neg])
    sizes = [
        f"tableaux {sides}; {len(pos) - len(neg)} ¬φ not built",
        f"φ sides deciding alone, no ¬φ and no pairs: {len(deciding)} of {len(pos)} ({states(deciding)} states)",
        f"deterministic sides, ids their states, no subsets: φ {stepped(paired)}, ¬φ {stepped(neg)}",
        f"states product {states(products)}, minimal {states(minimal)}",
        f"tableaux sha256 {hashlib.sha256(automata.encode()).hexdigest()[:16]}",
    ]
    return rows, sizes


class Median:
    """What a row's call returns when it times its parts itself: the
    result, and the median of the parts' times in ms, which stands for the
    call's time."""

    __slots__ = ("result", "ms")

    def __init__(self, result, ms: float):
        self.result, self.ms = result, ms


def decides_alone(pm, nba) -> bool:
    """Whether synthesis builds the monitor from this satisfiable φ side
    alone, with no ¬φ tableau and no pairs: it has one initial state, and
    each live state, looping or not, reads each event on one edge to a live
    state at most."""
    if len(nba.initial) > 1:
        return False
    live = pm.per_state_nonempty(nba)
    for q in live:
        read = 0
        for guard, dst, _ in nba.edges[q]:
            if dst in live:
                if guard & read:
                    return False
                read |= guard
    return True


def deterministic(pm, nba) -> bool:
    """Whether this side's ids are its tableau states, with no subset
    construction: it has one initial state, and each live state reads each
    event on one edge to a live state at most, unless it is looping (its
    edges to live states owing no more read every event)."""
    if len(nba.initial) > 1:
        return False
    live = pm.per_state_nonempty(nba)
    everything = (1 << len(nba.alphabet)) - 1
    owes = nba.obligations
    for q in live:
        read = covered = tangled = 0
        for guard, dst, _ in nba.edges[q]:
            if dst in live:
                tangled |= guard & read
                read |= guard
                if not owes[dst] & ~owes[q]:
                    covered |= guard
        if tangled and covered != everything:
            return False
    return True


def line_counts(checkout: str) -> list[str]:
    """The checkout's ``src/partmon`` size line: its line count, in total
    and per file."""
    source = os.path.join(checkout, "src", "partmon")
    counts = {}
    for name in sorted(os.listdir(source)):
        if name.endswith(".py"):
            with open(os.path.join(source, name), encoding="utf-8") as handle:
                counts[name] = sum(1 for _ in handle)
    files = ", ".join(f"{name} {count}" for name, count in counts.items())
    return [f"src/partmon {sum(counts.values())} lines: {files}"]


def replay_rows(pm, pmf: str, trace: str, events: list[str]) -> tuple[dict, list[str]]:
    """The replay set's rows with package ``pm``, and its size line."""
    cli_main = importlib.import_module(pm.__name__ + ".cli").main
    with open(pmf, encoding="utf-8") as handle:
        machine = pm.parse_monitor(handle.read())

    def cli_run():
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            code = cli_main(["run", "-m", pmf, "-t", trace])
        if code != 2:
            sys.exit(f"interleave_timing: partmon run exited {code}, not 2 (FINAL ?)")

    rows = {"partmon run": lambda: cli_run, "run_trace": each(pm.run_trace, [(machine, events)])}
    return rows, [f"monitor {machine.num_states} states, trace {len(events)} events"]


def interleave(rows: dict, rounds: int) -> dict:
    """Per set, row and copy, the time of each round's call in milliseconds.

    ``rows`` maps each set to its rows, and each row to a dict from copy to
    the row's preparing function; the calls' results must be equal between
    the copies.  A call that returns a :class:`Median` is timed by it."""
    times = {name: {row: {"old": [], "new": []} for row in set_rows} for name, set_rows in rows.items()}
    order = ["old", "new"]
    for index in range(rounds + 1):
        gc.collect()
        gc.disable()
        try:
            for name, set_rows in rows.items():
                for row, by_copy in set_rows.items():
                    results = []
                    for copy in order:
                        call = by_copy[copy]()
                        started = time.perf_counter()
                        result = call()
                        elapsed = (time.perf_counter() - started) * 1000
                        if isinstance(result, Median):
                            result, elapsed = result.result, result.ms
                        results.append(result)
                        if index:  # round 0 warms up
                            times[name][row][copy].append(elapsed)
                    if results[0] != results[1]:
                        text = next(a[0] for a, b in zip(*results) if a != b)
                        sys.exit(f"interleave_timing: {name}: the copies emit different PMFs for {text}")
        finally:
            gc.enable()
        order.reverse()
    return times


def with_product(set_times: dict) -> dict:
    """A set's rows with ``product (derived)`` after ``synth unminimized``."""
    rows = {}
    for row, by_copy in set_times.items():
        rows[row] = by_copy
        if row == "synth unminimized":
            pos, neg = set_times["tableau φ"], set_times["tableau ¬φ"]
            rows["product (derived)"] = {
                copy: [synth - p - n for synth, p, n in zip(samples, pos[copy], neg[copy])]
                for copy, samples in by_copy.items()
            }
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: the quartiles need two samples")
    sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "tests"), HERE]
    from perfbench.workloads import REPLAY_EVENTS, REPLAY_K, render, undecided_trace, x_k

    sets = formula_sets()
    x8 = render(x_k(REPLAY_K))
    events = undecided_trace(random.Random(SEED), EVENTS)
    rows, sizes = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        packages = {"old": load(args.old, "partmon_old", scratch), "new": load(args.new, "partmon_new", scratch)}
        pmfs = set()
        for pm in packages.values():
            alphabet = pm.Alphabet(REPLAY_EVENTS)
            pmfs.add(pm.emit_monitor(pm.synthesize_monitor(pm.parse_formula(x8, alphabet), alphabet)))
        if len(pmfs) > 1:
            sys.exit(f"interleave_timing: replay: the copies emit different PMFs for {x8}")
        pmf, trace = os.path.join(scratch, "x8.pmf"), os.path.join(scratch, "x8.trace")
        with open(pmf, "w", encoding="utf-8") as handle:
            handle.write(pmfs.pop())
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(events) + "\n")
        # Both copies build one set's inputs before the next set's: a copy
        # whose inputs were all built first read up to 30 % faster on
        # identical code.
        for name in [*sets, "replay"]:
            for copy, pm in packages.items():
                built = replay_rows(pm, pmf, trace, events) if name == "replay" else stage_rows(pm, sets[name])
                set_rows, sizes.setdefault(name, {})[copy] = built
                for row, prepare in set_rows.items():
                    rows.setdefault(name, {}).setdefault(row, {})[copy] = prepare
        times = interleave(rows, args.rounds)
    sizes["code"] = {"old": line_counts(args.old), "new": line_counts(args.new)}
    for name in [*times, "code"]:
        for row, by_copy in with_product(times.get(name, {})).items():
            medians = {}
            for copy, samples in by_copy.items():
                q1, medians[copy], q3 = statistics.quantiles(samples, n=4)
                print(f"{name:8} {row:24} {copy:4} median {medians[copy]:8.2f} ms  IQR {q1:.2f}-{q3:.2f} ms")
            wins = sum(new < old for old, new in zip(by_copy["old"], by_copy["new"]))
            ratio = medians["new"] / medians["old"]
            print(
                f"{name:8} {row:24} new/old {ratio:.3f} ({(ratio - 1) * 100:+.1f} %),"
                f" new faster in {wins} of {args.rounds} rounds"
            )
        # The sizes may differ between the copies; print both then.
        old, new = sizes[name]["old"], sizes[name]["new"]
        for copy, lines in ({"both": new} if old == new else {"old": old, "new": new}).items():
            for line in lines:
                print(f"{name:8} {'sizes':24} {copy:4} {line}")


if __name__ == "__main__":
    main()
