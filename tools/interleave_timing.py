"""Time the synthesis pass of two checkouts interleaved in one process.

Usage: python tools/interleave_timing.py OLD NEW [--rounds N]

OLD and NEW are roots of partmon checkouts; they may be the same one.  Each
checkout's ``src/partmon`` is copied into a temporary directory as the
package ``partmon_old`` or ``partmon_new`` (the package imports itself only
by relative imports, so the copies load side by side), and both are
imported into this process.  The pass is what the benchmark's synthesis
workloads time: formula text -> ``parse_formula`` -> ``synthesize_monitor``
-> ``partialize`` -> ``classify`` -> ``emit_monitor``, for every formula of
a set.  The sets are the 14 synthesis families and the 200-formula corpus
of ``perfbench/workloads.py``, <>(a & X^10 b) over {a, b, c}, and a
``large`` set: <>(a & X^12 b) over {a, b, c} and over a, b and 30 events it
does not name, resp-8 (the conjunction of [](r_i -> <>g_i) for i < 8 over
its 16 events) and [](a -> X^10 b) over {a, b, c}; each is rendered to text
by the checkout this script is in.

One untimed round warms both copies up.  Then each of ``--rounds`` rounds
(default 30, at least 2) times every set once with each copy, the copy
going first alternating from round to round, with the garbage collector
off; it collects between rounds, untimed.  Every pass's PMFs must be equal
between the copies, or the script fails.  Per set it prints each copy's
median and quartiles in milliseconds, the ratio of the medians (NEW / OLD)
and the number of rounds NEW was faster in.

Runs of a stage in two processes have read up to 50 % apart on identical
code, so a change smaller than that is resolved here, not by comparing two
runs of ``synth_timing.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def formula_sets() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Each set's formulas as (text, events) pairs."""
    sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "tests"), HERE]
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


def synthesis_pass(package):
    """A function from a formula set to the PMF of each formula's
    partialized, classified monitor, by ``package``."""
    Alphabet, parse_formula = package.Alphabet, package.parse_formula
    synthesize_monitor, partialize = package.synthesize_monitor, package.partialize
    classify, emit_monitor = package.classify, package.emit_monitor

    def run(formulas):
        pmfs = []
        for text, events in formulas:
            alphabet = Alphabet(events)
            machine = partialize(synthesize_monitor(parse_formula(text, alphabet), alphabet))
            classify(machine)
            pmfs.append(emit_monitor(machine))
        return pmfs

    return run


def interleave(passes: dict, sets: dict, rounds: int) -> dict:
    """Per set and copy, the time of each round's pass in milliseconds."""
    times = {name: {copy: [] for copy in passes} for name in sets}
    order = list(passes.items())
    for index in range(rounds + 1):
        gc.collect()
        gc.disable()
        try:
            for name, formulas in sets.items():
                pmfs = {}
                for copy, run in order:
                    started = time.perf_counter()
                    pmfs[copy] = run(formulas)
                    elapsed = (time.perf_counter() - started) * 1000
                    if index:  # round 0 warms up
                        times[name][copy].append(elapsed)
                first, *rest = pmfs.values()
                for other in rest:
                    for (text, _), a, b in zip(formulas, first, other):
                        if a != b:
                            sys.exit(f"interleave_timing: {name}: the copies emit different PMFs for {text}")
        finally:
            gc.enable()
        order.reverse()
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: the quartiles need two samples")
    sets = formula_sets()
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        passes = {
            "old": synthesis_pass(load(args.old, "partmon_old", scratch)),
            "new": synthesis_pass(load(args.new, "partmon_new", scratch)),
        }
        times = interleave(passes, sets, args.rounds)
    for name, by_copy in times.items():
        medians = {}
        for copy, samples in by_copy.items():
            q1, medians[copy], q3 = statistics.quantiles(samples, n=4)
            print(f"{name:9} {copy:4} median {medians[copy]:8.2f} ms  IQR {q1:.2f}-{q3:.2f} ms")
        wins = sum(new < old for old, new in zip(by_copy["old"], by_copy["new"]))
        ratio = medians["new"] / medians["old"]
        print(
            f"{name:9} new/old {ratio:.3f} ({(ratio - 1) * 100:+.1f} %),"
            f" new faster in {wins} of {args.rounds} rounds"
        )


if __name__ == "__main__":
    main()
