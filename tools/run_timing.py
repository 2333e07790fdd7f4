"""Time ``partmon run`` on a 100,000-event trace, in process.

Usage: python tools/run_timing.py [CHECKOUT] [--repeats N]

CHECKOUT is the root of the partmon checkout to measure (default: the one
this script is in); its ``src``, ``tests`` and root are put first on
``sys.path``, so two checkouts are compared by running the script once on
each.  The X^8 monitor of ``perfbench/workloads.py`` (``<>(a & X^8 b)`` over
{a, b, c}) and a 100,000-event trace that leaves it undecided are written to
a temporary directory first, untimed.  Then each phase is timed
``--repeats`` times (default 15, at least 2) and the median and the
quartiles of its time are printed, in milliseconds:

- ``partmon run``: ``cli.main(["run", "-m", PMF, "-t", TRACE])`` with stdout
  sent to ``os.devnull``; reading the PMF and the trace, replaying it and
  writing every line;
- ``run_trace``: ``runtime.run_trace`` on the trace's events, already read;
  the replay alone.
"""

from __future__ import annotations

import contextlib
import os
import random
import tempfile

from _timing import parse_args, quartiles_ms

EVENTS = 100_000
SEED = 15


def main() -> None:
    args = parse_args(__doc__)
    from partmon import Alphabet, emit_monitor, run_trace, synthesize_monitor
    from partmon.cli import main as cli_main
    from perfbench.workloads import REPLAY_EVENTS, REPLAY_K, undecided_trace, x_k

    alphabet = Alphabet(REPLAY_EVENTS)
    machine = synthesize_monitor(x_k(REPLAY_K), alphabet)
    events = undecided_trace(random.Random(SEED), EVENTS)

    def cli_run(argv: list[str]) -> None:
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            code = cli_main(argv)
        if code != 2:
            raise SystemExit(f"partmon run exited {code}, not 2 (FINAL ?)")

    with tempfile.TemporaryDirectory() as workdir:
        pmf, trace = os.path.join(workdir, "x8.pmf"), os.path.join(workdir, "x8.trace")
        with open(pmf, "w", encoding="utf-8") as handle:
            handle.write(emit_monitor(machine))
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(events) + "\n")
        phases = {
            "partmon run": quartiles_ms(args.repeats, cli_run, ["run", "-m", pmf, "-t", trace]),
            "run_trace": quartiles_ms(args.repeats, run_trace, machine, events),
        }
    for name, (q1, median, q3) in phases.items():
        print(f"{name:12} {EVENTS} events  median {median:7.2f} ms  IQR {q1:.2f}-{q3:.2f} ms")


if __name__ == "__main__":
    main()
