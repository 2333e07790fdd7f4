"""Time each stage of synthesis in process, per formula set.

Usage: python tools/synth_timing.py [CHECKOUT] [--repeats N]

CHECKOUT is the root of the partmon checkout to measure (default: the one
this script is in); its ``src``, ``tests`` and root are put first on
``sys.path``, so two checkouts are compared by running the script once on
each.  The formula sets are the 14 synthesis families and the 200-formula
corpus of ``perfbench/workloads.py``, then three larger cases built with its
helpers: <>(a & X^12 b) over {a, b, c}, whose negation side reaches 4,096
one-member subsets; resp-8, the conjunction of [](r_i -> <>g_i) for i < 8
over r_i, g_i and idle; and [](a -> X^10 b) over {a, b, c}, whose formula
side reaches 1,024 states.  Every stage's inputs are built first,
untimed.  Then each stage is timed over the whole set ``--repeats`` times
(default 15, at least 2), and the median and the quartiles of the set's time
are printed, in milliseconds:

- ``parse``: ``parse_formula`` on each formula's text, with its alphabet;
- ``tableau phi`` and ``tableau neg``: the tableau walk synthesis runs on
  each formula as parsed, for the formula's side and for its negation's
  (``partmon.buchi._tableau``; no normal form is built);
- ``product``: ``synthesize_monitor(..., minimize=False)`` with the
  tableaux served ready-built, in the order it asks for them (no negation
  side for an unsatisfiable formula), so it times liveness, the subset
  constructions and the product;
- ``minimize``: ``minimize_moore`` on each product;
- ``partialize+classify+emit``: ``partialize``, ``classify`` and
  ``emit_monitor`` on a fresh copy of each minimal machine, made untimed,
  since ``partialize`` keeps its result on the machine, and passed through
  ``minimize_moore``, untimed too, so that it is marked minimal.

The total tableau states and edges of each side over every formula, the
number of negation sides synthesis skips, and the total product and minimal
state counts, of each set follow its rows.

Runs in separate processes are far apart even on identical code: a stage
whose code is the same in both checkouts has read up to 50 % apart across
two processes (families ``parse`` 0.53 against 0.78-0.89 ms).  So a stage
change below about 50 % is not resolved by comparing two runs of this
script; time both versions interleaved, round by round, in one process
with ``tools/interleave_timing.py`` instead.
"""

from __future__ import annotations

from _timing import parse_args, quartiles_ms


def _median_ms(repeats: int, fn, *args) -> str:
    q1, median, q3 = quartiles_ms(repeats, fn, *args)
    return f"median {median:8.2f} ms  IQR {q1:.2f}-{q3:.2f} ms"


def _measure(name: str, cases, repeats: int) -> None:
    import partmon.fsm as fsm
    from partmon import (
        Alphabet,
        MooreMonitor,
        classify,
        emit_monitor,
        minimize_moore,
        parse_formula,
        partialize,
        synthesize_monitor,
    )

    tableau = fsm._tableau
    inputs = [(case.formula, Alphabet(case.events)) for case in cases]
    texts = [(case.text, Alphabet(case.events)) for case in cases]
    # The tableaux synthesize_monitor builds, in the order it builds them.
    built = []

    def recorded(phi, alphabet, negated):
        built.append(tableau(phi, alphabet, negated))
        return built[-1]

    fsm._tableau = recorded
    try:
        products = [synthesize_monitor(phi, alphabet, minimize=False) for phi, alphabet in inputs]
    finally:
        fsm._tableau = tableau
    minimal = [minimize_moore(machine) for machine in products]

    def parse():
        for text, alphabet in texts:
            parse_formula(text, alphabet)

    def tableaux(negated):
        for phi, alphabet in inputs:
            tableau(phi, alphabet, negated)

    def product():
        served = iter(built)
        fsm._tableau = lambda phi, alphabet, negated: next(served)
        try:
            for phi, alphabet in inputs:
                synthesize_monitor(phi, alphabet, minimize=False)
        finally:
            fsm._tableau = tableau

    def minimize():
        for machine in products:
            minimize_moore(machine)

    # partialize keeps its result on the machine, so every repeat gets
    # copies; minimize_moore returns each copy as it is, marked minimal as
    # synthesis's machines are, so partialize scans them as it scans those.
    copies = iter(
        [[minimize_moore(MooreMonitor(m.alphabet, m.num_states, m.initial, m.delta, m.outputs))
          for m in minimal]
         for _ in range(repeats)]
    )

    def finish():
        for machine in next(copies):
            emit_monitor(partialize(machine))
            classify(machine)

    rows = {
        "parse": _median_ms(repeats, parse),
        "tableau phi": _median_ms(repeats, tableaux, False),
        "tableau neg": _median_ms(repeats, tableaux, True),
        "product": _median_ms(repeats, product),
        "minimize": _median_ms(repeats, minimize),
        "partialize+classify+emit": _median_ms(repeats, finish),
    }
    for stage, timing in rows.items():
        print(f"{name:24} {stage:26} {timing}")
    sizes = []
    for side, negated in (("phi", False), ("neg", True)):
        automata = [tableau(phi, alphabet, negated) for phi, alphabet in inputs]
        states = sum(nba.num_states for nba in automata)
        edges = sum(len(row) for nba in automata for row in nba.edges)
        sizes.append(f"{side} {states} states {edges} edges")
    skipped = 2 * len(inputs) - len(built)
    print(f"{name:24} {'tableaux':26} {', '.join(sizes)}; {skipped} neg not built")
    product_states = sum(machine.num_states for machine in products)
    minimal_states = sum(machine.num_states for machine in minimal)
    print(f"{name:24} {'states':26} product {product_states}, minimal {minimal_states}")


def main() -> None:
    args = parse_args(__doc__)
    from perfbench.workloads import REPLAY_EVENTS, Case, _conj, corpus, families, next_k, x_k
    from partmon import Always, Atom, Eventually, Implies

    _measure("families (14 formulas)", families(), args.repeats)
    _measure("corpus (200 formulas)", corpus(), args.repeats)
    resp_8 = _conj([Always(Implies(Atom(f"r{i}"), Eventually(Atom(f"g{i}")))) for i in range(8)])
    resp_events = tuple(e for i in range(8) for e in (f"r{i}", f"g{i}")) + ("idle",)
    always_next = Always(Implies(Atom("a"), next_k(Atom("b"), 10)))
    scale = [
        Case("xk-12", x_k(12), REPLAY_EVENTS),
        Case("resp-8", resp_8, resp_events),
        Case("gx-10", always_next, REPLAY_EVENTS),
    ]
    _measure("X^12, resp-8, G-X^10", scale, args.repeats)


if __name__ == "__main__":
    main()
