"""Time per-state emptiness (``partmon.fsm.per_state_nonempty``) in process.

Usage: python tools/emptiness_timing.py [CHECKOUT] [--repeats N]

CHECKOUT is the root of the partmon checkout to measure (default: the one
this script is in); its ``src``, ``tests`` and root are put first on
``sys.path``, so two checkouts are compared by running the script once on
each.  The tableaux are built first, untimed; then every tableau set is
timed ``--repeats`` times (default 15, at least 2) and the median and the quartiles of
the whole set's time are printed, in milliseconds.

Tableau sets: both sides of the 14 synthesis families and of the
200-formula corpus of ``perfbench/workloads.py``, resp-8's formula side and
X^14's negation side.
"""

from __future__ import annotations

from _timing import parse_args, quartiles_ms


def _tableaux():
    from partmon import Alphabet, Not, ltl_to_nba, parse_formula
    from perfbench.workloads import corpus, families, x_k

    def sides(cases):
        tableaux = []
        for case in cases:
            alphabet = Alphabet(case.events)
            tableaux.append(ltl_to_nba(case.formula, alphabet))
            tableaux.append(ltl_to_nba(Not(case.formula), alphabet))
        return tableaux

    resp8 = " & ".join(f"[](r{i} -> <>g{i})" for i in range(8))
    resp8_alphabet = Alphabet([f"{c}{i}" for i in range(8) for c in "rg"] + ["idle"])
    abc = Alphabet(["a", "b", "c"])
    return {
        "families (28 tableaux)": sides(families()),
        "corpus (400 tableaux)": sides(corpus()),
        "resp-8 formula side": [ltl_to_nba(parse_formula(resp8), resp8_alphabet)],
        "X^14 negation side": [ltl_to_nba(Not(x_k(14)), abc)],
    }


def main() -> None:
    args = parse_args(__doc__)
    from partmon.fsm import per_state_nonempty

    def check_all(tableaux):
        for nba in tableaux:
            per_state_nonempty(nba)

    for name, tableaux in _tableaux().items():
        states = sum(nba.num_states for nba in tableaux)
        q1, median, q3 = quartiles_ms(args.repeats, check_all, tableaux)
        print(f"{name:24} {states:6} states  median {median:7.2f} ms  IQR {q1:.2f}-{q3:.2f} ms")


if __name__ == "__main__":
    main()
