"""Correctness references that do not come from the automaton pipeline.

Monitors are read back from the PMF text the program emitted, with a reader
of this file's own, and checked against ``lasso_eval``, the fixpoint
evaluator over ultimately periodic words.  Nothing here runs inside a timed
region.
"""

from __future__ import annotations

import random

from partmon.ltl import LassoWord, lasso_eval

from workloads import Case

LASSOS_PER_FORMULA = 48
MAX_STEM = 12
MAX_LOOP = 3


class PmfTable:
    """Transition table and outputs of a PMF text, read without partmon."""

    def __init__(self, text: str):
        states: dict[str, str] = {}
        trans: dict[tuple[str, str], str] = {}
        for line in text.splitlines():
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "INITIAL":
                self.initial = parts[1]
            elif parts[0] == "STATE":
                states[parts[1]] = parts[2]
            elif parts[0] == "TRANS":
                trans[parts[1], parts[2]] = parts[3]
        self.outputs = states
        self.trans = trans

    def verdict_after(self, events) -> str:
        state = self.initial
        for event in events:
            state = self.trans[state, event]
        return self.outputs[state]


def lasso_mismatches(case: Case, pmf: str, seed: int) -> tuple[int, int]:
    """(checked, wrong) over a seeded sample of lassos stem . loop^w.

    A TOP verdict after the stem requires the lasso to satisfy the formula,
    BOT requires it to violate it; ``?`` and ``x`` claim nothing.
    """
    rng = random.Random(f"{seed}:{case.fid}")
    table = PmfTable(pmf)
    wrong = 0
    for _ in range(LASSOS_PER_FORMULA):
        stem = tuple(rng.choice(case.events) for _ in range(rng.randint(0, MAX_STEM)))
        loop = tuple(rng.choice(case.events) for _ in range(rng.randint(1, MAX_LOOP)))
        verdict = table.verdict_after(stem)
        if verdict in ("TOP", "BOT"):
            holds = lasso_eval(case.formula, LassoWord(stem, loop))
            wrong += holds != (verdict == "TOP")
    return LASSOS_PER_FORMULA, wrong


def cli_output_mismatches(text: str, events: list[str], expected: list[str], consumed: int) -> int:
    """Wrong lines in ``partmon run`` output: one ``<i> <event> <verdict>``
    line per consumed event, then ``FINAL <verdict>``."""
    lines = text.splitlines()
    wrong = abs(len(lines) - (consumed + 1))
    for i, line in enumerate(lines[:consumed]):
        wrong += line != f"{i + 1} {events[i]} {expected[i]}"
    final = expected[consumed - 1] if consumed else "?"
    wrong += not lines or lines[-1] != f"FINAL {final}"
    return wrong
