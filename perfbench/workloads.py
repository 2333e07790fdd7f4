"""Seeded inputs for the three workloads.

Formulas are built as syntax trees with partmon's constructors and rendered
to fully parenthesized text here, so the program under test only ever sees
text, and the trees stay available as the reference for the correctness gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce

from partmon.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
)

# The corpus the tier-1 acceptance suite uses; fixed so that synth_s compares
# the same 200 formulas on every seed (see README.md).
CORPUS_SEED = 0xACCE55
CORPUS_SIZE = 200
CORPUS_DEPTH = 4
CORPUS_EVENTS = ("ev1", "ev2", "ev3")

# Every workload replays the monitor for <>(a & X^k b) with this k.
REPLAY_K = 8
REPLAY_EVENTS = ("a", "b", "c")


@dataclass(frozen=True)
class Case:
    """One formula to synthesize: its id, the reference tree, its alphabet."""

    fid: str
    formula: Formula
    events: tuple[str, ...]

    @property
    def text(self) -> str:
        return render(self.formula)


@dataclass(frozen=True)
class Workload:
    """Which formulas a workload synthesizes, how long its replay traces are,
    and how many replay rounds follow each synthesis pass."""

    name: str
    replay_events: int
    replay_rounds: int
    small: tuple[str, ...] = ()  # case ids kept by the smoke mode

    def cases(self, smoke: bool) -> list[Case]:
        built = _BUILDERS[self.name]()
        if smoke:
            keep = set(self.small)
            built = [case for case in built if case.fid in keep] if keep else built[:12]
        return built


_BINARY = {And: "&", Or: "|", Implies: "->", Until: "U", Release: "R"}
_UNARY = {Not: "!", Next: "X ", Eventually: "<>", Always: "[]"}


def render(phi: Formula) -> str:
    """Fully parenthesized formula text that parses back to ``phi``."""
    if isinstance(phi, TrueFormula):
        return "true"
    if isinstance(phi, FalseFormula):
        return "false"
    if isinstance(phi, Atom):
        return phi.name
    op = type(phi)
    if op in _UNARY:
        return f"{_UNARY[op]}({render(phi.arg)})"
    return f"({render(phi.left)} {_BINARY[op]} {render(phi.right)})"


def next_k(phi: Formula, k: int) -> Formula:
    for _ in range(k):
        phi = Next(phi)
    return phi


def x_k(k: int) -> Formula:
    """<>(a & X^k b): true once some a is followed k events later by b."""
    return Eventually(And(Atom("a"), next_k(Atom("b"), k)))


def _conj(parts: list[Formula]) -> Formula:
    return reduce(And, parts)


def families() -> list[Case]:
    rad = ("rad_low", "rad_high", "rad_medium", "mv_dec", "insp_t1", "insp_t2")
    radiation = Until(
        Atom("rad_low"),
        Or(
            And(Atom("rad_high"), Eventually(Atom("mv_dec"))),
            And(Atom("rad_medium"), Always(Eventually(Or(Atom("insp_t1"), Atom("insp_t2"))))),
        ),
    )
    cases = [Case("radiation", radiation, rad)]
    for n in (2, 3):
        phi = _conj([Always(Implies(Atom(f"r{i}"), Eventually(Atom(f"g{i}")))) for i in range(n)])
        events = tuple(e for i in range(n) for e in (f"r{i}", f"g{i}")) + ("idle",)
        cases.append(Case(f"resp-{n}", phi, events))
    for k in range(4, 11):
        cases.append(Case(f"xk-{k}", x_k(k), REPLAY_EVENTS))
    for n in range(2, 6):
        phi = _conj([Always(Eventually(Atom(f"e{i}"))) for i in range(n)])
        cases.append(Case(f"gf-{n}", phi, tuple(f"e{i}" for i in range(n)) + ("z",)))
    return cases


def corpus() -> list[Case]:
    from helpers import random_formula  # tests/helpers.py, on sys.path via run.py

    rng = random.Random(CORPUS_SEED)
    return [
        Case(f"c{i:03d}", random_formula(rng, CORPUS_DEPTH, CORPUS_EVENTS), CORPUS_EVENTS)
        for i in range(CORPUS_SIZE)
    ]


def replay_cases() -> list[Case]:
    return [Case(f"xk-{REPLAY_K}", x_k(REPLAY_K), REPLAY_EVENTS)]


_BUILDERS = {"synth-families": families, "synth-corpus": corpus, "replay": replay_cases}

WORKLOADS = {
    w.name: w
    for w in (
        # A synthesis pass takes seconds here; short traces and two replay
        # rounds per pass leave most of the run to synthesis while still
        # giving the replay metrics enough samples.
        Workload("synth-families", 20_000, 2, ("radiation", "resp-2", "xk-4", "gf-2")),
        Workload("synth-corpus", 20_000, 2),
        Workload("replay", 100_000, 1),
    )
}


def undecided_trace(rng: random.Random, length: int, k: int = REPLAY_K) -> list[str]:
    """Events over {a, b, c} with no a followed k events later by b."""
    events: list[str] = []
    for i in range(length):
        no_b = i >= k and events[i - k] == "a"
        events.append(rng.choice(("a", "c") if no_b else REPLAY_EVENTS))
    return events


def concluding_trace(rng: random.Random, length: int, k: int = REPLAY_K) -> list[str]:
    """a, k-1 random events, then b: the property holds from event k + 1 on."""
    events = ["a"] + [rng.choice(REPLAY_EVENTS) for _ in range(k - 1)] + ["b"]
    events += [rng.choice(REPLAY_EVENTS) for _ in range(length - len(events))]
    return events


def expected_verdicts(events: list[str], k: int = REPLAY_K) -> list[str]:
    """Verdict text after each event, by a direct scan for a ... b k apart."""
    out: list[str] = []
    done = False
    for i, event in enumerate(events):
        done = done or (i >= k and event == "b" and events[i - k] == "a")
        out.append("TOP" if done else "?")
    return out

