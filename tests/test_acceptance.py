"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

import hashlib
import random
import time

import pytest

from partmon.buchi import ltl_to_nba, nba_accepts_lasso
from partmon.cli import main as cli_main
from partmon.formats import emit_monitor, parse_monitor
from partmon.fsm import (
    MooreMonitor,
    Verdict,
    monitor_verdict,
    synthesize_monitor,
)
from partmon.ltl import Alphabet, LassoWord, Not, lasso_eval, negate_nnf, nnf, parse_formula
from partmon.partial import Monitorability, classify, partialize
from partmon.runtime import run_trace

from helpers import (
    ALPHA3,
    ALPHA4,
    NAMES3,
    RADIATION_ALPHA,
    RADIATION_FORMULA,
    all_lassos,
    all_words,
    eventually_ev1_machine,
    mixed_branches_machine,
    moore_isomorphic,
    random_formula,
    reachability_oracle,
)

MIXED_FORMULA = "(ev1 & <>ev2) | (ev3 & []<>ev4)"

PREFIXES = all_words(NAMES3, 4)          # all traces up to length 4
LASSOS = all_lassos(NAMES3, 2, 2)        # all lassos with |stem|<=2, |loop|<=2


def _report(number: int, description: str) -> None:
    print(f"[C{number}] {description}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random formulas (depth <= 4, three events) with their
    minimized monitors; shared by the statistical criteria."""
    rng = random.Random(0xACCE55)
    entries = []
    for _ in range(200):
        phi = random_formula(rng, 4)
        entries.append((phi, synthesize_monitor(phi, ALPHA3)))
    return entries


def test_criterion_1_eventually_golden():
    started = time.perf_counter()
    machine = synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3)
    elapsed = time.perf_counter() - started
    assert machine.num_states == 2
    assert sorted(v.value for v in machine.outputs) == ["?", "TOP"]
    assert moore_isomorphic(machine, eventually_ev1_machine())
    # initial ? loops on ev2/ev3 and moves to the TOP sink on ev1
    start = machine.initial
    assert machine.output(start) is Verdict.UNKNOWN
    assert machine.step(start, "ev2") == start
    assert machine.step(start, "ev3") == start
    top = machine.step(start, "ev1")
    assert machine.output(top) is Verdict.TOP
    assert all(machine.step(top, e) == top for e in NAMES3)
    assert elapsed < 1.0
    _report(1, "2-state monitor for the eventuality property")


def test_criterion_2_givup_relabel_golden():
    started = time.perf_counter()
    before = synthesize_monitor(parse_formula(MIXED_FORMULA, ALPHA4), ALPHA4)
    after = partialize(before)
    elapsed = time.perf_counter() - started
    assert after.num_states == 5
    assert moore_isomorphic(after, mixed_branches_machine(partial=True))
    changed = [
        q
        for q in after.states()
        if after.outputs[q] is not before.outputs[q]
    ]
    assert len(changed) == 1
    giveup = changed[0]
    assert before.outputs[giveup] is Verdict.UNKNOWN
    assert after.outputs[giveup] is Verdict.GIVEUP
    # the give-up state is entered from the initial state on ev3, and only there
    assert after.delta[after.initial][ALPHA4.index("ev3")] == giveup
    for event in ("ev1", "ev2", "ev4"):
        assert after.delta[after.initial][ALPHA4.index(event)] != giveup
    assert elapsed < 1.0
    _report(2, "single give-up state appears exactly where expected")


def test_criterion_3_recurrence_gives_up_entirely():
    alphabet = Alphabet(("inspect_tank_1", "move_to_waypoint", "take_sample"))
    started = time.perf_counter()
    machine = partialize(
        synthesize_monitor(parse_formula("[]<>inspect_tank_1", alphabet), alphabet)
    )
    report = classify(machine)
    elapsed = time.perf_counter() - started
    assert machine.num_states == 1
    assert machine.outputs == (Verdict.GIVEUP,)
    assert report.classification is Monitorability.NON_MONITORABLE
    assert report.ugly_witness == ()
    assert elapsed < 1.0
    _report(3, "recurrence property collapses to a single give-up state")


def test_criterion_4_radiation_golden():
    started = time.perf_counter()
    machine = partialize(
        synthesize_monitor(parse_formula(RADIATION_FORMULA, RADIATION_ALPHA), RADIATION_ALPHA)
    )
    elapsed = time.perf_counter() - started
    assert machine.num_states == 5
    assert sum(1 for v in machine.outputs if v is Verdict.GIVEUP) == 1
    giveup = next(q for q in machine.states() if machine.outputs[q] is Verdict.GIVEUP)
    assert machine.delta[machine.initial][RADIATION_ALPHA.index("rad_medium")] == giveup
    assert monitor_verdict(machine, ("rad_medium",)) is Verdict.GIVEUP
    assert monitor_verdict(machine, ("insp_t1",)) is Verdict.BOT
    assert monitor_verdict(machine, ("rad_low", "rad_high", "mv_dec")) is Verdict.TOP
    assert elapsed < 2.0
    _report(4, "radiation monitor: 5 states, give-up on rad_medium, trace verdicts")


def test_criterion_5_oracle_soundness_suite(corpus):
    started = time.perf_counter()
    violations = 0
    for phi, machine in corpus:
        negated = synthesize_monitor(Not(phi), ALPHA3)
        nba_pos = ltl_to_nba(nnf(phi), ALPHA3)
        nba_neg = ltl_to_nba(negate_nnf(phi), ALPHA3)

        for word in LASSOS:
            expected = lasso_eval(phi, word)
            if nba_accepts_lasso(nba_pos, word) != expected:
                violations += 1
            if nba_accepts_lasso(nba_neg, word) == expected:
                violations += 1

        cache: dict[tuple, bool] = {}

        def satisfied(stem, loop):
            key = (stem, loop)
            if key not in cache:
                cache[key] = lasso_eval(phi, LassoWord(stem, loop))
            return cache[key]

        for sigma in PREFIXES:
            verdict = monitor_verdict(machine, sigma)
            if monitor_verdict(negated, sigma) is not verdict.dual():
                violations += 1
            if verdict is Verdict.TOP:
                if not all(satisfied(sigma + w.stem, w.loop) for w in LASSOS):
                    violations += 1
            elif verdict is Verdict.BOT:
                if any(satisfied(sigma + w.stem, w.loop) for w in LASSOS):
                    violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 300.0
    _report(5, f"oracle soundness across 200 formulas in {elapsed:.1f}s, zero violations")


def test_criterion_6_partialize_correctness(corpus):
    violations = 0
    for phi, machine in corpus:
        partial = partialize(machine)
        # backward pass agrees with the forward oracle on every state
        for state in partial.states():
            forward = reachability_oracle(partial, state)
            label = partial.outputs[state]
            if label is Verdict.GIVEUP and forward:
                violations += 1
            if label is Verdict.UNKNOWN and not forward:
                violations += 1
            # give-up closure: all successors of a give-up state give up
            if label is Verdict.GIVEUP:
                if any(
                    partial.outputs[t] is not Verdict.GIVEUP
                    for t in partial.delta[state]
                ):
                    violations += 1
        # idempotence
        if partialize(partial).outputs != partial.outputs:
            violations += 1
        # a give-up verdict is never followed by a conclusive one within 4 steps
        for sigma in PREFIXES:
            if monitor_verdict(partial, sigma) is Verdict.GIVEUP:
                state = partial.initial
                for event in sigma:
                    state = partial.step(state, event)
                frontier = {state}
                for _ in range(4):
                    frontier = {partial.delta[q][k] for q in frontier for k in range(3)}
                    if any(partial.outputs[q].is_conclusive for q in frontier):
                        violations += 1
                        break
    assert violations == 0
    _report(6, "give-up labeling agrees with forward reachability, zero violations")


def test_criterion_7_classification_concordance():
    eventually = classify(
        partialize(synthesize_monitor(parse_formula("<>ev1", ALPHA3), ALPHA3))
    )
    assert eventually.classification is Monitorability.FORALL_PZ

    mixed = classify(
        partialize(synthesize_monitor(parse_formula(MIXED_FORMULA, ALPHA4), ALPHA4))
    )
    assert mixed.classification is Monitorability.EXISTS_PZ_ONLY

    recurrence = classify(
        partialize(synthesize_monitor(parse_formula("[]<>ev1", ALPHA3), ALPHA3))
    )
    assert recurrence.classification is Monitorability.NON_MONITORABLE
    _report(7, "classification matches the documented classes")


def test_criterion_8_round_trip_and_cli(corpus, tmp_path, capsys):
    # PMF round trip on every corpus machine
    for _, machine in corpus:
        partial = partialize(machine)
        assert moore_isomorphic(parse_monitor(emit_monitor(partial)), partial)

    # replaying through the CLI over a serialized machine reproduces the
    # in-memory verdicts, and exit codes encode the final verdict
    exit_codes = {Verdict.TOP: 0, Verdict.BOT: 1, Verdict.UNKNOWN: 2, Verdict.GIVEUP: 3}
    for formula, alphabet in ((MIXED_FORMULA, ALPHA4), ("<>ev1", ALPHA3)):
        machine = partialize(
            synthesize_monitor(parse_formula(formula, alphabet), alphabet)
        )
        pmf_path = tmp_path / "machine.pmf"
        pmf_path.write_text(emit_monitor(machine))
        for sigma in all_words(alphabet.symbols, 3):
            trace_path = tmp_path / "trace.txt"
            trace_path.write_text(" ".join(sigma) + "\n")
            code = cli_main(["run", "-m", str(pmf_path), "-t", str(trace_path)])
            out = capsys.readouterr().out
            lines = out.strip().splitlines()
            expected = run_trace(machine, sigma)
            body, final_line = lines[:-1], lines[-1]
            assert body == [
                f"{i} {sigma[i - 1]} {v.value}" for i, v in expected
            ]
            final = expected[-1][1] if expected else machine.output(machine.initial)
            assert final_line == f"FINAL {final.value}"
            assert code == exit_codes[final]
    _report(8, "PMF round trip and CLI replay agree with in-memory monitors")


def test_criterion_9_partialize_scales_linearly():
    alphabet = Alphabet(tuple(f"a{i}" for i in range(8)))
    n = 10_000
    top_sink, bot_sink = 8998, 8999
    region = 9000  # closed inconclusive region: states 9000..9999
    delta = []
    outputs = []
    for i in range(n):
        if i == top_sink:
            delta.append([top_sink] * 8)
            outputs.append(Verdict.TOP)
        elif i == bot_sink:
            delta.append([bot_sink] * 8)
            outputs.append(Verdict.BOT)
        elif i >= region:
            base = i - region
            delta.append(
                [region + ((base + 1) % 1000)]
                + [region + ((base * 7 + k * 13) % 1000) for k in range(1, 8)]
            )
            outputs.append(Verdict.UNKNOWN)
        else:
            row = [i + 1]  # chain keeps every state reachable
            for k in range(1, 8):
                row.append((i * 31 + k * 1237) % 8998)
            delta.append(row)
            outputs.append(Verdict.UNKNOWN)
    # entry points: the BOT sink and the hopeless region hang off state 0
    delta[0][1] = bot_sink
    delta[0][2] = region
    machine = MooreMonitor(alphabet, n, 0, delta, outputs)

    started = time.perf_counter()
    partial = partialize(machine)
    elapsed = time.perf_counter() - started

    giveups = sum(1 for v in partial.outputs if v is Verdict.GIVEUP)
    assert giveups == 1000  # exactly the closed region
    assert elapsed < 1.0
    _report(9, f"partialize over 10,000 states in {elapsed * 1000:.0f} ms")


# sha256 over the concatenated partialized PMF texts of the corpus, in corpus
# order.  Synthesis rewrites must keep every minimal machine byte-identical.
CORPUS_PMF_SHA256 = "d63f6d5613016eec08532aada2655a0c11ce0fbed6f0210e3463396f7acaa0d3"


def test_corpus_pmf_digest_is_unchanged(corpus):
    digest = hashlib.sha256()
    for _, machine in corpus:
        digest.update(emit_monitor(partialize(machine)).encode())
    assert digest.hexdigest() == CORPUS_PMF_SHA256
