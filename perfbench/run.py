"""partmon benchmark: synthesis families, a random corpus and trace replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread.  A run alternates synthesis passes (formula text ->
partialized, classified, PMF-emitted monitor, for every formula of the
workload) with replay rounds through the <>(a & X^8 b) monitor: in process,
through a session, and through the ``partmon run`` CLI.  ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate, traced run.  Human-readable lines come first; the last line
of stdout is one JSON object.  The full report goes to ``perfbench/out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "partmon" / "__init__.py").is_file() or not (ROOT / "tests" / "helpers.py").is_file():
    sys.exit(f"perfbench: {ROOT} is not a partmon checkout (src/partmon and tests/helpers.py are missing)")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from partmon import (  # noqa: E402
    Alphabet,
    MooreMonitor,
    Verdict,
    classify,
    emit_monitor,
    monitor_verdict,
    parse_formula,
    parse_monitor,
    parse_trace,
    partialize,
    run_trace,
    start,
    synthesize_monitor,
)

import checks  # noqa: E402
from clock import REFERENCE_PROCESS_S, REFERENCE_S, Clock  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    REPLAY_EVENTS,
    REPLAY_K,
    WORKLOADS,
    Case,
    concluding_trace,
    expected_verdicts,
    render,
    undecided_trace,
    x_k,
)

SETUP_REPEATS = 5
# In-process replay is timed slice by slice, so that the calibrations around
# each timing are close in time to it; each slice is a trace of its own.
REPLAY_SLICE = 5_000
MIN_ROUNDS = 3
SMOKE_EVENTS = 2_000
SMOKE_SECONDS = 0.2
CLI_TIMEOUT_S = 120


@dataclass
class Inputs:
    cases: list[Case]
    texts: list[str]
    machine: MooreMonitor  # the partialized X^k monitor every workload replays
    pmf_path: Path
    undecided: list[str]
    concluding: list[str]
    slices: list[list[str]]  # the undecided trace cut into REPLAY_SLICE-event traces
    undecided_path: Path
    concluding_path: Path


@dataclass
class Samples:
    """Everything a run measured and every output the gate checks.

    Times are (reference seconds, raw seconds) pairs from :class:`clock.Clock`.
    """

    clock: Clock
    latencies: list[list[tuple[float, float]]] = field(default_factory=list)  # per pass, per formula
    traced_passes: list[float] = field(default_factory=list)
    plain_passes: list[float] = field(default_factory=list)
    layer_passes: list[dict] = field(default_factory=list)
    tables: list[dict] = field(default_factory=list)
    pmf_passes: list[list[str]] = field(default_factory=list)
    times: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    run_trace_results: list = field(default_factory=list)
    session_verdicts: list[Verdict] = field(default_factory=list)
    cli_codes: list[int] = field(default_factory=list)
    stop_outputs: list[tuple[int, str]] = field(default_factory=list)

    def measure(self, phase: str, fn, *args, process: bool = False):
        result, scaled, raw = self.clock.time(fn, *args, process=process)
        self.times.setdefault(phase, []).append((scaled, raw))
        return result

    def median(self, phase: str, raw: bool = False) -> float:
        return statistics.median(pair[raw] for pair in self.times[phase])


def setup(name: str, seed: int, smoke: bool, workdir: Path) -> Inputs:
    """Generate the workload's inputs from ``seed`` and build the replay monitor."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    cases = workload.cases(smoke)
    rng.shuffle(cases)
    events = SMOKE_EVENTS if smoke else workload.replay_events
    alphabet = Alphabet(REPLAY_EVENTS)
    machine = partialize(synthesize_monitor(parse_formula(render(x_k(REPLAY_K)), alphabet), alphabet))
    undecided = undecided_trace(rng, events)
    concluding = concluding_trace(rng, events)
    paths = workdir / "monitor.pmf", workdir / "undecided.trace", workdir / "concluding.trace"
    for path, text in zip(paths, (emit_monitor(machine), "\n".join(undecided), "\n".join(concluding))):
        path.write_text(text + "\n", encoding="utf-8")
    size = min(REPLAY_SLICE, events)
    if events % size:
        raise ValueError(f"replay trace of {events} events does not split into {size}-event slices")
    slices = [undecided[lo : lo + size] for lo in range(0, events, size)]
    texts = [case.text for case in cases]
    return Inputs(cases, texts, machine, paths[0], undecided, concluding, slices, paths[1], paths[2])


def synthesize_case(tracer, case: Case, text: str) -> str:
    """Formula text -> partialized, classified, PMF-emitted monitor."""
    alphabet = Alphabet(case.events)
    phi = tracer.call("ltl.parse", parse_formula, text, alphabet)
    machine = tracer.call("partial.partialize", partialize, tracer.call("fsm.synthesize", synthesize_monitor, phi, alphabet))
    tracer.call("partial.classify", classify, machine)
    return tracer.call("formats.emit", emit_monitor, machine)


def synth_pass(inputs: Inputs, tracer, clock: Clock) -> tuple[list[str], list[tuple[float, float]]]:
    """Every case of the workload once: the PMFs and each case's times."""
    pmfs, latencies = [], []
    for case, text in zip(inputs.cases, inputs.texts):
        tracer.fid, tracer.side = case.fid, None
        pmf, scaled, raw = clock.time(synthesize_case, tracer, case, text)
        pmfs.append(pmf)
        latencies.append((scaled, raw))
    tracer.fid = tracer.side = None
    return pmfs, latencies


def session_replay(machine: MooreMonitor, events: list[str]) -> Verdict:
    step = start(machine).step
    verdict = None
    for event in events:
        verdict = step(event)
    return verdict


def run_cli(inputs: Inputs, trace_path: Path, stop_early: bool, stdout) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "partmon", "run", "-m", str(inputs.pmf_path), "-t", str(trace_path)]
    if stop_early:
        argv.append("--stop-early")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S, text=True)


def synth_round(inputs: Inputs, s: Samples, tracer: tracing.Tracer | None) -> None:
    """One plain pass; in a traced run also one traced pass, the two taking
    turns to go first so that trace.overhead carries no order effect."""
    traced_first = tracer is not None and len(s.plain_passes) % 2 == 1
    if traced_first:
        traced_pass(inputs, s, tracer)
    pmfs, latencies = synth_pass(inputs, tracing.NullTracer(), s.clock)
    s.pmf_passes.append(pmfs)
    s.latencies.append(latencies)
    s.plain_passes.append(sum(scaled for scaled, _ in latencies))
    if tracer is not None and not traced_first:
        traced_pass(inputs, s, tracer)


def traced_pass(inputs: Inputs, s: Samples, tracer: tracing.Tracer) -> None:
    first = len(tracer.spans)
    with tracing.stage_wrappers(tracer):
        pmfs, latencies = synth_pass(inputs, tracer, s.clock)
    s.pmf_passes.append(pmfs)
    s.traced_passes.append(sum(scaled for scaled, _ in latencies))
    scale = {case.fid: scaled / raw for case, (scaled, raw) in zip(inputs.cases, latencies)}
    s.layer_passes.append(tracing.pass_layers(tracer, first, scale))
    s.tables.append(tracing.size_table(tracer, first))


def replay_round(inputs: Inputs, s: Samples, tracer: tracing.Tracer | None) -> None:
    """One repetition of each replay phase."""
    call = (tracer or tracing.NullTracer()).call
    machine = inputs.machine
    s.run_trace_results = []  # the gate checks the last round's
    for chunk in inputs.slices:
        s.run_trace_results.append(s.measure("run_trace", call, "runtime.run_trace", run_trace, machine, chunk))
        s.session_verdicts.append(s.measure("session", call, "runtime.step", session_replay, machine, chunk))
    proc = s.measure(
        "cli", call, "cli.run", run_cli, inputs, inputs.undecided_path, False, subprocess.DEVNULL, process=True
    )
    s.cli_codes.append(proc.returncode)
    proc = s.measure(
        "stop_early", call, "cli.stop_early", run_cli, inputs, inputs.concluding_path, True, subprocess.PIPE, process=True
    )
    s.stop_outputs.append((proc.returncode, proc.stdout))


def replay_layers(inputs: Inputs, s: Samples, tracer: tracing.Tracer, ledger: "Ledger") -> dict[str, float]:
    """Per-layer replay metrics of a traced run, medians in reference seconds."""
    pmf_text = inputs.pmf_path.read_text(encoding="utf-8")
    undecided_text = inputs.undecided_path.read_text(encoding="utf-8")
    alphabet = inputs.machine.alphabet
    for _ in range(len(s.times["cli"])):
        s.measure("parse_monitor", tracer.call, "formats.parse_monitor", parse_monitor, pmf_text)
        s.measure("parse_trace", tracer.call, "formats.parse_trace", parse_trace, undecided_text, alphabet)
        verdict = s.measure("verdict", tracer.call, "fsm.monitor_verdict", monitor_verdict, inputs.machine, inputs.undecided)
        ledger.add(1, verdict is not Verdict.UNKNOWN, "monitor_verdict on the undecided trace")
    read = tracer.call("formats.parse_trace", parse_trace, inputs.concluding_path.read_text(encoding="utf-8"), alphabet)
    consumed = tracer.call("runtime.run_trace", run_trace, inputs.machine, read, stop_early=True)
    run_trace_s = s.median("run_trace") * len(inputs.slices)
    in_process = s.median("parse_monitor") + s.median("parse_trace") + run_trace_s
    return {
        "formats.parse_monitor_s": s.median("parse_monitor"),
        "formats.parse_trace_s": s.median("parse_trace"),
        "runtime.run_trace_s": run_trace_s,
        "runtime.step_s": s.median("session") * len(inputs.slices),
        "runtime.events_consumed": len(consumed),
        "runtime.events_read": len(read),
        "fsm.monitor_verdict_meps": len(inputs.undecided) / s.median("verdict") / 1e6,
        "cli.overhead_s": s.median("cli") - in_process,
    }


class Ledger:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{note}: {failed} of {attempted} wrong")


def gate(inputs: Inputs, s: Samples, seed: int, workdir: Path, ledger: Ledger) -> None:
    """Check every output against references outside the automaton pipeline."""
    first = s.pmf_passes[0]
    ledger.add(len(first), 0, "pass 1 synthesized")
    for n, pmfs in enumerate(s.pmf_passes[1:], start=2):
        ledger.add(len(pmfs), sum(a != b for a, b in zip(first, pmfs)), f"pass {n} PMF differs from pass 1")
    for case, text, pmf in zip(inputs.cases, inputs.texts, first):
        ledger.add(1, parse_formula(text, Alphabet(case.events)) != case.formula, f"{case.fid}: text does not parse back")
        checked, wrong = checks.lasso_mismatches(case, pmf, seed)
        ledger.add(checked, wrong, f"{case.fid}: verdict contradicts lasso_eval")
    for n, table in enumerate(s.tables[1:], start=2):
        ledger.add(1, table != s.tables[0], f"traced pass {n} sizes differ from pass 1")

    undecided, concluding = inputs.undecided, inputs.concluding
    expect_undecided, expect_concluding = expected_verdicts(undecided), expected_verdicts(concluding)
    concluded_at = expect_concluding.index("TOP") + 1
    for chunk, results in zip(inputs.slices, s.run_trace_results):
        got = [verdict.value for _, verdict in results]
        wrong = sum(a != b for a, b in zip(got, expected_verdicts(chunk))) + abs(len(got) - len(chunk))
        ledger.add(len(chunk), wrong, "run_trace verdicts")
    wrong = sum(v is not Verdict.UNKNOWN for v in s.session_verdicts)
    ledger.add(len(s.session_verdicts), wrong, "session verdict after an undecided slice")
    for events, expect in ((undecided, expect_undecided), (concluding, expect_concluding)):
        step = start(inputs.machine).step
        ledger.add(len(events), sum(step(e).value != x for e, x in zip(events, expect)), "session verdicts")
    stopped = [verdict.value for _, verdict in run_trace(inputs.machine, concluding, stop_early=True)]
    ledger.add(1, stopped != expect_concluding[:concluded_at], "in-process stop-early")

    ledger.add(len(s.cli_codes), sum(code != 2 for code in s.cli_codes), "partmon run exit code (want 2)")
    with open(workdir / "cli.out", "w+", encoding="utf-8") as out:
        proc = run_cli(inputs, inputs.undecided_path, False, out)
        out.seek(0)
        wrong = checks.cli_output_mismatches(out.read(), undecided, expect_undecided, len(undecided))
    ledger.add(len(undecided) + 1, wrong + (proc.returncode != 2), "partmon run output")
    for code, text in s.stop_outputs:
        wrong = checks.cli_output_mismatches(text, concluding, expect_concluding, concluded_at)
        ledger.add(concluded_at + 1, wrong + (code != 0), "partmon run --stop-early output")


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(s: Samples, slice_events: int, raw: bool) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds or, with ``raw``, in wall seconds."""
    passes = [sum(pair[raw] for pair in latencies) for latencies in s.latencies]
    per_formula = [statistics.median(pair[raw] for pair in reps) for reps in zip(*s.latencies)]
    return {
        "setup_s": s.median("setup", raw),
        "synth_s": statistics.median(passes),
        "synth_p50_ms": percentile(per_formula, 50) * 1e3,
        "synth_p95_ms": percentile(per_formula, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "replay_meps": slice_events / s.median("run_trace", raw) / 1e6,
        "session_meps": slice_events / s.median("session", raw) / 1e6,
        "cli_run_s": s.median("cli", raw),
        "stop_early_s": s.median("stop_early", raw),
    }


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Set up, measure for ``seconds``, check, and return the report."""
    ledger = Ledger()
    samples = Samples(Clock())
    tracer = tracing.Tracer() if traced else None
    min_rounds = 1 if smoke else MIN_ROUNDS
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for _ in range(SETUP_REPEATS):
            inputs = samples.measure("setup", setup, name, seed, smoke, Path(tmp))
        started = time.perf_counter()
        replay_rounds = 1 if smoke else WORKLOADS[name].replay_rounds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - started < seconds:
            synth_round(inputs, samples, tracer)
            for _ in range(replay_rounds):
                replay_round(inputs, samples, tracer)
            rounds += 1
        layers = replay_layers(inputs, samples, tracer, ledger) if traced else {}
        gate(inputs, samples, seed, Path(tmp), ledger)

    events = len(inputs.undecided)
    if traced:
        metrics = tracing.layer_metrics(samples.layer_passes)
        metrics.update(layers)
        products = metrics["fsm.product_states"]
        metrics["fsm.min_ratio"] = metrics["fsm.min_states"] / products if products else 0.0
        metrics["trace.overhead"] = statistics.median(samples.traced_passes) / statistics.median(samples.plain_passes)
    else:
        metrics = end_to_end(samples, len(inputs.slices[0]), raw=False)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.notes,
        "metrics": metrics,
        "raw_wall_metrics": end_to_end(samples, len(inputs.slices[0]), raw=True),
        "reference_s": {"in_process": REFERENCE_S, "process": REFERENCE_PROCESS_S},
        "samples": {
            "setups": SETUP_REPEATS,
            "synth_passes": rounds,
            "formulas_per_pass": len(inputs.cases),
            "synth_latency_samples": len(inputs.cases),
            "replay_rounds": rounds * replay_rounds,
            "replay_slices": len(inputs.slices) * rounds * replay_rounds,
            "replay_events": events,
            "stop_early_at": expected_verdicts(inputs.concluding).index("TOP") + 1,
        },
        "static": {"src_partmon_lines": source_lines(), "python": sys.version.split()[0]},
    }
    if traced:
        report["stages_missing"] = tracing.missing_stages()
        report["size_table"] = samples.tables[0]
        report["layer_targets"] = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
        report["spans"] = [span.as_list() for span in tracer.spans]
    return report


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src" / "partmon").rglob("*.py")))


def declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def present(report: dict) -> tuple[dict, list[str]]:
    """The declared metrics with units, and the names of any the run lacks."""
    declared = declared_metrics(bool(report["trace"]))
    metrics = report["metrics"]
    missing = [name for name in declared if name not in metrics]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items() if name in metrics}, missing


def write_report(report: dict) -> Path:
    tag = "smoke-" if report["smoke"] else ""
    path = OUT / f"{tag}{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return path


def smoke() -> int:
    """Tiny versions of every workload, untraced and traced twice: every
    declared metric must be present, and sizes must repeat exactly."""
    problems = []
    if set(json.loads((HERE / "layers.json").read_text(encoding="utf-8"))) != set(declared_metrics(True)):
        problems.append("layers.json does not name exactly the per-layer metrics")
    for name in WORKLOADS:
        reports = [run(name, 1, SMOKE_SECONDS, traced, True) for traced in (False, True, True)]
        for report in reports:
            write_report(report)
            _, missing = present(report)
            if missing:
                problems.append(f"{name} trace={report['trace']}: missing {missing}")
            if not report["correct"]:
                problems.append(f"{name} trace={report['trace']}: {report['failures']}")
        if not reports[1]["size_table"] or reports[1]["size_table"] != reports[2]["size_table"]:
            problems.append(f"{name}: size table differs between two traced runs")
        print(f"smoke {name}: {len(reports[0]['metrics'])} end-to-end, {len(reports[1]['metrics'])} per-layer metrics")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    print("smoke failed" if problems else "smoke ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; checks metric names and units")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    path = write_report(report)
    metrics, missing = present(report)
    if missing:
        raise SystemExit(f"perfbench: the run produced no value for {missing}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':28s} {report['fail_ratio']:.6g} ({report['failed']} of {report['attempted']} operations)")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in report["samples"].items()))
    print(f"src/partmon lines: {report['static']['src_partmon_lines']}; report: {path.relative_to(ROOT)}")
    for note in report["failures"]:
        print(f"FAILED {note}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
