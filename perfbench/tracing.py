"""Spans around partmon's layers, recorded from outside the library.

:class:`Tracer` times the calls the benchmark makes itself.
:func:`stage_wrappers` additionally replaces the stage functions that
``synthesize_monitor`` looks up in ``partmon.fsm`` at call time, so the stages
inside one synthesis get spans of their own.  Spans stay in memory; the
report writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import partmon.fsm
from partmon.fsm import Verdict


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    fid: str | None
    side: str | None
    size: Any

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.fid, self.side, self.size]


def _nba_size(result, *args) -> dict:
    return {"nba_states": result.num_states, "nba_edges": len(result.transitions)}


def _minimize_size(result, machine, *args) -> dict:
    return {"product_states": machine.num_states, "min_states": result.num_states}


def _giveup_size(result, *args) -> dict:
    return {"giveup_states": sum(1 for out in result.outputs if out is Verdict.GIVEUP)}


# span name -> the sizes of what the call returned
SIZE_OF: dict[str, Callable] = {
    "buchi.nba": _nba_size,
    "fsm.live": lambda result, *args: {"live_states": len(result.finals)},
    "fsm.subset": lambda result, *args: {"subsets": result.num_states},
    "fsm.minimize": _minimize_size,
    "partial.partialize": _giveup_size,
    "formats.parse_trace": lambda result, *args: {"events_read": len(result)},
    "runtime.run_trace": lambda result, *args: {"events_consumed": len(result)},
}
# Spans that belong to one side: the formula (pos) or its negation (neg).
SIDED = {"ltl.nnf", "buchi.nba", "fsm.live", "fsm.subset"}

# partmon.fsm attribute -> span name.  nnf / negate_nnf also mark which side
# (the formula or its negation) the following stage calls belong to.
STAGES = {
    "nnf": "ltl.nnf",
    "negate_nnf": "ltl.nnf",
    "ltl_to_nba": "buchi.nba",
    "nba_to_nfa": "fsm.live",
    "determinize": "fsm.subset",
    "minimize_moore": "fsm.minimize",
}
_SIDE_OF = {"nnf": "pos", "negate_nnf": "neg"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.fid: str | None = None
        self.side: str | None = None

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        side = self.side if name in SIDED else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.fid, side, None))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        span = self.spans[index]
        span.start, span.end = start, end
        size_of = SIZE_OF.get(name)
        if size_of is not None:
            span.size = size_of(result, *args)
        return result

    def self_times(self, first: int = 0) -> list[float]:
        """Duration of each span from ``first`` on, minus its children's."""
        spans = self.spans[first:]
        own = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent is not None and s.parent >= first:
                own[s.parent - first] -= s.end - s.start
        return own


@contextlib.contextmanager
def stage_wrappers(tracer: Tracer):
    """Route partmon.fsm's stage lookups through ``tracer`` for the block.

    A stage the library no longer has is skipped; its metrics then read 0
    and :func:`missing_stages` names it.
    """
    saved = {attr: getattr(partmon.fsm, attr) for attr in STAGES if hasattr(partmon.fsm, attr)}

    def wrap(attr: str, original: Callable) -> Callable:
        name, side = STAGES[attr], _SIDE_OF.get(attr)

        def wrapper(*args, **kwargs):
            if side is not None:
                tracer.side = side
            return tracer.call(name, original, *args, **kwargs)

        return wrapper

    try:
        for attr, original in saved.items():
            setattr(partmon.fsm, attr, wrap(attr, original))
        yield
    finally:
        for attr, original in saved.items():
            setattr(partmon.fsm, attr, original)


def missing_stages() -> list[str]:
    return [attr for attr in STAGES if not hasattr(partmon.fsm, attr)]


# Per-pass layer totals of a synthesis pass: metric -> (span name, side, what)
# where what is "time" (summed self time) or a key of the span's sizes.
SYNTH_LAYERS = {
    "ltl.parse_s": ("ltl.parse", None, "time"),
    "ltl.nnf_s": ("ltl.nnf", None, "time"),
    "buchi.nba_s.pos": ("buchi.nba", "pos", "time"),
    "buchi.nba_s.neg": ("buchi.nba", "neg", "time"),
    "buchi.nba_states.pos": ("buchi.nba", "pos", "nba_states"),
    "buchi.nba_states.neg": ("buchi.nba", "neg", "nba_states"),
    "buchi.nba_edges.pos": ("buchi.nba", "pos", "nba_edges"),
    "buchi.nba_edges.neg": ("buchi.nba", "neg", "nba_edges"),
    "fsm.live_s.pos": ("fsm.live", "pos", "time"),
    "fsm.live_s.neg": ("fsm.live", "neg", "time"),
    "fsm.live_states.pos": ("fsm.live", "pos", "live_states"),
    "fsm.live_states.neg": ("fsm.live", "neg", "live_states"),
    "fsm.subset_s.pos": ("fsm.subset", "pos", "time"),
    "fsm.subset_s.neg": ("fsm.subset", "neg", "time"),
    "fsm.subsets.pos": ("fsm.subset", "pos", "subsets"),
    "fsm.subsets.neg": ("fsm.subset", "neg", "subsets"),
    "fsm.product_s": ("fsm.synthesize", None, "time"),
    "fsm.product_states": ("fsm.minimize", None, "product_states"),
    "fsm.minimize_s": ("fsm.minimize", None, "time"),
    "fsm.min_states": ("fsm.minimize", None, "min_states"),
    "partial.partialize_s": ("partial.partialize", None, "time"),
    "partial.classify_s": ("partial.classify", None, "time"),
    "partial.giveup_states": ("partial.partialize", None, "giveup_states"),
    "formats.emit_s": ("formats.emit", None, "time"),
}


def pass_layers(tracer: Tracer, first: int, scale: dict[str, float]) -> dict[str, float]:
    """Layer totals over the spans one synthesis pass recorded: self times
    multiplied by their formula's ``scale`` and summed, sizes summed as
    whole counts."""
    totals = {metric: 0.0 if what == "time" else 0 for metric, (_, _, what) in SYNTH_LAYERS.items()}
    own = tracer.self_times(first)
    for span, self_time in zip(tracer.spans[first:], own):
        for metric, (name, side, what) in SYNTH_LAYERS.items():
            if span.name == name and side in (None, span.side):
                totals[metric] += self_time * scale[span.fid] if what == "time" else span.size[what]
    return totals


def size_table(tracer: Tracer, first: int) -> dict[str, dict[str, int]]:
    """Per-formula sizes, by formula id, from one synthesis pass."""
    table: dict[str, dict[str, int]] = {}
    for span in tracer.spans[first:]:
        if span.fid is not None and span.size is not None:
            row = table.setdefault(span.fid, {})
            for key, value in span.size.items():
                row[f"{key}.{span.side}" if span.side else key] = value
    return table


def layer_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median pass for each time; sizes repeat, so the first pass's."""
    return {
        metric: statistics.median(p[metric] for p in passes) if what == "time" else passes[0][metric]
        for metric, (_, _, what) in SYNTH_LAYERS.items()
    }
