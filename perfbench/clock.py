"""Timing in reference seconds on a machine whose speed drifts.

On a small shared machine the interpreter runs the same code up to a third
slower for stretches of seconds to minutes, so raw medians of the same
program spread by 15-30 % across runs.  :class:`Clock` runs a fixed
calibration after every timed call and scales the call's wall time by
``reference / calibration``, using the calibrations just before and just
after it.  In-process calls are calibrated by a short loop; calls that start
a process are calibrated by a reference process that starts Python, imports
this module and runs the loop.  The calibration is benchmark code that no
change to partmon touches, so the scaled times compare commits at a common
machine speed.  Raw wall times are kept alongside.

Run as a script, this module is that reference process.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Callable

# Wall times of the calibrations at the speed the reference seconds stand
# for: a 2-core x86-64 container with CPython 3.11, in its fast phase.
REFERENCE_S = 0.002
REFERENCE_PROCESS_S = 0.12
PROCESS_LOOPS = 10


class _Node:
    __slots__ = ("key", "links")

    def __init__(self, key: int):
        self.key = key
        self.links: list[int] = []


def calibration_work() -> int:
    """A fixed mix of the interpreter work partmon does: tuple, dict and set
    churn, frozensets, slotted objects, list growth and a breadth-first walk."""
    nodes = [_Node(i) for i in range(600)]
    for node in nodes:
        node.links.extend(((node.key * 7) % 600, (node.key * 13 + 1) % 600))
    ids: dict[frozenset[int], int] = {}
    seen = {0}
    queue = [0]
    for q in queue:
        for dst in nodes[q].links:
            ids.setdefault(frozenset((q, dst)), len(ids))
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + 1
    return len(ids) + len(table)


def _calibrate() -> float:
    started = time.perf_counter()
    calibration_work()
    return time.perf_counter() - started


def _calibrate_process() -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__], env={"PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}, check=True, timeout=60
    )
    return time.perf_counter() - started


class Clock:
    def __init__(self) -> None:
        self._last = {False: _calibrate(), True: None}

    def time(self, fn: Callable, *args: Any, process: bool = False) -> tuple[Any, float, float]:
        """Call ``fn``; return its result, reference seconds and raw seconds.

        ``process`` marks a call whose time is spent mostly in a child
        process, such as a CLI run.
        """
        calibrate, reference = (_calibrate_process, REFERENCE_PROCESS_S) if process else (_calibrate, REFERENCE_S)
        if self._last[process] is None:
            self._last[process] = calibrate()
        started = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - started
        after = calibrate()
        scaled = raw * reference * 2 / (self._last[process] + after)
        self._last[process] = after
        return result, scaled, raw


if __name__ == "__main__":
    for _ in range(PROCESS_LOOPS):
        calibration_work()
