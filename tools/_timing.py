"""The command line and the timing loop the timing scripts share.

Each script takes ``[CHECKOUT] [--repeats N]``: CHECKOUT is the root of the
partmon checkout to measure (default: the one the scripts are in), whose
``src``, ``tests`` and root are put first on ``sys.path``, so two checkouts
are compared by running a script once on each.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time


def parse_args(doc: str) -> argparse.Namespace:
    """Parse ``[CHECKOUT] [--repeats N]`` (default 15, at least 2) and put
    the checkout first on ``sys.path``."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=here)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2: the quartiles need two samples")
    root = args.checkout
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests"), root]
    return args


def quartiles_ms(repeats: int, fn, *args) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile, in
    milliseconds, of ``repeats`` timed calls of ``fn(*args)``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - started) * 1000)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return q1, median, q3
