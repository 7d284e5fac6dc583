"""Operation timing, failure accounting and the statistics the report uses.

Shared machines change speed by up to 2x over seconds, and a process's
operations all slow down together. So while a workload sets up and runs
its window, a fixed reference loop that touches no fvss code is timed
after an operation whenever REF_EVERY_S seconds have passed, and each
operation's time can be rescaled by the reference times measured around
it ("calibrated" time): the wall time the operation would have taken
had the reference loop run at its nominal REF_NOMINAL_S. A change to fvss moves calibrated times as much
as wall times; machine drift moves them much less.
"""

from __future__ import annotations

import math
import sys
import traceback
from bisect import bisect_left
from collections import defaultdict
from contextlib import nullcontext
from statistics import median
from time import perf_counter

# percentiles tried, highest first, for a timing's tail
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.011
REF_NEIGHBOURS = 5   # reference timings taken on each side of an operation

_P61 = (1 << 61) - 1


def reference_loop() -> int:
    """Fixed pure-Python work in the style of the query and write paths:
    dict builds and scans, set intersection, modular integer arithmetic.
    (Of the loops tried, this mix tracked query times across processes
    best; adding HMAC and Fraction work tracked them worse.)"""
    table = {}
    for i in range(20000):
        table[i] = i * 2654435761 % _P61
    acc = 0
    for k in table:
        acc = (acc + table[k] * 3) % _P61
    common = set(range(0, 20000, 3)) & set(range(0, 20000, 2))
    for i in range(60000):
        acc += i * i % 1000003
    return acc + len(common)


class Abort(Exception):
    """An operation raised; the workload stops and the run fails its gate."""


class Recorder:
    """Times operations, counts attempts and failures.

    Every call into fvss goes through `timed` (a measured operation) or
    `untimed` (fault injection and the correctness gate), so the traced
    run attributes each span to a benchmark operation.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_transferred = 0
        self.wh = None   # warehouse whose provider byte counters are followed
        self.calibrating = False
        self.stamps: dict[str, list[float]] = defaultdict(list)
        self.ref_at: list[float] = []
        self.ref_s: list[float] = []

    def _moved(self) -> int:
        if self.wh is None:
            return 0
        return sum(csp.bytes_transferred for csp in self.wh.csps.values())

    def _call(self, kind: str, fn, args):
        self.attempted += 1
        wh, before = self.wh, self._moved()
        scope = self.tracer.op(kind) if self.tracer is not None else nullcontext()
        try:
            with scope:
                t0 = perf_counter()
                result = fn(*args)
                elapsed = perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise Abort(kind) from exc
        if self.wh is wh:
            self.bytes_transferred += self._moved() - before
        return result, elapsed

    def timed(self, kind: str, fn, *args):
        result, elapsed = self._call(kind, fn, args)
        self.samples[kind].append(elapsed)
        if self.calibrating:
            now = perf_counter()
            self.stamps[kind].append(now)
            if not self.ref_at or now - self.ref_at[-1] >= REF_EVERY_S:
                self.calibrate()
        return result

    def calibrate(self):
        """Time the reference loop once."""
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.ref_at.append(t1)
        self.ref_s.append(t1 - t0)

    def calibrated(self, kind: str) -> list[float]:
        """The window's samples of kind, each rescaled by the median of the
        reference timings nearest to it."""
        out = []
        for stamp, seconds in zip(self.stamps[kind], self.samples[kind]):
            j = bisect_left(self.ref_at, stamp)
            near = self.ref_s[max(0, j - REF_NEIGHBOURS): j + REF_NEIGHBOURS]
            out.append(seconds * REF_NOMINAL_S / median(near))
        return out

    def untimed(self, kind: str, fn, *args):
        return self._call(kind, fn, args)[0]

    def check(self, ok: bool, what: str):
        """Count a wrong answer from the operation just made as failed."""
        if not ok:
            self.failed += 1
            self.failures.append(f"wrong answer: {what}")
            print(f"gate: wrong answer: {what}", file=sys.stderr)


def tail(values):
    """(percentile, value) for the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, or None when there are too few samples."""
    for pct in TAIL_LADDER:
        if len(values) * (1 - pct / 100) >= 10:
            return pct, percentile(values, pct)
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(pct / 100 * len(s)) - 1))]
