"""Host-speed-corrected time: a fixed reference kernel sampled all through a run.

On a small shared host the process's own speed drifts by up to 2x within
minutes (process CPU time equals wall time, so the CPU runs slower, not
the process waiting for it). The same 48-point ``grid`` pass, repeated in one
process, took 5.1-9.7 s. No statistic over one run removes that, and two
runs a few minutes apart disagree by more than any useful bound.

:class:`HostSpeed` samples the host's speed inside the measuring thread: a
``SIGALRM`` timer runs :func:`kernel`, a fixed piece of pure-Python work
that imports nothing from the program, every :data:`INTERVAL_S` seconds.
:meth:`HostSpeed.seconds` then converts a measured interval to *reference
seconds*: its time outside the kernel, with each stretch between two samples
scaled by :data:`REF_S` over the kernel's local median time. So a reading is
the host time the interval would take on a host where the kernel takes
``REF_S``. A faster program reads less; a slower host does not read more.
On repeats of the same ``grid`` pass, this took the spread (quartile distance
over median) of the pass time from 20% to 5%.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import random
import signal
import statistics
import time
from typing import Callable, List, Optional

#: Nominal kernel time: reference seconds are host seconds of a host on
#: which :func:`kernel` takes this long (about its median on a quiet 2-vCPU
#: Xeon host).
REF_S = 0.003
#: Seconds between two kernel samples (the kernel's own cost is ~3%).
INTERVAL_S = 0.1
#: A stretch's speed is the median kernel time within this many seconds.
WINDOW_S = 0.3


class _Rec:
    __slots__ = ("key", "value", "label")

    def __init__(self, key, value, label):
        self.key, self.value, self.label = key, value, label


_TABLE = {i: _Rec(i, float(i), str(i)) for i in range(20_000)}
_KEYS = random.Random(1).sample(range(20_000), 1_000)


def kernel() -> int:
    """Fixed work shaped like the program's: an event heap driving generator
    processes, then keyed lookups into a table, small objects, formatting and
    a sort."""

    def process(i):
        total = 0.0
        while True:
            total += yield i * 0.5

    heap: list = []
    processes = [process(i) for i in range(32)]
    for p in processes:
        next(p)
    for i in range(64):
        heapq.heappush(heap, (float(i), i, i % 32))
    seq = 64
    for _ in range(600):
        now, _seq, k = heapq.heappop(heap)
        delay = processes[k].send(now)
        seq += 1
        heapq.heappush(heap, (now + delay + 1.0, seq, (k * 7 + 3) % 32))
    seen = {}
    out = []
    for key in _KEYS:
        rec = _TABLE[key]
        value = rec.value * 1.5 + math.sqrt(rec.key + 1)
        seen[rec.label] = value
        out.append(_Rec(key, value, f"{key}:{value:.2f}"))
    out.sort(key=lambda r: r.value)
    return len(seen) + seq


class HostSpeed:
    """Samples :func:`kernel` on a timer while active (a context manager)."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.at: List[float] = []  # perf_counter() when each sample started
        self.took: List[float] = []  # its kernel seconds
        self._local: Optional[List[float]] = None
        self._previous: Optional[Callable] = None

    def _sample(self, _signum=None, _frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not host speed
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(end - start)
        self._local = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # at least one sample, however short the stretch
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _local_medians(self) -> List[float]:
        if self._local is None:
            at, took = self.at, self.took
            self._local = [
                statistics.median(took[bisect.bisect_left(at, t - WINDOW_S):
                                       bisect.bisect_right(at, t + WINDOW_S)])
                for t in at
            ]
        return self._local

    def median_took(self) -> float:
        return statistics.median(self.took)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` (see the module docstring)."""
        if not self.at:
            raise RuntimeError("no host-speed samples were taken")
        local = self._local_medians()
        last = len(self.at) - 1
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_left(self.at, end)
        # Stretches: start..first sample, sample..next sample, ..., last..end.
        edges = [start] + self.at[i:j] + [end]
        total = 0.0
        for k in range(len(edges) - 1):
            lo, hi = edges[k], edges[k + 1]
            if k:
                lo += self.took[i + k - 1]
            near = min(i + k - 1 if k else i, last)
            total += max(hi - lo, 0.0) * REF_S / local[near]
        return total


def wall(start: float, end: float) -> float:
    """Plain host seconds, for passes measured without :class:`HostSpeed`."""
    return end - start
