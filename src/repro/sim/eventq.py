"""The event queue shared by the DES kernel and the fleet's virtual clock.

:class:`HeapEventQueue` is a binary heap of ``(time, seq, obj)`` entries,
where ``obj`` is any object with ``time`` and ``cancelled`` attributes
(the kernel's ``ScheduledCall``, the fleet clock's ``ClockHandle``).

The determinism contract: entries dispatch in ``(time, seq)`` order, and
``seq`` is a counter the queue assigns at push time, so events with equal
timestamps run in push order. Cancellation is lazy — a cancelled entry
stays in the heap and is skipped when it reaches the top — which keeps
``cancel`` O(1). :meth:`Simulator.run <repro.sim.kernel.Simulator.run>`
inlines :meth:`pop_due` in its dispatch loop; the two must stay in step.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop

Entry = Tuple[float, int, Any]


class HeapEventQueue:
    """Binary-heap event queue with FIFO ties and lazy cancellation."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0

    def push(self, time: float, obj: Any) -> None:
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, obj))

    def pop_due(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Pop the earliest live entry with ``time <= limit`` (or any, when
        ``limit`` is None). Cancelled entries are discarded in passing."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if limit is not None and entry[0] > limit:
                return None
            _heappop(heap)
            if entry[2].cancelled:
                continue
            return entry
        return None

    def iter_pending(self) -> Iterator[Entry]:
        """Yield live entries in arbitrary order (callers sort)."""
        for entry in self._heap:
            if not entry[2].cancelled:
                yield entry
