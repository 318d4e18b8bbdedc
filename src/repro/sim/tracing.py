"""Structured trace records.

The §2.3 measurement study and §5.2 microbenchmarks are built on
instrumentation of the shared-memory interface and the emulators' SVM
implementations. :class:`TraceLog` is our equivalent: components append
:class:`TraceRecord` entries (an event kind plus free-form fields) and the
experiment layer filters and aggregates them into the paper's CDFs and
tables.

The log keeps a per-kind index alongside the time-ordered record list, so
the hot analysis paths (:meth:`TraceLog.of_kind`, :meth:`TraceLog.values`,
:meth:`TraceLog.count`) are O(records of that kind) instead of O(all
records), and :meth:`TraceLog.kind_counts` is an O(kinds) dict copy kept
incrementally rather than a re-walk.

For long chaos/density runs a bounded-memory mode caps retention:
``TraceLog(max_records=N)`` keeps the newest N records as a ring buffer
and counts evictions in :attr:`TraceLog.dropped_records`. Queries then see
a trailing window; :attr:`TraceLog.recorded_total` still counts every
record ever accepted.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


class TraceRecord:
    """One instrumentation event.

    A ``__slots__`` value class rather than a (frozen) dataclass: records
    are allocated on the hottest instrumentation path, and the frozen
    dataclass's ``object.__setattr__``-based init measurably dominated
    :meth:`TraceLog.record`. Value semantics (equality, repr) are kept.

    Attributes
    ----------
    time:
        Simulated timestamp (ms) at which the event was recorded.
    kind:
        Event class, e.g. ``"svm.begin_access"``, ``"coherence.copy"``,
        ``"frame.presented"``, ``"prefetch.start"``.
    fields:
        Free-form payload (sizes, devices, durations, region IDs, ...).
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecord(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


_new_record = TraceRecord.__new__


class TraceLog:
    """Append-only event log with indexed filtering helpers.

    Recording can be disabled wholesale (``enabled=False``) or narrowed to a
    set of kinds, so long benchmark runs don't pay for instrumentation they
    do not read. ``max_records`` bounds memory: the oldest records are
    evicted ring-buffer style and tallied in :attr:`dropped_records`.
    """

    def __init__(
        self,
        enabled: bool = True,
        kinds: Optional[List[str]] = None,
        max_records: Optional[int] = None,
    ):
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.enabled = enabled
        self._kinds = set(kinds) if kinds is not None else None
        self.max_records = max_records
        self._records: Deque[TraceRecord] = deque()
        self._by_kind: Dict[str, Deque[TraceRecord]] = {}
        self._counts: Dict[str, int] = {}
        self.dropped_records = 0
        self.recorded_total = 0

    def wants(self, kind: str) -> bool:
        """Whether :meth:`record` would retain a record of ``kind``.

        Hot call sites check this before assembling an expensive payload —
        when recording is disabled or the kind is filtered out, the caller
        skips even the keyword-argument packing.
        """
        if not self.enabled:
            return False
        kinds = self._kinds
        return kinds is None or kind in kinds

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append one record (allocation-light no-op when disabled or
        kind-filtered out — nothing beyond the call's own kwargs dict is
        built before the filter check)."""
        if not self.enabled:
            return
        kinds = self._kinds
        if kinds is not None and kind not in kinds:
            return
        # Allocate without the Python-level __init__ frame: this is the
        # single hottest allocation site in a simulation run.
        record = _new_record(TraceRecord)
        record.time = time
        record.kind = kind
        record.fields = fields
        self._records.append(record)
        # One dict probe in the common (kind already seen) case; the
        # _by_kind/_counts invariant guarantees both hit or both miss.
        try:
            self._by_kind[kind].append(record)
            self._counts[kind] += 1
        except KeyError:
            bucket = self._by_kind[kind] = deque()
            bucket.append(record)
            self._counts[kind] = 1
        self.recorded_total += 1
        if self.max_records is not None and len(self._records) > self.max_records:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        oldest = self._records.popleft()
        # Records enter both structures in the same order, so the evicted
        # record is necessarily at the head of its kind's bucket.
        bucket = self._by_kind[oldest.kind]
        bucket.popleft()
        remaining = self._counts[oldest.kind] - 1
        if remaining:
            self._counts[oldest.kind] = remaining
        else:
            del self._counts[oldest.kind]
            del self._by_kind[oldest.kind]
        self.dropped_records += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All retained records of one kind, in time order. O(k)."""
        return list(self._by_kind.get(kind, ()))

    def where(self, predicate: Callable[[TraceRecord], bool]) -> List[TraceRecord]:
        """All records matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def values(self, kind: str, field_name: str) -> List[Any]:
        """Extract one payload field from every record of ``kind``. O(k)."""
        return [r.fields[field_name] for r in self._by_kind.get(kind, ())]

    def count(self, kind: str) -> int:
        """Number of retained records of one kind. O(1)."""
        return self._counts.get(kind, 0)

    def kind_counts(self) -> Dict[str, int]:
        """Histogram of record kinds — the summary chaos reports print."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop every record (keeps enablement and capacity settings)."""
        self._records.clear()
        self._by_kind.clear()
        self._counts.clear()
        self.dropped_records = 0
        self.recorded_total = 0
