"""The event ring: every instrumentation event of one run, recorded once.

The §2.3 measurement study and §5.2 microbenchmarks are built on
instrumentation of the shared-memory interface and the emulators' SVM
implementations. :class:`TraceLog` is our equivalent, and the only store
of it: components write :class:`TraceEvent` entries and the experiment
layer (Table 2, the CDFs), the Chrome exporter and the latency
attribution all read views over the same ring.

An event carries ``kind, start, end, track, flow, cat, fields``:

* a **span** is an interval on a *track* (one virtual device, executor
  thread or host subsystem), opened by :meth:`TraceLog.begin` and closed
  by :meth:`TraceLog.end`; the end fields carry what the happening
  measured (an access's latency, a copy's duration);
* an **instant** (:meth:`TraceLog.instant`) has ``end == start``;
  :meth:`TraceLog.record` writes an instant at an explicit time on the
  shared :data:`RECORD_TRACK`, for happenings that belong to no track;
* a **flow** id (:meth:`TraceLog.new_flow`) is the cross-device causal
  thread: one camera frame gets one flow at birth and every span it
  touches is stamped with it, so the export shows one connected arrow
  chain per frame.

The ring holds events in *completion* order: a span enters it when it
ends, an instant when it is written. That is the order the §2.3/§5.2
readers see through :meth:`TraceLog.of_kind`/:meth:`TraceLog.values`,
backed by a per-kind index that keeps them O(events of that kind).
Spans still open live in an in-flight table until they end; the span
views (:meth:`TraceLog.spans`, :meth:`TraceLog.by_flow`) include them,
and exporters clamp them to the export time.

Recording never yields, sleeps or draws randomness — it only reads the
clock — so it cannot perturb a run. ``TraceLog(max_spans=N)`` keeps the
newest N completed events as a ring buffer and counts every eviction in
:attr:`TraceLog.dropped_spans`; latency attribution refuses a ring that
dropped anything.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

#: Flow id meaning "not part of any flow" (falsy on purpose).
NO_FLOW = 0

#: Track of the events :meth:`TraceLog.record` writes.
RECORD_TRACK = "trace"


class TraceEvent:
    """One instrumentation event: a span, or an instant (``end == start``).

    A ``__slots__`` class without an ``__init__``: events are allocated on
    the hottest instrumentation path, and the ring's writers set the slots
    directly.

    Attributes
    ----------
    kind:
        Event class, e.g. ``"svm.begin_access"``, ``"coherence.copy"``,
        ``"frame.presented"``, ``"svm.alloc"``.
    start, end:
        Simulated times (ms); ``end`` is None while a span is open.
    track, cat, flow:
        Timeline the event sits on, its category, its causal flow.
    fields:
        Free-form payload (sizes, devices, durations, region IDs, ...).
    span_id:
        Allocation order of spans and instants (0 for records); ties in
        start time break on it.
    instant:
        True for point events, False for spans (even zero-length ones).
    """

    __slots__ = ("kind", "cat", "track", "start", "end", "flow", "fields",
                 "span_id", "instant")

    @property
    def duration(self) -> Optional[float]:
        """Span length in ms, or None while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.kind!r}, track={self.track!r}, "
                f"start={self.start!r}, end={self.end!r}, flow={self.flow}, "
                f"fields={self.fields!r})")


_new_event = TraceEvent.__new__


class TraceLog:
    """The run's event ring with indexed views.

    ``clock`` is anything with a ``now`` attribute (the simulator, the
    fleet's virtual clock); :meth:`begin`, :meth:`end` and :meth:`instant`
    read it, :meth:`record` takes its time explicitly.
    """

    #: Always true: the ring records on every run. Kept readable because
    #: ``perfbench/layers.py`` reads ``enabled`` on every ``begin`` and
    #: ``instant`` to count spans.
    enabled = True

    def __init__(self, clock: Any = None, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock
        self.max_spans = max_spans
        self._ring: Deque[TraceEvent] = deque()
        self._by_kind: Dict[str, Deque[TraceEvent]] = {}
        self._open: Dict[int, TraceEvent] = {}
        self.dropped_spans = 0
        self._next_span = 1
        self._next_flow = 1

    # -- writing -------------------------------------------------------------
    def new_flow(self) -> int:
        """Allocate a fresh flow id (one per causal thread, e.g. per frame)."""
        flow = self._next_flow
        self._next_flow = flow + 1
        return flow

    def begin(self, kind: str, track: str, cat: str = "span",
              flow: int = NO_FLOW, **fields: Any) -> TraceEvent:
        """Open a span at ``clock.now``; close it with :meth:`end`."""
        event = _new_event(TraceEvent)
        event.kind = kind
        event.cat = cat
        event.track = track
        event.start = self.clock.now
        event.end = None
        event.flow = flow
        event.fields = fields
        event.span_id = span_id = self._next_span
        event.instant = False
        self._next_span = span_id + 1
        self._open[span_id] = event
        return event

    def end(self, event: TraceEvent, **fields: Any) -> None:
        """Close a span at ``clock.now``; ``fields`` join its payload."""
        event.end = self.clock.now
        if fields:
            event.fields.update(fields)
        del self._open[event.span_id]
        self._append(event)

    def instant(self, kind: str, track: str, cat: str = "instant",
                flow: int = NO_FLOW, **fields: Any) -> None:
        """Write a point event at ``clock.now`` (fence signals, frames, ...)."""
        event = _new_event(TraceEvent)
        event.kind = kind
        event.cat = cat
        event.track = track
        event.start = event.end = self.clock.now
        event.flow = flow
        event.fields = fields
        event.span_id = span_id = self._next_span
        event.instant = True
        self._next_span = span_id + 1
        self._append(event)

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Write a point event at ``time`` on :data:`RECORD_TRACK`."""
        event = _new_event(TraceEvent)
        event.kind = kind
        event.cat = "record"
        event.track = RECORD_TRACK
        event.start = event.end = time
        event.flow = NO_FLOW
        event.fields = fields
        event.span_id = 0
        event.instant = True
        self._append(event)

    def _append(self, event: TraceEvent) -> None:
        self._ring.append(event)
        try:
            self._by_kind[event.kind].append(event)
        except KeyError:
            self._by_kind[event.kind] = deque((event,))
        if self.max_spans is not None and len(self._ring) > self.max_spans:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        oldest = self._ring.popleft()
        # Events enter both structures in the same order, so the evicted
        # event is necessarily at the head of its kind's bucket.
        bucket = self._by_kind[oldest.kind]
        bucket.popleft()
        if not bucket:
            del self._by_kind[oldest.kind]
        self.dropped_spans += 1

    # -- record views (completed events, completion order) -------------------
    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Every retained event of one kind, in completion order. O(k)."""
        return list(self._by_kind.get(kind, ()))

    def values(self, kind: str, field_name: str) -> List[Any]:
        """One payload field of every event of ``kind``. O(k)."""
        return [e.fields[field_name] for e in self._by_kind.get(kind, ())]

    def count(self, kind: str) -> int:
        """Number of retained events of one kind. O(1)."""
        return len(self._by_kind.get(kind, ()))

    def kind_counts(self) -> Dict[str, int]:
        """Histogram of retained event kinds."""
        return {kind: len(bucket) for kind, bucket in self._by_kind.items()}

    # -- span views (open spans included) -------------------------------------
    def spans(self) -> List[TraceEvent]:
        """Every retained span, completed ones first, then the open ones."""
        found = [e for e in self._ring if not e.instant]
        found.extend(self._open.values())
        return found

    def instants(self) -> List[TraceEvent]:
        """Every retained point event, records included."""
        return [e for e in self._ring if e.instant]

    def by_flow(self) -> Dict[int, List[TraceEvent]]:
        """Flow id → its spans and instants ordered by ``(start, span_id)``,
        for every flow, ascending — one pass over the ring."""
        groups: Dict[int, List[TraceEvent]] = {}
        for source in (self._ring, self._open.values()):
            for event in source:
                flow = event.flow
                if flow != NO_FLOW:
                    try:
                        groups[flow].append(event)
                    except KeyError:
                        groups[flow] = [event]
        for chain in groups.values():
            chain.sort(key=lambda e: (e.start, e.span_id))
        return {flow: groups[flow] for flow in sorted(groups)}

    def flows(self) -> List[int]:
        """Flow ids that stamped at least one event, ascending."""
        seen = {e.flow for e in self._ring}
        seen.update(e.flow for e in self._open.values())
        seen.discard(NO_FLOW)
        return sorted(seen)

    def spans_of_flow(self, flow: int) -> List[TraceEvent]:
        """One flow of :meth:`by_flow`; use that to walk every flow."""
        return self.by_flow().get(flow, [])
