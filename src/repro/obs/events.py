"""Streaming structured event log for the fleet flight recorder.

Spans (:mod:`repro.sim.tracing`) answer *where simulated time went*; the
event log answers *what the control plane decided and when*. It is the
durable, incremental artifact of a fleet run:

* **append-only JSONL** — one self-describing JSON object per line, so a
  consumer can tail the file of an in-flight run and fold events as they
  land (the live dashboard does exactly this);
* **seq-numbered** — every record carries a contiguous ``seq`` starting
  at 0, so a reader can detect gaps and prove completeness;
* **crash-tolerant** — writes are line-atomic (one ``write`` of the full
  line, then ``flush``), so a run killed mid-write leaves at most one
  torn final line, which :func:`read_event_log` tolerantly drops;
* **schema-validated** — :func:`validate_fleet_events` is the CI gate,
  mirroring ``validate_chrome_trace`` / ``validate_fleet_snapshot``.

Timestamps are **virtual** milliseconds read from the fleet clock —
recording an event never advances or perturbs the run, so a recorded and
an unrecorded run are bit-identical (test-proven).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Schema identifier stamped on every record.
EVENTS_SCHEMA = "repro-fleet-events-v1"

#: Known event kinds and the payload fields each one must carry.
#: (Validation is closed over *required* fields, open over extras.)
EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    "run.start": ("seed", "sessions", "horizon_ms", "workers"),
    "run.end": ("stats", "recovery", "active", "window", "level"),
    "session.offer": ("session", "app", "priority", "load"),
    "session.shed": ("session", "reason"),
    "session.place": ("session", "worker", "predicted"),
    "session.admit": ("session", "worker"),
    "session.confirm": ("session", "wait_ms"),
    "session.migrate": ("session", "source", "target", "reason", "bytes"),
    "session.complete": ("session", "worker", "app", "priority", "frames",
                         "fps", "latency_ms", "load"),
    "session.lost": ("session", "worker", "app", "priority", "frames",
                     "fps", "latency_ms", "load"),
    "worker.fault": ("worker", "fault"),
    "worker.dead": ("worker", "silence_ms"),
    "worker.fence": ("worker",),
    "worker.drain": ("worker", "evacuated", "lost", "duration_ms",
                     "timed_out"),
    "worker.restart": ("worker", "attempts"),
    "worker.retire": ("worker", "attempts"),
    "control.tick": ("live", "window", "level"),
}


class EventLog:
    """Append-only, seq-numbered sink for fleet lifecycle events.

    Records accumulate in :attr:`records` (always, for in-process replay)
    and — when ``path`` is given — stream to a JSONL file one line-atomic
    write at a time, so an external consumer can watch a run mid-flight
    and a crash can tear at most the final line.
    """

    def __init__(self, clock=None, path: Optional[str] = None):
        self._clock = clock
        self.path = path
        self.records: List[Dict[str, Any]] = []
        self._next_seq = 0
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event at the clock's current virtual time."""
        record: Dict[str, Any] = {
            "schema": EVENTS_SCHEMA,
            "seq": self._next_seq,
            "t_ms": float(self._clock.now) if self._clock is not None else 0.0,
            "kind": kind,
        }
        record.update(fields)
        self._next_seq += 1
        self.records.append(record)
        if self._fh is not None:
            # Line-atomic: one write of the complete line, then flush, so
            # a kill mid-run tears at most the line in flight.
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        return record

    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == kind]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_event_log(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event log, dropping a torn (crash-truncated) last line.

    A malformed line anywhere *except* the end is an error — it means the
    file was corrupted, not merely truncated mid-write.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1:
                break  # torn final line from a mid-write crash
            raise
    return records


def validate_fleet_events(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema-check an event stream; returns the list of problems.

    Checks per record: schema stamp, contiguous ``seq`` from 0,
    non-negative monotonic ``t_ms``, a string ``kind``, and — for known
    kinds — the presence of that kind's required payload fields. A
    non-empty stream must open with ``run.start``.
    """
    problems: List[str] = []
    expected_seq = 0
    last_t = 0.0
    first = True
    for record in records:
        where = f"events[{expected_seq}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: record must be an object")
            expected_seq += 1
            continue
        if record.get("schema") != EVENTS_SCHEMA:
            problems.append(
                f"{where}: schema {record.get('schema')!r} != {EVENTS_SCHEMA!r}"
            )
        seq = record.get("seq")
        if seq != expected_seq:
            problems.append(f"{where}: seq {seq!r} breaks the contiguous "
                            f"numbering (expected {expected_seq})")
        t_ms = record.get("t_ms")
        if not isinstance(t_ms, (int, float)) or t_ms < 0:
            problems.append(f"{where}: missing non-negative 't_ms'")
        elif t_ms < last_t:
            problems.append(f"{where}: t_ms {t_ms} moves backwards "
                            f"(previous {last_t})")
        else:
            last_t = float(t_ms)
        kind = record.get("kind")
        if not isinstance(kind, str) or not kind:
            problems.append(f"{where}: missing string 'kind'")
        else:
            if first and kind != "run.start":
                problems.append(
                    f"{where}: stream must open with 'run.start', got {kind!r}"
                )
            required = EVENT_KINDS.get(kind)
            if required is not None:
                for field in required:
                    if field not in record:
                        problems.append(f"{where}: {kind} missing {field!r}")
        first = False
        expected_seq += 1
    return problems
