"""Fleet telemetry: picklable per-run snapshots and deterministic rollups.

PR 2 gave a single run its registry, tracer and self-profiler; PR 3 fanned
experiment grids across a process pool. This module is where those two
layers meet:

* :class:`TelemetrySnapshot` — a frozen, picklable digest of one run's
  observability state (counter totals, gauge values + timelines, histogram
  moments + reservoirs, the self-profile tables, and a bounded trace
  digest). Engine workers capture one per run and ship it back inside
  their ``RunResult``, so the snapshot rides the run cache and a
  warm-cache rerun replays telemetry bit-for-bit without simulating.
* :class:`FleetAggregator` — merges N snapshots into per-(emulator × app)
  and fleet-level rollups. Every merge is commutative (counter sums,
  exact histogram count/sum/min/max, sorted-then-decimated sample unions)
  and the aggregator sorts its inputs before folding, so the aggregate is
  independent of worker scheduling: a ``--jobs 4`` sweep and the serial
  sweep of the same grid produce byte-identical aggregate JSON.
* :func:`validate_fleet_snapshot` — the schema check CI runs on the
  exported aggregate, mirroring ``validate_chrome_trace``.

Everything here is pure data manipulation: no simulator, no wall clock,
no randomness.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.registry import (
    Counter,
    DEFAULT_RESERVOIR,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Schema identifier stamped into every aggregate export.
FLEET_SCHEMA = "repro-fleet-telemetry-v1"

#: Cap on distinct span names retained in one run's trace digest.
TRACE_DIGEST_CAP = 64

#: Cap on per-group metas retained when snapshots are *streamed* — the
#: fleet service pushes one snapshot per session, and a 10k-session run
#: must not hold 10k meta dicts just to render a dashboard.
STREAM_META_CAP = 16


def snapshot_is_partial(snap: "TelemetrySnapshot") -> bool:
    """True when a snapshot marks itself a truncated/mid-stream reading.

    A worker that dies mid-session leaves its last telemetry reading
    incomplete; the fleet service streams it anyway with
    ``meta["partial"] = "true"`` so the aggregate can flag — rather than
    silently absorb or crash on — contributions that never saw their
    session finish.
    """
    return snap.meta_dict.get("partial") == "true"

LabelKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Snapshot leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterSample:
    """One counter's final value at capture time."""

    name: str
    labels: LabelKey
    value: float


@dataclass(frozen=True)
class GaugeSample:
    """One gauge's final value plus its retained (time, value) timeline."""

    name: str
    labels: LabelKey
    value: Optional[float]
    timeline: Tuple[Tuple[float, float], ...] = ()


@dataclass(frozen=True)
class HistogramSample:
    """One histogram's exact moments plus its retained reservoir."""

    name: str
    labels: LabelKey
    count: int
    sum: float
    min: Optional[float]
    max: Optional[float]
    samples: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ProfileDigest:
    """The self-profiler's attribution tables, frozen for pickling."""

    events_dispatched: int
    timeouts_attributed: int
    subsystem_ms: Tuple[Tuple[str, float], ...] = ()
    device_ms: Tuple[Tuple[str, float], ...] = ()
    resumes: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SpanNameStat:
    """Per-span-name aggregate inside a trace digest."""

    name: str
    count: int
    total_ms: float
    max_ms: float


@dataclass(frozen=True)
class TraceDigest:
    """A bounded summary of one run's tracer state.

    Full span lists do not cross the process boundary — only per-name
    aggregates (top :data:`TRACE_DIGEST_CAP` by simulated time, then
    name-sorted) plus the overall counts, so the digest's size is bounded
    no matter how long the run was.
    """

    spans: int
    instants: int
    flows: int
    names: Tuple[SpanNameStat, ...] = ()
    dropped_names: int = 0


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Everything one observed run reports to the fleet.

    ``meta`` is a sorted tuple of string pairs (emulator, app, seed,
    duration, fps, ...) — the identity the aggregator groups on. All
    fields are plain immutable data, so snapshots pickle across the
    engine's process pool and hash/compare structurally.
    """

    meta: LabelKey = ()
    counters: Tuple[CounterSample, ...] = ()
    gauges: Tuple[GaugeSample, ...] = ()
    histograms: Tuple[HistogramSample, ...] = ()
    profile: Optional[ProfileDigest] = None
    trace: Optional[TraceDigest] = None
    #: Optional per-frame latency attribution (a frozen
    #: :class:`~repro.obs.critical.LatencyBudget`).  Rides the run cache
    #: like every other field, so a warm-cache rerun explains its frames
    #: without re-simulating.
    attribution: Optional[Any] = None

    # -- capture -----------------------------------------------------------
    @classmethod
    def capture(
        cls,
        registry: MetricsRegistry,
        profiler=None,
        tracer=None,
        meta: Optional[Mapping[str, Any]] = None,
        attribution: Optional[Any] = None,
    ) -> "TelemetrySnapshot":
        """Freeze the current observability state into a snapshot."""
        counters: List[CounterSample] = []
        gauges: List[GaugeSample] = []
        histograms: List[HistogramSample] = []
        for inst in registry.instruments():
            labels = _labels_key(inst.labels)
            if isinstance(inst, Counter):
                counters.append(CounterSample(inst.name, labels, float(inst.value)))
            elif isinstance(inst, Gauge):
                gauges.append(GaugeSample(
                    inst.name, labels,
                    None if inst.value is None else float(inst.value),
                    tuple((float(t), float(v)) for t, v in inst.timeline()),
                ))
            elif isinstance(inst, Histogram):
                histograms.append(HistogramSample(
                    inst.name, labels, inst.count, float(inst.sum),
                    inst.min, inst.max,
                    tuple(float(v) for v in inst.samples()),
                ))
        profile = None
        if profiler is not None:
            profile = ProfileDigest(
                events_dispatched=profiler.events_dispatched,
                timeouts_attributed=profiler.timeouts_attributed,
                subsystem_ms=tuple(sorted(profiler.subsystem_ms.items())),
                device_ms=tuple(sorted(profiler.device_ms.items())),
                resumes=tuple(sorted(profiler.resumes.items())),
            )
        digest = None
        if tracer is not None:
            digest = _digest_tracer(tracer)
        return cls(
            meta=_labels_key(meta or {}),
            counters=tuple(counters),
            gauges=tuple(gauges),
            histograms=tuple(histograms),
            profile=profile,
            trace=digest,
            attribution=attribution,
        )

    # -- identity ----------------------------------------------------------
    @property
    def meta_dict(self) -> Dict[str, str]:
        return dict(self.meta)

    @property
    def group_key(self) -> str:
        """``<emulator>/<app>`` — the rollup bucket this run belongs to."""
        meta = self.meta_dict
        return f"{meta.get('emulator', '?')}/{meta.get('app', '?')}"

    # -- export ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form of this snapshot."""
        out: Dict[str, Any] = {
            "meta": self.meta_dict,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value,
                 "timeline": [[t, v] for t, v in g.timeline]}
                for g in self.gauges
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), "count": h.count,
                 "sum": h.sum, "min": h.min, "max": h.max,
                 "samples": list(h.samples)}
                for h in self.histograms
            ],
        }
        if self.profile is not None:
            out["profile"] = {
                "events_dispatched": self.profile.events_dispatched,
                "timeouts_attributed": self.profile.timeouts_attributed,
                "subsystem_ms": dict(self.profile.subsystem_ms),
                "device_ms": dict(self.profile.device_ms),
                "resumes": dict(self.profile.resumes),
            }
        if self.trace is not None:
            out["trace"] = {
                "spans": self.trace.spans,
                "instants": self.trace.instants,
                "flows": self.trace.flows,
                "dropped_names": self.trace.dropped_names,
                "names": [
                    {"name": n.name, "count": n.count,
                     "total_ms": n.total_ms, "max_ms": n.max_ms}
                    for n in self.trace.names
                ],
            }
        attribution = getattr(self, "attribution", None)
        if attribution is not None:
            out["attribution"] = attribution.to_dict()
        return out


def _digest_tracer(tracer) -> TraceDigest:
    per_name: Dict[str, List[float]] = {}
    spans = tracer.spans()
    instants = tracer.instants()
    for span in spans:
        duration = span.duration if span.duration is not None else 0.0
        stat = per_name.setdefault(span.kind, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] = max(stat[2], duration)
    for span in instants:
        stat = per_name.setdefault(span.kind, [0, 0.0, 0.0])
        stat[0] += 1
    kept = sorted(per_name.items(), key=lambda kv: (-kv[1][1], kv[0]))
    dropped = max(0, len(kept) - TRACE_DIGEST_CAP)
    kept = sorted(kept[:TRACE_DIGEST_CAP])
    return TraceDigest(
        spans=len(spans),
        instants=len(instants),
        flows=len(tracer.flows()),
        names=tuple(
            SpanNameStat(name, count, total, peak)
            for name, (count, total, peak) in kept
        ),
        dropped_names=dropped,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _merge_samples(samples: List[float], capacity: int) -> List[float]:
    """Order-independent bounded union: sort, then evenly decimate."""
    samples = sorted(samples)
    n = len(samples)
    if n <= capacity:
        return samples
    return [samples[(i * n) // capacity] for i in range(capacity)]


class _Rollup:
    """Accumulator for one bucket (a group or the whole fleet)."""

    def __init__(self, reservoir: int):
        self.reservoir = reservoir
        self.runs = 0
        self.partial = 0
        self.counters: Dict[Tuple[str, LabelKey], float] = {}
        # (count, sum of values, min, max) over per-run final gauge values.
        self.gauges: Dict[Tuple[str, LabelKey], List[Any]] = {}
        self.gauge_timelines: Dict[Tuple[str, LabelKey], List[Tuple[float, float]]] = {}
        # (count, sum, min, max, samples)
        self.histograms: Dict[Tuple[str, LabelKey], List[Any]] = {}
        self.profile = [0, 0]  # events_dispatched, timeouts_attributed
        self.subsystem_ms: Dict[str, float] = {}
        self.device_ms: Dict[str, float] = {}
        self.resumes: Dict[str, int] = {}
        self.trace = [0, 0, 0, 0]  # spans, instants, flows, dropped_names
        self.trace_names: Dict[str, List[float]] = {}

    def clone(self) -> "_Rollup":
        """Deep copy, so a live (streamed) rollup can be re-aggregated."""
        return copy.deepcopy(self)

    def add(self, snap: TelemetrySnapshot) -> None:
        self.runs += 1
        if snapshot_is_partial(snap):
            self.partial += 1
        for c in snap.counters:
            key = (c.name, c.labels)
            self.counters[key] = self.counters.get(key, 0.0) + c.value
        for g in snap.gauges:
            key = (g.name, g.labels)
            if g.value is not None:
                agg = self.gauges.setdefault(key, [0, 0.0, g.value, g.value])
                agg[0] += 1
                agg[1] += g.value
                agg[2] = min(agg[2], g.value)
                agg[3] = max(agg[3], g.value)
            if g.timeline:
                self.gauge_timelines.setdefault(key, []).extend(g.timeline)
        for h in snap.histograms:
            key = (h.name, h.labels)
            agg = self.histograms.setdefault(key, [0, 0.0, h.min, h.max, []])
            agg[0] += h.count
            agg[1] += h.sum
            if h.min is not None:
                agg[2] = h.min if agg[2] is None else min(agg[2], h.min)
            if h.max is not None:
                agg[3] = h.max if agg[3] is None else max(agg[3], h.max)
            agg[4].extend(h.samples)
        if snap.profile is not None:
            self.profile[0] += snap.profile.events_dispatched
            self.profile[1] += snap.profile.timeouts_attributed
            for name, ms in snap.profile.subsystem_ms:
                self.subsystem_ms[name] = self.subsystem_ms.get(name, 0.0) + ms
            for name, ms in snap.profile.device_ms:
                self.device_ms[name] = self.device_ms.get(name, 0.0) + ms
            for name, n in snap.profile.resumes:
                self.resumes[name] = self.resumes.get(name, 0) + n
        if snap.trace is not None:
            self.trace[0] += snap.trace.spans
            self.trace[1] += snap.trace.instants
            self.trace[2] += snap.trace.flows
            self.trace[3] += snap.trace.dropped_names
            for stat in snap.trace.names:
                agg = self.trace_names.setdefault(stat.name, [0, 0.0, 0.0])
                agg[0] += stat.count
                agg[1] += stat.total_ms
                agg[2] = max(agg[2], stat.max_ms)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "runs": self.runs,
            "partial_runs": self.partial,
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self.counters.items())
            ],
            "gauges": [
                {
                    "name": name, "labels": dict(labels),
                    "count": agg[0],
                    "mean": agg[1] / agg[0] if agg[0] else None,
                    "min": agg[2], "max": agg[3],
                    "timeline": sorted(self.gauge_timelines.get((name, labels), [])),
                }
                for (name, labels), agg in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    "name": name, "labels": dict(labels),
                    "count": agg[0], "sum": agg[1],
                    "min": agg[2], "max": agg[3],
                    "mean": agg[1] / agg[0] if agg[0] else None,
                    "samples": _merge_samples(agg[4], self.reservoir),
                }
                for (name, labels), agg in sorted(self.histograms.items())
            ],
            "profile": {
                "events_dispatched": self.profile[0],
                "timeouts_attributed": self.profile[1],
                "subsystem_ms": {k: self.subsystem_ms[k]
                                 for k in sorted(self.subsystem_ms)},
                "device_ms": {k: self.device_ms[k] for k in sorted(self.device_ms)},
                "resumes": {k: self.resumes[k] for k in sorted(self.resumes)},
            },
            "trace": {
                "spans": self.trace[0],
                "instants": self.trace[1],
                "flows": self.trace[2],
                "dropped_names": self.trace[3],
                "names": [
                    {"name": name, "count": agg[0],
                     "total_ms": agg[1], "max_ms": agg[2]}
                    for name, agg in sorted(self.trace_names.items())
                ],
            },
        }
        return out


@dataclass
class FleetAggregator:
    """Deterministic merge of N run snapshots into fleet rollups.

    ``add`` collects; :meth:`aggregate` sorts all collected snapshots by
    (group key, meta) and folds them, so the output never depends on the
    order snapshots arrived — worker completion order, cache-hit order and
    serial order all aggregate identically.

    :meth:`stream` is the bounded-memory incremental path the live fleet
    service uses: each snapshot folds into persistent rollups the moment a
    session reports, instead of being retained for a merge-at-end. The
    streamed result is deterministic for a fixed arrival order (which the
    virtual-clock service guarantees); the byte-for-byte
    *order-independence* guarantee applies to the ``add`` path, whose
    sorted fold is preserved unchanged. Both paths compose: ``aggregate``
    folds any collected snapshots on top of a clone of the streamed state.
    """

    reservoir: int = DEFAULT_RESERVOIR
    _snapshots: List[TelemetrySnapshot] = field(default_factory=list)
    _live_fleet: Optional[_Rollup] = None
    _live_groups: Dict[str, _Rollup] = field(default_factory=dict)
    _live_meta: Dict[str, List[Dict[str, str]]] = field(default_factory=dict)
    _live_meta_dropped: Dict[str, int] = field(default_factory=dict)
    _streamed: int = 0

    def add(self, snapshot: Optional[TelemetrySnapshot]) -> None:
        """Collect one snapshot (None — an unobserved run — is skipped)."""
        if snapshot is not None:
            self._snapshots.append(snapshot)

    def add_all(self, snapshots) -> None:
        for snapshot in snapshots:
            self.add(snapshot)

    def stream(self, snapshot: Optional[TelemetrySnapshot]) -> None:
        """Fold one snapshot into the live rollups immediately.

        Memory stays bounded by the number of distinct instruments and
        groups, not the number of sessions: only the first
        :data:`STREAM_META_CAP` metas per group are retained (the rest are
        counted in ``meta_dropped``).
        """
        if snapshot is None:
            return
        if self._live_fleet is None:
            self._live_fleet = _Rollup(self.reservoir)
        self._streamed += 1
        self._live_fleet.add(snapshot)
        key = snapshot.group_key
        self._live_groups.setdefault(key, _Rollup(self.reservoir)).add(snapshot)
        metas = self._live_meta.setdefault(key, [])
        if len(metas) < STREAM_META_CAP:
            metas.append(snapshot.meta_dict)
        else:
            self._live_meta_dropped[key] = self._live_meta_dropped.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self._snapshots) + self._streamed

    # -- rollup ------------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """The fleet aggregate: per-group and fleet-level rollups + matrices."""
        ordered = sorted(self._snapshots, key=lambda s: (s.group_key, s.meta))
        if self._live_fleet is not None:
            fleet = self._live_fleet.clone()
            groups = {key: roll.clone() for key, roll in self._live_groups.items()}
            group_meta = {key: list(metas) for key, metas in self._live_meta.items()}
        else:
            fleet = _Rollup(self.reservoir)
            groups = {}
            group_meta = {}
        for snap in ordered:
            fleet.add(snap)
            groups.setdefault(snap.group_key, _Rollup(self.reservoir)).add(snap)
            group_meta.setdefault(snap.group_key, []).append(snap.meta_dict)
        out: Dict[str, Any] = {
            "schema": FLEET_SCHEMA,
            "runs": self._streamed + len(ordered),
            "partial_runs": fleet.partial,
            "groups": {},
            "fleet": fleet.to_dict(),
        }
        for key in sorted(groups):
            entry = groups[key].to_dict()
            entry["meta"] = sorted(group_meta[key], key=lambda m: sorted(m.items()))
            dropped = self._live_meta_dropped.get(key, 0)
            if dropped:
                entry["meta_dropped"] = dropped
            out["groups"][key] = entry
        out["matrices"] = {
            "bus.utilization": self._matrix(groups, "bus.utilization", "link"),
            "prefetch.mispredict_rate": self._matrix(
                groups, "prefetch.mispredict_rate", None
            ),
        }
        return out

    def aggregate_json(self) -> str:
        """Canonical JSON of :meth:`aggregate` (the byte-identity surface)."""
        return json.dumps(self.aggregate(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _matrix(
        groups: Dict[str, _Rollup], gauge: str, col_label: Optional[str]
    ) -> Dict[str, Any]:
        """(group × label-value) matrix of mean gauge readings."""
        rows = sorted(groups)
        cols: List[str] = []
        cells: Dict[Tuple[str, str], float] = {}
        for row in rows:
            for (name, labels), agg in groups[row].gauges.items():
                if name != gauge or not agg[0]:
                    continue
                col = dict(labels).get(col_label, "value") if col_label else "value"
                if col not in cols:
                    cols.append(col)
                cells[(row, col)] = agg[1] / agg[0]
        cols = sorted(cols)
        return {
            "rows": rows,
            "cols": cols,
            "values": [[cells.get((row, col)) for col in cols] for row in rows],
        }


def aggregate_results(results, reservoir: int = DEFAULT_RESERVOIR) -> Dict[str, Any]:
    """Convenience: fleet aggregate straight from engine ``RunResult`` s."""
    agg = FleetAggregator(reservoir=reservoir)
    for result in results:
        agg.add(getattr(result, "telemetry", None))
    return agg.aggregate()


# ---------------------------------------------------------------------------
# Schema validation (the CI gate, mirroring validate_chrome_trace)
# ---------------------------------------------------------------------------

def validate_fleet_snapshot(data: Any) -> List[str]:
    """Schema-check a fleet aggregate dict; returns the list of problems."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    if data.get("schema") != FLEET_SCHEMA:
        problems.append(f"schema: expected {FLEET_SCHEMA!r}, got {data.get('schema')!r}")
    runs = data.get("runs")
    if not isinstance(runs, int) or runs < 0:
        problems.append("runs: missing non-negative integer")
    groups = data.get("groups")
    if not isinstance(groups, dict):
        problems.append("groups: missing object")
        groups = {}
    buckets = [("fleet", data.get("fleet"))]
    buckets += [(f"groups.{key}", value) for key, value in sorted(groups.items())]
    for where, bucket in buckets:
        if not isinstance(bucket, dict):
            problems.append(f"{where}: missing rollup object")
            continue
        problems.extend(_validate_rollup(where, bucket))
    matrices = data.get("matrices")
    if matrices is not None:
        if not isinstance(matrices, dict):
            problems.append("matrices: must be an object")
        else:
            for name, matrix in sorted(matrices.items()):
                problems.extend(_validate_matrix(f"matrices.{name}", matrix))
    return problems


def _validate_rollup(where: str, bucket: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    for kind, required in (
        ("counters", ("name", "labels", "value")),
        ("gauges", ("name", "labels", "count")),
        ("histograms", ("name", "labels", "count", "sum", "samples")),
    ):
        entries = bucket.get(kind)
        if not isinstance(entries, list):
            problems.append(f"{where}.{kind}: missing list")
            continue
        for index, entry in enumerate(entries):
            spot = f"{where}.{kind}[{index}]"
            if not isinstance(entry, dict):
                problems.append(f"{spot}: must be an object")
                continue
            for key in required:
                if key not in entry:
                    problems.append(f"{spot}: missing {key!r}")
            if kind == "histograms":
                count = entry.get("count")
                samples = entry.get("samples")
                if isinstance(count, int) and isinstance(samples, list):
                    if len(samples) > max(count, 0):
                        problems.append(
                            f"{spot}: {len(samples)} samples exceed count {count}"
                        )
    profile = bucket.get("profile")
    if profile is not None and not isinstance(profile, dict):
        problems.append(f"{where}.profile: must be an object")
    return problems


def _validate_matrix(where: str, matrix: Any) -> List[str]:
    problems: List[str] = []
    if not isinstance(matrix, dict):
        return [f"{where}: must be an object"]
    rows = matrix.get("rows")
    cols = matrix.get("cols")
    values = matrix.get("values")
    if not isinstance(rows, list) or not isinstance(cols, list):
        problems.append(f"{where}: missing rows/cols lists")
        return problems
    if not isinstance(values, list) or len(values) != len(rows):
        problems.append(f"{where}: values must have one row per rows entry")
        return problems
    for index, row in enumerate(values):
        if not isinstance(row, list) or len(row) != len(cols):
            problems.append(f"{where}.values[{index}]: must have one cell per col")
    return problems
