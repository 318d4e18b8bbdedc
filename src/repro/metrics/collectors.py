"""Collectors pipelines feed during a run.

* :class:`FpsCollector` — the ``dumpsys``-style frame counter (§5.3):
  counts presented frames and the reasons frames never made it.
* :class:`LatencyCollector` — motion-to-photon samples: presentation time
  minus the frame's birth (capture / arrival) time.
* :class:`SvmStats` — post-hoc digestion of a :class:`TraceLog` into the
  Table 2 metrics (access latency, coherence cost, throughput);
  :func:`maintenances` is the coherence-maintenance view they share.
* :class:`ResilienceStats` — fault/retry/degradation accounting from the
  ``fault.*``, ``retry.backoff`` and ``coherence.degrade/restore`` records
  a chaos run leaves behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.stats import mean, percentile
from repro.sim.tracing import TraceEvent, TraceLog
from repro.units import SECOND

#: Span kinds of coherence copies. A copy that landed ends with a
#: ``duration`` (its maintenance cost) and a ``path``; one that failed
#: ends with ``failed`` or ``path="failed"`` instead.
COPY_KINDS = ("coherence.copy", "prefetch.copy")


def maintenances(trace: TraceLog) -> List[TraceEvent]:
    """Every coherence maintenance that landed, in completion order."""
    return [e for e in trace if e.kind in COPY_KINDS and "duration" in e.fields]


class FpsCollector:
    """Frame accounting for one app run.

    With a :class:`~repro.obs.registry.MetricsRegistry` attached, every
    presentation/drop is mirrored into named ``frames.*`` instruments —
    the ad-hoc dict counters stay authoritative so behaviour (and FPS
    numbers) are identical with and without observability.
    """

    def __init__(self, registry=None) -> None:
        self.presented = 0
        self.present_times: List[float] = []
        self.dropped: Dict[str, int] = {}
        self._registry = registry

    def attach_registry(self, registry) -> None:
        """Mirror future frame accounting into ``registry``."""
        self._registry = registry

    def note_presented(self, now: float) -> None:
        self.presented += 1
        self.present_times.append(now)
        if self._registry is not None:
            self._registry.counter("frames.presented").inc()

    def note_dropped(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        if self._registry is not None:
            self._registry.counter("frames.dropped", reason=reason).inc()

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def fps(self, duration_ms: float, warmup_ms: float = 0.0) -> float:
        """Average presented frames per second over the run.

        ``warmup_ms`` excludes startup (cold caches, cold hypergraphs) the
        same way a measurement would skip the first seconds of dumpsys.
        """
        window = duration_ms - warmup_ms
        if window <= 0:
            return 0.0
        counted = sum(1 for t in self.present_times if t >= warmup_ms)
        return counted / (window / SECOND)

    def fps_timeline(self, duration_ms: float, bucket_ms: float = SECOND) -> List[float]:
        """Per-bucket FPS — used for the thermal-collapse timeline (§5.3)."""
        buckets = int(duration_ms // bucket_ms)
        counts = [0] * max(buckets, 1)
        for t in self.present_times:
            index = int(t // bucket_ms)
            if index < len(counts):
                counts[index] += 1
        return [c / (bucket_ms / SECOND) for c in counts]


class LatencyCollector:
    """Motion-to-photon latency samples."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def note(self, latency_ms: float) -> None:
        self.samples.append(latency_ms)

    @property
    def average(self) -> Optional[float]:
        return mean(self.samples) if self.samples else None

    def p95(self) -> Optional[float]:
        return percentile(self.samples, 95) if self.samples else None


class SvmStats:
    """Table 2 metrics distilled from a trace log."""

    def __init__(self, trace: TraceLog, duration_ms: float):
        self.trace = trace
        self.duration_ms = duration_ms

    def access_latencies(self) -> List[float]:
        return [float(v) for v in self.trace.values("svm.begin_access", "latency")]

    def coherence_durations(self) -> List[float]:
        return [float(e.fields["duration"]) for e in maintenances(self.trace)]

    def slack_intervals(self) -> List[float]:
        return [float(v) for v in self.trace.values("svm.slack", "slack")]

    def average_access_latency(self) -> Optional[float]:
        values = self.access_latencies()
        return mean(values) if values else None

    def average_coherence_cost(self) -> Optional[float]:
        values = self.coherence_durations()
        return mean(values) if values else None

    def throughput_bytes_per_ms(self) -> float:
        """Total SVM bytes accessed / duration (§5.2's definition, minus
        data wasted by prefetch failures — wasted copies are traced as
        maintenances, not accesses, so they are excluded by construction)."""
        total = sum(int(v) for v in self.trace.values("svm.begin_access", "bytes"))
        if self.duration_ms <= 0:
            return 0.0
        return total / self.duration_ms


class ResilienceStats:
    """Fault, retry, and degradation accounting distilled from a trace."""

    def __init__(self, trace: TraceLog):
        self.trace = trace

    # -- injected faults -----------------------------------------------------
    def fault_counts(self) -> Dict[str, int]:
        """Histogram of every ``fault.*`` record kind in the trace."""
        return {
            kind: count
            for kind, count in self.trace.kind_counts().items()
            if kind.startswith("fault.")
        }

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_counts().values())

    # -- recovery machinery --------------------------------------------------
    @property
    def retries(self) -> int:
        return self.trace.count("retry.backoff")

    @property
    def prefetch_failures(self) -> int:
        return sum(1 for e in self.trace.of_kind("prefetch.copy") if "failed" in e.fields)

    @property
    def crashes(self) -> int:
        """Virtual-device crashes the recovery coordinator handled."""
        return self.trace.count("recovery.crash")

    @property
    def recoveries(self) -> int:
        """Crashed devices successfully re-admitted (``recovery.readmit``)."""
        return self.trace.count("recovery.readmit")

    @property
    def replayed_copies(self) -> int:
        return self.trace.count("recovery.replay_copy")

    @property
    def audit_violations(self) -> int:
        return self.trace.count("audit.violation")

    @property
    def degrades(self) -> int:
        return self.trace.count("coherence.degrade")

    @property
    def restores(self) -> int:
        return self.trace.count("coherence.restore")

    def degrade_events(self) -> List[tuple]:
        """(time, level) for each escalation, in time order."""
        return [(r.end, r["level"]) for r in self.trace.of_kind("coherence.degrade")]

    def restore_events(self) -> List[tuple]:
        """(time, level) for each restoration, in time order."""
        return [(r.end, r["level"]) for r in self.trace.of_kind("coherence.restore")]

    def time_in_degraded_mode(self, end_ms: float) -> float:
        """Total ms the coherence ladder sat above level 0.

        Walks the interleaved degrade/restore records; a run still degraded
        at ``end_ms`` accrues until then.
        """
        events = sorted(self.degrade_events() + self.restore_events())
        total = 0.0
        entered: Optional[float] = None
        for time, level in events:
            if level > 0 and entered is None:
                entered = time
            elif level == 0 and entered is not None:
                total += time - entered
                entered = None
        if entered is not None:
            total += max(0.0, end_ms - entered)
        return total

    def summary(self) -> Dict[str, object]:
        return {
            "faults_injected": self.faults_injected,
            "fault_counts": self.fault_counts(),
            "retries": self.retries,
            "prefetch_failures": self.prefetch_failures,
            "degrades": self.degrades,
            "restores": self.restores,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "replayed_copies": self.replayed_copies,
            "audit_violations": self.audit_violations,
        }

    def to_registry(self, registry) -> None:
        """Publish the resilience accounting as named instruments."""
        for kind, count in sorted(self.fault_counts().items()):
            registry.counter("resilience.faults", kind=kind).inc(count)
        registry.counter("resilience.retries").inc(self.retries)
        registry.counter("resilience.prefetch_failures").inc(self.prefetch_failures)
        registry.counter("resilience.degrades").inc(self.degrades)
        registry.counter("resilience.restores").inc(self.restores)
        registry.counter("resilience.crashes").inc(self.crashes)
        registry.counter("resilience.recoveries").inc(self.recoveries)
        registry.counter("resilience.replayed_copies").inc(self.replayed_copies)
        registry.counter("audit.violations_total").inc(self.audit_violations)
