"""SVM usage traces: record, serialize, replay.

A :class:`WorkloadTrace` is the sequence of shared-memory events an app
produced: allocations, frees, and device accesses with their timestamps
and dirty sizes. Traces come from a live run (:func:`record_workload`) or
from JSON (:meth:`WorkloadTrace.load`), and replay open-loop against any
emulator (:func:`replay_workload`): each write/read is re-issued at its
recorded time, whatever the target emulator's coherence costs.

Open-loop replay answers a question the closed-loop app benchmarks cannot:
*with the access pattern held exactly constant*, how much time does each
memory architecture spend on coherence? (In closed loop, a slow emulator
slows the app down, which reduces its access rate, which hides cost.)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.emulators.base import Emulator
from repro.errors import ConfigurationError
from repro.metrics.collectors import SvmStats, maintenances
from repro.sim import Simulator, Timeout
from repro.sim.tracing import TraceLog

#: Default device op used when replaying a write/read on each vdev.
_REPLAY_OPS = {
    "codec": ("decode", "read_back"),
    "gpu": ("render", "render"),
    "display": ("compose", "compose"),
    "camera": ("deliver", "deliver"),
    "isp": ("convert", "convert"),
    "modem": ("recv", "recv"),
    "cpu": ("memcpy", "memcpy"),
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded shared-memory event."""

    time: float
    kind: str  # "alloc" | "free" | "write" | "read"
    region: int
    vdev: str = ""
    nbytes: int = 0

    def validate(self) -> None:
        if self.kind not in ("alloc", "free", "write", "read"):
            raise ConfigurationError(f"unknown trace event kind {self.kind!r}")
        if self.time < 0:
            raise ConfigurationError("event time must be >= 0")
        if self.kind in ("alloc", "write", "read") and self.nbytes <= 0:
            raise ConfigurationError(f"{self.kind} event needs nbytes > 0")


@dataclass
class WorkloadTrace:
    """An ordered sequence of :class:`TraceEvent`."""

    name: str
    events: List[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            event.validate()
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ConfigurationError("trace events must be time-ordered")

    @property
    def duration_ms(self) -> float:
        return self.events[-1].time if self.events else 0.0

    @property
    def regions(self) -> int:
        return sum(1 for e in self.events if e.kind == "alloc")

    # -- serialization ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(
                {"name": self.name, "events": [asdict(e) for e in self.events]},
                stream,
            )

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path) as stream:
            data = json.load(stream)
        return cls(
            name=data["name"],
            events=[TraceEvent(**event) for event in data["events"]],
        )


def record_workload(trace_log: TraceLog, name: str = "recorded") -> WorkloadTrace:
    """Distill an emulator's instrumentation log into a replayable trace.

    Uses the ``svm.alloc`` / ``svm.free`` records plus write retirements
    and read accesses — the same events the paper's instrumentation of the
    shared-memory interface captured.
    """
    events: List[TraceEvent] = []
    sizes: Dict[int, int] = {}
    for record in trace_log:
        if record.kind == "svm.alloc":
            sizes[record["region"]] = int(record["size"])
            events.append(TraceEvent(record.end, "alloc", record["region"],
                                     nbytes=int(record["size"])))
        elif record.kind == "svm.free":
            events.append(TraceEvent(record.end, "free", record["region"]))
        elif record.kind == "svm.write_retired":
            events.append(TraceEvent(record.end, "write", record["region"],
                                     vdev=record.track, nbytes=int(record["bytes"])))
        elif record.kind == "svm.begin_access" and record["usage"] == "ro":
            events.append(TraceEvent(record.end, "read", record["region"],
                                     vdev=record.track, nbytes=int(record["bytes"])))
    events.sort(key=lambda e: e.time)
    return WorkloadTrace(name=name, events=events)


@dataclass
class ReplayResult:
    """What the target emulator did under the replayed access pattern."""

    trace_name: str
    emulator: str
    events_replayed: int
    total_coherence_ms: float
    mean_coherence_ms: Optional[float]
    mean_access_latency_ms: Optional[float]
    bytes_copied: int


def _replay_driver(sim: Simulator, emulator: Emulator,
                   trace: WorkloadTrace) -> Generator[Any, Any, int]:
    handles: Dict[int, int] = {}
    replayed = 0
    for event in trace.events:
        if event.time > sim.now:
            yield Timeout(event.time - sim.now)
        if event.kind == "alloc":
            handles[event.region] = emulator.svm_alloc(event.nbytes)
        elif event.kind == "free":
            handle = handles.pop(event.region, None)
            if handle is not None:
                emulator.svm_free(handle)
        elif event.kind in ("write", "read"):
            handle = handles.get(event.region)
            if handle is None:
                continue  # accesses before the alloc record: skip
            vdev = event.vdev if emulator.has_vdev(event.vdev) else "cpu"
            write_op, read_op = _REPLAY_OPS.get(vdev, ("memcpy", "memcpy"))
            op = write_op if event.kind == "write" else read_op
            if not emulator.physical_for(vdev).supports(op):
                op = emulator.decode_op() if vdev == "codec" else "memcpy"
                if not emulator.physical_for(vdev).supports(op):
                    vdev, op = "cpu", "memcpy"
            if event.kind == "write":
                result = yield from emulator.stage(
                    vdev, op, event.nbytes, writes=[handle]
                )
            else:
                result = yield from emulator.stage(
                    vdev, op, event.nbytes, reads=[handle]
                )
            yield result.done
        replayed += 1
    return replayed


def replay_workload(
    trace: WorkloadTrace,
    emulator_name: str,
    machine_spec=None,
    seed: int = 0,
) -> ReplayResult:
    """Replay a trace against one emulator; returns its coherence bill."""
    import random

    from repro.emulators import EMULATOR_FACTORIES
    from repro.hw.machine import HIGH_END_DESKTOP, build_machine

    spec = machine_spec if machine_spec is not None else HIGH_END_DESKTOP
    sim = Simulator()
    machine = build_machine(sim, spec)
    log = TraceLog(sim)
    emulator = EMULATOR_FACTORIES[emulator_name](
        sim, machine, trace=log, rng=random.Random(seed)
    )
    driver = sim.spawn(_replay_driver(sim, emulator, trace), name="replay")
    sim.run(until=trace.duration_ms + 1_000.0)

    stats = SvmStats(log, trace.duration_ms or 1.0)
    coherence = stats.coherence_durations()
    copied = sum(int(r["bytes"]) for r in maintenances(log))
    return ReplayResult(
        trace_name=trace.name,
        emulator=emulator_name,
        events_replayed=driver.value if driver.value is not None else 0,
        total_coherence_ms=sum(coherence),
        mean_coherence_ms=stats.average_coherence_cost(),
        mean_access_latency_ms=stats.average_access_latency(),
        bytes_copied=copied,
    )
