"""Per-layer host-time tracing, installed from the benchmark's own files.

The traced run wraps the public entry points of every layer of
``src/repro`` (the table in :data:`BOUNDARIES`) and records one span per
call, or per *resume* for generator entry points: the simulator drives
processes by ``send``/``throw``, so a generator's host time is spent in
many short slices, each of which becomes its own span. Process bodies the
kernel spawns (app loops, guest services, emulator executors) are timed
per resume too, and charged to the layer whose module defines them.

Spans live in memory as parallel arrays (name, start, end, parent, point)
and are written out once, after the traced pass. Self time is a span's
duration minus the durations of its direct children. Every span belongs
to exactly one bucket, so the buckets' self times plus the time outside
any span (``unattributed``) add up to the traced wall time exactly, in
integer nanoseconds; :meth:`SpanLog.fold` checks that and the nesting.

Nothing here changes what the program computes: wrappers pass arguments
and results through untouched, and the benchmark compares the traced
pass's result digest with an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: bucket -> entry points, as ``"module:Class.method"`` or ``"module:function"``.
#: A class entry also wraps every subclass that overrides the method.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.kernel:Simulator.run",
        "repro.sim.kernel:Simulator.schedule",
        "repro.sim.kernel:Simulator.spawn",
    ),
    "sim.trace": ("repro.sim.tracing:TraceLog.record",),
    "emulators": (
        "repro.emulators.base:Emulator.stage",
        "repro.emulators.base:Emulator.compute",
    ),
    "core.svm": (
        "repro.core.manager:SvmManager.begin_access",
        "repro.core.manager:SvmManager.end_access",
        "repro.core.manager:SvmManager.host_write_retired",
        "repro.core.manager:SvmManager.host_before_read",
        "repro.core.manager:SvmManager.alloc",
        "repro.core.manager:SvmManager.free",
    ),
    "core.coherence": (
        "repro.core.coherence:CoherenceProtocol.begin_access_read",
        "repro.core.coherence:CoherenceProtocol.executor_after_write",
        "repro.core.coherence:CoherenceProtocol.executor_before_read",
        "repro.core.coherence:CoherenceProtocol.write_compensation",
        "repro.core.coherence:CopyPlanner.copy_unified",
        "repro.core.coherence:CopyPlanner.copy_via_boundary",
        "repro.core.coherence:CopyPlanner.copy_boundary_roundtrip",
        "repro.core.coherence:CopyPlanner.copy_unified_resilient",
        "repro.core.coherence:CopyPlanner.copy_via_boundary_resilient",
        "repro.core.coherence:CopyPlanner.copy_roundtrip_resilient",
    ),
    "core.prefetch": (
        "repro.core.prefetch:PrefetchEngine.launch",
        "repro.core.prefetch:PrefetchEngine.on_read",
    ),
    "core.twin": (
        "repro.core.twin:TwinHypergraphs.register_region",
        "repro.core.twin:TwinHypergraphs.drop_region",
        "repro.core.twin:TwinHypergraphs.on_write",
        "repro.core.twin:TwinHypergraphs.on_read",
        "repro.core.twin:TwinHypergraphs.note_prefetch_duration",
        "repro.core.twin:TwinHypergraphs.predict_prefetch_time",
        "repro.core.twin:TwinHypergraphs.predict_slack",
        "repro.core.twin:TwinHypergraphs.predict_readers",
    ),
    "guest": (
        "repro.guest.services:SurfaceFlinger.submit",
        "repro.guest.transport:VirtioTransport.kick",
        "repro.guest.transport:VirtioTransport.kick_reliable",
        "repro.guest.hal:SharedMemoryHal.alloc",
        "repro.guest.hal:SharedMemoryHal.free",
        "repro.guest.hal:SharedMemoryHal.begin_access",
        "repro.guest.hal:SharedMemoryHal.end_access",
        "repro.guest.hal:SharedMemoryHal.write_cycle",
        "repro.guest.hal:SharedMemoryHal.read_cycle",
    ),
    "hw": (
        "repro.hw.bus:Bus.transfer",
        "repro.hw.bus:DmaEngine.start",
        "repro.hw.device:PhysicalDevice.run_op",
    ),
    "apps": (
        "repro.apps.base:App.install",
        "repro.apps.base:App.collect",
    ),
    "metrics": (
        "repro.metrics.collectors:SvmStats.access_latencies",
        "repro.metrics.collectors:SvmStats.coherence_durations",
        "repro.metrics.collectors:SvmStats.slack_intervals",
        "repro.metrics.collectors:SvmStats.average_access_latency",
        "repro.metrics.collectors:SvmStats.average_coherence_cost",
        "repro.metrics.collectors:SvmStats.throughput_bytes_per_ms",
        "repro.metrics.collectors:FpsCollector.note_presented",
        "repro.metrics.collectors:FpsCollector.note_dropped",
        "repro.metrics.collectors:FpsCollector.fps",
        "repro.metrics.collectors:LatencyCollector.note",
        "repro.metrics.collectors:ResilienceStats.to_registry",
    ),
    "obs.tracer": (
        "repro.obs.span:Tracer.new_flow",
        "repro.obs.span:Tracer.begin",
        "repro.obs.span:Tracer.end",
        "repro.obs.span:Tracer.span",
        "repro.obs.span:Tracer.instant",
        "repro.obs.span:Tracer.spans_of_flow",
        "repro.obs.span:Tracer.flows",
    ),
    "obs.registry": (
        "repro.obs.registry:MetricsRegistry.counter",
        "repro.obs.registry:MetricsRegistry.gauge",
        "repro.obs.registry:MetricsRegistry.histogram",
        "repro.obs.registry:MetricsRegistry.to_dict",
        "repro.obs.registry:Counter.inc",
        "repro.obs.registry:Gauge.set",
        "repro.obs.registry:Histogram.observe",
    ),
    "obs.profiler": (
        "repro.obs.profile:SelfProfiler.on_event_dispatch",
        "repro.obs.profile:SelfProfiler.on_process_resume",
        "repro.obs.profile:SelfProfiler.on_process_yield",
        "repro.obs.profile:SelfProfiler.table",
    ),
    "obs.capture": ("repro.obs.fleet:TelemetrySnapshot.capture",),
    "obs.analyze": (
        "repro.obs.critical:analyze_tracer",
        "repro.obs.critical:budget_from_snapshot",
    ),
    "obs.report": (
        "repro.experiments.explain:attribution_report",
        "repro.experiments.explain:diff_report",
        "repro.obs.diff:diff_budgets",
        "repro.obs.slo:evaluate_frames",
    ),
    "obs.aggregate": (
        "repro.obs.fleet:FleetAggregator.add",
        "repro.obs.fleet:FleetAggregator.stream",
        "repro.obs.fleet:FleetAggregator.aggregate",
    ),
    "engine": (
        "repro.experiments.engine:run_many",
        "repro.experiments.engine:execute_spec",
        "repro.experiments.engine:source_fingerprint",
        "repro.experiments.engine:cache_key",
        "repro.experiments.engine:RunCache.load",
        "repro.experiments.engine:RunCache.store",
    ),
    "fleet.advance": ("repro.fleet.worker:SessionSim.advance",),
    "fleet.offer": ("repro.fleet.service:FleetService.offer",),
    "fleet.worker": (
        "repro.fleet.worker:SimWorker.free_capacity",
        "repro.fleet.worker:SimWorker.load_factor",
        "repro.fleet.worker:SimWorker.service_factor",
        "repro.fleet.worker:SimWorker.start_session",
        "repro.fleet.worker:SimWorker.adopt",
        "repro.fleet.worker:SimWorker.release",
        "repro.fleet.worker:SimWorker.crash",
        "repro.fleet.worker:SimWorker.hang",
        "repro.fleet.worker:SimWorker.slow_beats",
        "repro.fleet.worker:SimWorker.revive",
        "repro.fleet.worker:SimWorker.retire",
    ),
    "fleet.supervisor": ("repro.fleet.supervisor:WorkerSupervisor.check",),
    "fleet.migrate": ("repro.fleet.migration:migrate_session",),
    "fleet.clock": ("repro.fleet.clock:VirtualClock.schedule",),
    "fleet.serve": (
        "repro.fleet.service:FleetService.serve",
        "repro.fleet.service:FleetService.report",
    ),
    "fleet.generate": (
        "repro.fleet.arrivals:generate_trace",
        "repro.fleet.arrivals:crash_storm_plan",
    ),
}

#: Entry points whose calls are counted without a span of their own (their
#: time stays with the caller): cheap bookkeeping worth a count.
COUNTED: Tuple[str, ...] = ("repro.core.fence:VirtualFenceTable.allocate",)

#: Process bodies spawned on the simulator are charged to the bucket of the
#: module that defines them (longest matching path under ``repro/``).
PROCESS_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("core/coherence.py", "core.coherence"),
    ("core/prefetch.py", "core.prefetch"),
    ("core/twin.py", "core.twin"),
    ("core/", "core.svm"),
    ("apps/", "apps"),
    ("guest/", "guest"),
    ("emulators/", "emulators"),
    ("hw/", "hw"),
    ("metrics/", "metrics"),
    ("sim/", "sim"),
)


def _tally_bytes(args, kwargs) -> float:
    return kwargs.get("nbytes", args[1] if len(args) > 1 else 0)


def _tally_enabled(args, kwargs) -> float:
    return 1.0 if args[0].enabled else 0.0


def _tally_dropped(args, kwargs) -> float:
    tracer = kwargs.get("tracer")
    return float(getattr(tracer, "dropped_spans", 0) or 0)


#: entry point -> (sum name, f(args, kwargs) -> amount), summed per call.
TALLIES: Dict[str, Tuple[str, Callable[..., float]]] = {
    "repro.hw.bus:Bus.transfer": ("hw.bus.bytes", _tally_bytes),
    "repro.obs.span:Tracer.begin": ("obs.spans", _tally_enabled),
    "repro.obs.span:Tracer.instant": ("obs.spans", _tally_enabled),
    "repro.obs.fleet:TelemetrySnapshot.capture": ("obs.dropped_spans", _tally_dropped),
}

#: The entry point whose every call starts a new point (one app run).
POINT_ENTRY = "repro.experiments.engine:execute_spec"


class SpanLog:
    """Spans kept in memory as parallel arrays; one row per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.point = array("i")
        self.stack: List[int] = []
        self.point_id = 0
        self.calls: Dict[str, int] = {}
        self.sums: Dict[str, float] = {}
        #: Every PrefetchEngine's stats object seen, by id (read at the end).
        self.prefetch_stats: Dict[int, Any] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> int:
        """Start a span of name ``nid`` under the innermost open span."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.point.append(self.point_id)
        self.end.append(-1)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    # -- output ----------------------------------------------------------
    def write(self, path: Path) -> None:
        """One JSON header line, then the five columns as raw arrays."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [["name", "i"], ["start", "q"], ["end", "q"],
                        ["parent", "i"], ["point", "i"]],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.point):
                column.tofile(fh)

    # -- folding ---------------------------------------------------------
    def fold(self, wall_start: int, wall_end: int) -> Dict[str, Any]:
        """Self time per bucket, checked nesting, and the wall identity.

        Returns ``{"self_ns": {bucket: ns}, "total_ns": {entry: ns},
        "unattributed_ns": ns, "wall_ns": ns}`` and raises
        ``AssertionError`` on a malformed trace.
        """
        names, start, end, parent = self.name, self.start, self.end, self.parent
        n = len(start)
        if self.stack:
            raise AssertionError(f"{len(self.stack)} span(s) still open")
        child_ns = [0] * n
        top_ns = 0
        for i in range(n):
            a, b, p = start[i], end[i], parent[i]
            if b < a:
                raise AssertionError(f"span {i} ({self.names[names[i]]}) never closed")
            if p < 0:
                if a < wall_start or b > wall_end:
                    raise AssertionError(f"top-level span {i} outside the traced window")
                top_ns += b - a
            else:
                if a < start[p] or b > end[p]:
                    raise AssertionError(f"span {i} is not nested in its parent {p}")
                child_ns[p] += b - a
        total: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        for i in range(n):
            entry = self.names[names[i]]
            duration = end[i] - start[i]
            own = duration - child_ns[i]
            if own < 0:
                raise AssertionError(f"span {i} ({entry}): children exceed it")
            bucket = entry.split("|", 1)[0]
            self_ns[bucket] = self_ns.get(bucket, 0) + own
            total[entry] = total.get(entry, 0) + duration
        wall = wall_end - wall_start
        unattributed = wall - top_ns
        if unattributed < 0:
            raise AssertionError("top-level spans overlap")
        if sum(self_ns.values()) + unattributed != wall:
            raise AssertionError("layer self times + unattributed != traced wall time")
        return {
            "self_ns": self_ns,
            "total_ns": total,
            "unattributed_ns": unattributed,
            "wall_ns": wall,
        }


def read_spans(path: Path) -> Dict[str, Any]:
    """Load a file written by :meth:`SpanLog.write` back into arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = {}
        for name, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns[name] = column
    return {"names": header["names"], **columns}


class _TimedGen:
    """Generator proxy: every ``send``/``throw`` resume is one span.

    ``close`` is not timed: the interpreter closes abandoned generators
    whenever the garbage collector runs, which may be outside any pass.
    """

    __slots__ = ("_gen", "_nid", "_log")

    def __init__(self, gen, nid: int, log: SpanLog):
        self._gen = gen
        self._nid = nid
        self._log = log

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        idx = self._log.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._log.close(idx)

    def throw(self, *args):
        idx = self._log.open(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            self._log.close(idx)

    def close(self):
        return self._gen.close()


def _span_wrapper(orig: Callable, nid: int, log: SpanLog,
                  entry: str, tally=None, new_point: bool = False) -> Callable:
    calls = log.calls
    calls.setdefault(entry, 0)

    def note_call(args, kwargs):
        calls[entry] += 1
        if new_point:
            log.point_id += 1
        if tally is not None:
            key, fn = tally
            log.sums[key] = log.sums.get(key, 0.0) + fn(args, kwargs)

    if inspect.isgeneratorfunction(orig):
        @functools.wraps(orig)
        def make_gen(*args, **kwargs):
            note_call(args, kwargs)
            return _TimedGen(orig(*args, **kwargs), nid, log)
        return make_gen

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        note_call(args, kwargs)
        idx = log.open(nid)
        try:
            return orig(*args, **kwargs)
        finally:
            log.close(idx)
    return wrapper


def _count_wrapper(orig: Callable, log: SpanLog, entry: str) -> Callable:
    calls = log.calls
    calls.setdefault(entry, 0)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        calls[entry] += 1
        return orig(*args, **kwargs)
    return wrapper


def _subclasses(cls: type) -> List[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Instrumentation:
    """Installs the wrappers; :meth:`remove` puts every original back."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: List[Tuple[Any, str, Any]] = []
        self._repro_dir = str(Path(importlib.import_module("repro").__file__).parent)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_entry(self, entry: str, make: Callable[[Callable, str], Callable]) -> None:
        module_name, _, qualname = entry.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            base = getattr(module, class_name)
            for cls in _subclasses(base):
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                label = entry if cls is base else f"{entry}<{cls.__name__}"
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(make(raw.__func__, label)))
                elif isinstance(raw, property):
                    self._set(cls, method, property(make(raw.fget, label)))
                else:
                    self._set(cls, method, make(raw, label))
            return
        orig = getattr(module, qualname)
        wrapped = make(orig, entry)
        # Rebind every module-level alias (``from x import f``) too.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")
                                   or name == "workloads"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        log = self.log
        for bucket, entries in BOUNDARIES.items():
            for entry in entries:
                def make(orig, label, bucket=bucket, entry=entry):
                    return _span_wrapper(
                        orig, log.name_id(f"{bucket}|{label}"), log, label,
                        tally=TALLIES.get(entry), new_point=(entry == POINT_ENTRY),
                    )
                self._wrap_entry(entry, make)
        for entry in COUNTED:
            self._wrap_entry(entry, lambda orig, label: _count_wrapper(orig, log, label))
        self._install_kernel_hooks()

    def _process_bucket(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._repro_dir):
            return None
        rel = filename[len(self._repro_dir) + 1:].replace("\\", "/")
        for prefix, bucket in PROCESS_BUCKETS:
            if rel.startswith(prefix):
                return bucket
        return None

    def _install_kernel_hooks(self) -> None:
        """Per-resume spans for spawned processes, and an event counter."""
        from repro.core.prefetch import PrefetchEngine
        from repro.sim.kernel import SimHook, Simulator

        log = self.log
        counter_name = "sim.events"
        log.calls[counter_name] = 0

        class _EventCounter(SimHook):
            def on_event_dispatch(self, time, call):
                log.calls[counter_name] += 1

        counter = _EventCounter()
        spawn = Simulator.spawn
        process_ids: Dict[str, int] = {}

        def spawn_timed(sim, gen, name="process"):
            if type(gen) is types.GeneratorType:
                bucket = self._process_bucket(gen.gi_code.co_filename)
                if bucket is not None:
                    if bucket not in process_ids:
                        process_ids[bucket] = log.name_id(f"{bucket}|process")
                    gen = _TimedGen(gen, process_ids[bucket], log)
            if counter not in sim._hooks:
                sim.add_hook(counter)
            return spawn(sim, gen, name)

        self._set(Simulator, "spawn", functools.wraps(spawn)(spawn_timed))

        # Prefetch accuracy is read from each engine's own stats at the end.
        launch = PrefetchEngine.launch
        engines = log.prefetch_stats

        def launch_seen(engine, *args, **kwargs):
            engines.setdefault(id(engine.stats), engine.stats)
            return launch(engine, *args, **kwargs)

        self._set(PrefetchEngine, "launch", functools.wraps(launch)(launch_seen))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(log: SpanLog, folded: Dict[str, Any],
                  extra: Dict[str, Tuple[float, str]]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one folded trace."""
    ms = 1e-6
    self_ns = folded["self_ns"]
    total_ns = folded["total_ns"]
    calls = log.calls

    def own(bucket: str) -> float:
        return self_ns.get(bucket, 0) * ms

    def entry_total(entry: str) -> float:
        return sum(v for k, v in total_ns.items()
                   if k.split("|", 1)[1].split("<", 1)[0] == entry) * ms

    def call_count(*entries: str) -> float:
        return float(sum(v for k, v in calls.items() if k.split("<", 1)[0] in entries))

    events = float(calls.get("sim.events", 0))
    stats = list(log.prefetch_stats.values())
    predictions = sum(s.predictions for s in stats)
    hits = sum(s.hits for s in stats)
    run_many_ms = entry_total("repro.experiments.engine:run_many")
    execute_ms = entry_total("repro.experiments.engine:execute_spec")
    out: Dict[str, Tuple[float, str]] = {
        "sim.events": (events, "count"),
        "sim.self_ms": (own("sim"), "ms"),
        "sim.ns_per_event": (own("sim") / ms / events if events else 0.0, "ns"),
        "sim.trace.records": (call_count("repro.sim.tracing:TraceLog.record"), "count"),
        "sim.trace.self_ms": (own("sim.trace"), "ms"),
        "emulators.stages": (call_count("repro.emulators.base:Emulator.stage"), "count"),
        "emulators.self_ms": (own("emulators"), "ms"),
        "core.svm.accesses": (call_count("repro.core.manager:SvmManager.begin_access"), "count"),
        "core.svm.self_ms": (own("core.svm"), "ms"),
        "core.coherence.copies": (call_count(
            "repro.core.coherence:CopyPlanner.copy_unified",
            "repro.core.coherence:CopyPlanner.copy_via_boundary",
            "repro.core.coherence:CopyPlanner.copy_boundary_roundtrip"), "count"),
        "core.coherence.self_ms": (own("core.coherence"), "ms"),
        "core.prefetch.launches": (call_count("repro.core.prefetch:PrefetchEngine.launch"), "count"),
        "core.prefetch.accuracy": (hits / predictions if predictions else 0.0, "ratio"),
        "core.prefetch.self_ms": (own("core.prefetch"), "ms"),
        "core.twin.self_ms": (own("core.twin"), "ms"),
        "core.fence.allocs": (call_count("repro.core.fence:VirtualFenceTable.allocate"), "count"),
        "guest.kicks": (call_count("repro.guest.transport:VirtioTransport.kick"), "count"),
        "guest.self_ms": (own("guest"), "ms"),
        "hw.bus.transfers": (call_count("repro.hw.bus:Bus.transfer"), "count"),
        "hw.bus.mib": (log.sums.get("hw.bus.bytes", 0.0) / 2**20, "MiB"),
        "hw.device.ops": (call_count("repro.hw.device:PhysicalDevice.run_op"), "count"),
        "hw.self_ms": (own("hw"), "ms"),
        "apps.self_ms": (own("apps"), "ms"),
        "metrics.self_ms": (own("metrics"), "ms"),
        "obs.spans": (log.sums.get("obs.spans", 0.0), "count"),
        "obs.dropped_spans": (log.sums.get("obs.dropped_spans", 0.0), "count"),
        "obs.tracer.self_ms": (own("obs.tracer"), "ms"),
        "obs.registry.self_ms": (own("obs.registry"), "ms"),
        "obs.profiler.self_ms": (own("obs.profiler"), "ms"),
        "obs.capture_ms": (own("obs.capture"), "ms"),
        "obs.analyze_ms": (own("obs.analyze"), "ms"),
        "obs.report_ms": (own("obs.report"), "ms"),
        "obs.aggregate_ms": (own("obs.aggregate"), "ms"),
        "engine.execute_ms": (execute_ms, "ms"),
        "engine.overhead_ms": (run_many_ms - execute_ms if run_many_ms else 0.0, "ms"),
        "engine.store_ms": (entry_total("repro.experiments.engine:RunCache.store"), "ms"),
        "engine.self_ms": (own("engine"), "ms"),
        "fleet.advances": (call_count("repro.fleet.worker:SessionSim.advance"), "count"),
        "fleet.advance_self_ms": (own("fleet.advance"), "ms"),
        "fleet.offer_self_ms": (own("fleet.offer"), "ms"),
        "fleet.worker_self_ms": (own("fleet.worker"), "ms"),
        "fleet.supervisor_self_ms": (own("fleet.supervisor"), "ms"),
        "fleet.migrations": (call_count("repro.fleet.migration:migrate_session"), "count"),
        "fleet.migrate_self_ms": (own("fleet.migrate"), "ms"),
        "fleet.clock.timers": (call_count("repro.fleet.clock:VirtualClock.schedule"), "count"),
        "fleet.clock.self_ms": (own("fleet.clock"), "ms"),
        "fleet.serve_self_ms": (own("fleet.serve"), "ms"),
        "fleet.generate_ms": (own("fleet.generate"), "ms"),
        "unattributed_ms": (folded["unattributed_ns"] * ms, "ms"),
    }
    out.update(extra)
    return out
