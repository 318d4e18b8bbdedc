"""``observe``: run one app with full observability and export artifacts.

This is the front door of :mod:`repro.obs` — one command that runs a
single (app, emulator) pair with tracing, metrics, and self-profiling
enabled, then writes:

* a Chrome ``trace_event`` / Perfetto JSON trace (open it in
  https://ui.perfetto.dev or ``chrome://tracing``) where every frame's
  journey — guest driver stage, transport kick, SVM access, coherence or
  prefetch copy, fences, host execution, presentation — is one connected
  flow of arrows;
* a metrics JSON with the registry's counters/gauges/histograms (prefetch
  mispredict rate, slack-estimate error, per-link bus utilization, frame
  accounting) plus the kernel self-profile attributing simulated time per
  device and subsystem.

The run itself is the same deterministic simulation the experiment
commands use: observability only *reads* the clock, so FPS and every other
number matches a run with observability off, bit for bit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.apps.ar import ArApp
from repro.apps.base import App
from repro.apps.camera import CameraApp
from repro.apps.livestream import LivestreamApp
from repro.apps.video import UhdVideoApp
from repro.emulators import EMULATOR_FACTORIES
from repro.hw.machine import HIGH_END_DESKTOP, build_machine
from repro.metrics.collectors import ResilienceStats
from repro.obs import (
    Observability,
    connected_flows,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.sim import Simulator

#: Observable workloads, one representative app per Table 1 category.
APPS: Dict[str, Callable[[], App]] = {
    "video": UhdVideoApp,
    "camera": CameraApp,
    "ar": ArApp,
    "livestream": LivestreamApp,
}

DEFAULT_DURATION_MS = 8_000.0

#: The causal chain the exported trace must contain for at least one
#: frame (SVM access → coherence maintenance or prefetch → presentation).
#: Names match by equality or prefix, so "prefetch" covers
#: ``prefetch.copy`` as well as the suspend/launch instants.
FLOW_CHAINS = (
    ("svm.begin_access", "coherence.copy", "frame.presented"),
    ("svm.begin_access", "prefetch", "frame.presented"),
)


class ObserveResult:
    """Everything one observed run produced."""

    def __init__(self, result, trace_dict, metrics_dict, tracer, connected):
        self.result = result  # AppResult
        self.trace = trace_dict  # Chrome trace_event dict
        self.metrics = metrics_dict  # metrics + self-profile dict
        self.tracer = tracer
        self.connected = connected  # flow ids with a full causal chain


def run_observe(
    app: str = "ar",
    emulator: str = "vSoC",
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    machine_spec=HIGH_END_DESKTOP,
    reservoir: Optional[int] = None,
    max_spans: Optional[int] = None,
) -> ObserveResult:
    """Run one observed app; returns the trace + metrics dicts.

    The exported trace is the run's whole event ring. ``reservoir``
    overrides the registry's per-instrument sample retention (gauge
    timelines and histogram reservoirs; default 512). ``max_spans`` caps
    the ring: only the newest N completed events survive and
    :attr:`TraceLog.dropped_spans` counts the evictions (surfaced in the
    CLI summary and export metadata).
    """
    if app not in APPS:
        raise ValueError(f"unknown app {app!r}; choose from {sorted(APPS)}")
    if emulator not in EMULATOR_FACTORIES:
        raise ValueError(
            f"unknown emulator {emulator!r}; choose from {sorted(EMULATOR_FACTORIES)}"
        )

    sim = Simulator()
    machine = build_machine(sim, machine_spec)
    obs = Observability(sim, reservoir=reservoir, max_spans=max_spans)
    make = EMULATOR_FACTORIES[emulator]
    emu = make(sim, machine, rng=random.Random(seed), obs=obs)

    workload = APPS[app]()
    workload.fps.attach_registry(obs.registry)
    if not workload.install(sim, emu):
        raise SystemExit(
            f"{app!r} cannot run on {emulator!r}: "
            f"{getattr(workload, '_fail_reason', 'install failed')}"
        )
    sim.run(until=duration_ms)
    result = workload.collect(emulator, duration_ms)

    ResilienceStats(obs.tracer).to_registry(obs.registry)
    trace_dict = obs.export_trace(track_groups=emu.track_groups())
    metrics_dict = obs.export_metrics(extra={
        "app": result.app,
        "category": result.category,
        "emulator": emulator,
        "duration_ms": duration_ms,
        "fps": result.fps,
        "presented": result.presented,
        "dropped": dict(result.dropped),
    })

    connected: set = set()
    for chain in FLOW_CHAINS:
        connected.update(connected_flows(obs.tracer, chain))
    return ObserveResult(result, trace_dict, metrics_dict, obs.tracer, sorted(connected))


def cmd_observe(
    app: str,
    emulator: str,
    duration_ms: float,
    export_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    seed: int = 0,
    reservoir: Optional[int] = None,
    max_spans: Optional[int] = None,
) -> int:
    """CLI body: run, validate, write artifacts, print a digest."""
    run = run_observe(
        app=app, emulator=emulator, duration_ms=duration_ms, seed=seed,
        reservoir=reservoir, max_spans=max_spans,
    )
    errors = validate_chrome_trace(run.trace)
    if errors:
        for error in errors:
            print(f"trace schema error: {error}")
        return 1

    tracer = run.tracer
    events = run.trace["traceEvents"]
    print(f"Observed {app!r} on {emulator!r} for {duration_ms:.0f} ms simulated:")
    print(f"  FPS: {run.result.fps:.1f} "
          f"(presented {run.result.presented}, dropped {sum(run.result.dropped.values())})")
    print(f"  spans: {len(tracer.spans())}  instants: {len(tracer.instants())}  "
          f"trace events: {len(events)}")
    if tracer.max_spans is not None:
        print(f"  span retention: ring (max_spans={tracer.max_spans})  "
              f"dropped spans: {tracer.dropped_spans}")
        if tracer.dropped_spans:
            print("  WARNING: the ring cap evicted spans — flows may be "
                  "truncated and latency attribution will refuse this trace")
    print(f"  frame flows: {len(tracer.flows())}  "
          f"fully connected (svm → coherence/prefetch → presented): {len(run.connected)}")

    profile = run.metrics.get("profile")
    if profile:
        device_ms = profile.get("device_ms", {})
        if device_ms:
            attribution = ", ".join(
                f"{dev}={ms:.0f}ms" for dev, ms in sorted(device_ms.items())
            )
            print(f"  simulated time per device: {attribution}")
    utilizations = [
        m for m in run.metrics["metrics"] if m["name"] == "bus.utilization"
    ]
    for metric in utilizations:
        link = metric["labels"].get("link", "?")
        print(f"  bus {link}: {100 * metric['value']:.1f}% utilized")
    mispredict = [
        m for m in run.metrics["metrics"] if m["name"] == "prefetch.mispredict_rate"
    ]
    if mispredict:
        print(f"  prefetch mispredict rate: {100 * mispredict[0]['value']:.1f}%")

    if export_path:
        write_chrome_trace(export_path, run.trace)
        print(f"  wrote trace: {export_path}")
    if metrics_path:
        write_metrics(metrics_path, run.metrics)
        print(f"  wrote metrics: {metrics_path}")
    return 0
