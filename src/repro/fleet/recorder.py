"""The fleet flight recorder: causal session-lifecycle tracing.

PR 2's tracer stopped at the emulator boundary: admission, placement,
migration, drain and supervision decisions left no causal trace. The
:class:`FlightRecorder` extends the same span/flow machinery across the
entire ``repro.fleet`` control plane:

* each session carries **one flow id** from ``session.offer`` through
  ``session.place`` → ``session.confirm`` → ``session.quantum[i..j]`` →
  (``session.migrate`` | ``session.lost``) → ``session.complete``, so the
  exported Perfetto trace renders one connected arrow chain per session;
* migrations emit a **paired** ``migrate.send`` / ``migrate.recv`` span
  with a shared ``bind_id`` (``flow_out`` on the source worker's track,
  ``flow_in`` on the target's) — the cross-worker-boundary link
  ``validate_chrome_trace`` pairing-checks;
* supervisor incidents (declared-dead, fence, drain, restart, retire)
  and control-loop ticks land as spans on their own tracks in the same
  virtual timeline;
* every lifecycle decision also lands in a streaming
  :class:`~repro.obs.events.EventLog` (JSONL, seq-numbered,
  crash-tolerant) — the artifact the live dashboard and the
  ``flightdeck`` replay CLI fold;
* per-phase latency/queue-depth histograms (admission wait, placement
  load, migration transfer bytes, drain duration, live-session depth)
  accumulate in a :class:`~repro.obs.registry.MetricsRegistry`.

Determinism is non-negotiable: the recorder only ever *reads* the
virtual clock — it never schedules timers, sleeps, or touches the
aggregator — so a recorded run's summary and per-session outcomes are
byte-identical to an unrecorded run's (test-proven, matching PR 2's
tracing-on/off bar).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.events import EventLog
from repro.obs.export import chrome_trace
from repro.obs.registry import MetricsRegistry
from repro.sim.tracing import TraceEvent, TraceLog

#: Default event-ring cap (spans and instants together): enough for every
#: lifecycle event of a quick run; long runs wrap and count drops instead
#: of growing.
DEFAULT_SPAN_CAP = 131_072

#: Virtual-time cadence (ms) between live-dashboard re-renders.
DEFAULT_CADENCE_MS = 1_000.0

#: Tracks that belong to the control plane's Chrome process group.
_SERVICE_TRACKS = ("service.admission", "service.placement",
                   "service.control", "supervisor", "faults")


class FlightRecorder:
    """Span + event + histogram sink for one fleet run.

    Construct with the service's :class:`~repro.fleet.clock.VirtualClock`
    and attach via :meth:`FleetService.attach_recorder`. A disabled
    recorder (:data:`NULL_RECORDER`) makes every hook a cheap no-op.
    """

    def __init__(
        self,
        clock=None,
        events: Optional[EventLog] = None,
        max_spans: Optional[int] = DEFAULT_SPAN_CAP,
        enabled: bool = True,
    ):
        if enabled and clock is None:
            raise ValueError("an enabled FlightRecorder needs the fleet clock")
        self.enabled = enabled
        self._clock = clock
        self.tracer = TraceLog(clock, max_spans=max_spans)
        self.events = events if events is not None else EventLog(clock)
        self.registry = MetricsRegistry(enabled=enabled)
        #: Live-dashboard hook: called with this recorder every
        #: ``cadence_ms`` of *virtual* time (from the control tick — the
        #: recorder itself never schedules anything).
        self.on_cadence: Optional[Callable[["FlightRecorder"], None]] = None
        self.cadence_ms = DEFAULT_CADENCE_MS
        self._next_cadence = 0.0
        self._flows: Dict[str, int] = {}
        self._offer_ms: Dict[str, float] = {}
        self._migrations = 0

    # -- run boundary --------------------------------------------------------
    def run_started(self, trace, n_workers: int, until: float) -> None:
        if not self.enabled:
            return
        self.events.emit(
            "run.start",
            seed=trace.seed,
            sessions=len(trace),
            horizon_ms=trace.horizon_ms,
            workers=n_workers,
            until_ms=until,
        )

    def run_ended(self, summary: Mapping[str, Any]) -> None:
        if not self.enabled:
            return
        self.events.emit(
            "run.end",
            stats=dict(summary["stats"]),
            recovery=dict(summary["recovery"]),
            active=summary["active_at_end"],
            window=summary["admission"]["window"],
            level=summary["degradation"]["level"],
            balanced=summary["balanced"],
        )

    # -- admission -----------------------------------------------------------
    def offered(self, spec) -> None:
        if not self.enabled:
            return
        flow = self.tracer.new_flow()
        self._flows[spec.session_id] = flow
        self._offer_ms[spec.session_id] = self._clock.now
        self._point("session.offer", "service.admission", flow=flow,
                    session=spec.session_id, app=spec.app,
                    priority=spec.priority)
        self.events.emit("session.offer", session=spec.session_id,
                         app=spec.app, priority=spec.priority, load=spec.load)

    def shed(self, spec, reason: str) -> None:
        if not self.enabled:
            return
        flow = self._flows.pop(spec.session_id, 0)
        self._offer_ms.pop(spec.session_id, None)
        self.tracer.instant("session.shed", "service.admission", cat="fleet",
                            flow=flow, session=spec.session_id, reason=reason)
        self.events.emit("session.shed", session=spec.session_id,
                         reason=reason)

    def placed(self, spec, worker_name: str, predicted: float,
               load_factor: float) -> None:
        if not self.enabled:
            return
        self._point("session.place", "service.placement",
                    flow=self._flows.get(spec.session_id, 0),
                    session=spec.session_id, worker=worker_name,
                    predicted=predicted)
        self.registry.histogram("fleet.placement_load").observe(load_factor)
        self.events.emit("session.place", session=spec.session_id,
                         worker=worker_name, predicted=predicted)

    def admitted(self, spec, worker_name: str) -> None:
        if not self.enabled:
            return
        self.events.emit("session.admit", session=spec.session_id,
                         worker=worker_name)

    def confirmed(self, session_id: str) -> None:
        if not self.enabled:
            return
        offered_at = self._offer_ms.pop(session_id, None)
        wait = (self._clock.now - offered_at) if offered_at is not None else 0.0
        self._point("session.confirm", "service.admission",
                    flow=self._flows.get(session_id, 0),
                    session=session_id, wait_ms=wait)
        self.registry.histogram("fleet.admission_wait_ms").observe(wait)
        self.events.emit("session.confirm", session=session_id, wait_ms=wait)

    # -- worker progress -----------------------------------------------------
    def quantum(self, worker_name: str, session, first: int, newly: int) -> None:
        """One settled batch of quanta a session just advanced through.

        Workers advance sessions lazily, so one span covers every quantum
        since the session was last settled (on a read, a completion, or a
        service-factor change), not one tick's worth. The span covers the
        session-local interval the quanta occupy (``started_at + first·Q``
        → where the advance landed), so the worker track shows exactly
        *when* each session made progress.
        """
        if not self.enabled:
            return
        from repro.fleet.worker import QUANTUM_MS

        start = session.started_at + first * QUANTUM_MS
        end = min(self._clock.now,
                  session.started_at + session.spec.duration_ms) \
            if session.done else session.started_at + session.quanta * QUANTUM_MS
        span = self.tracer.begin(
            "session.quantum", f"worker.{worker_name}", cat="fleet",
            flow=self._flows.get(session.spec.session_id, 0),
            session=session.spec.session_id, first=first,
            last=session.quanta, frames=newly,
        )
        span.start = start
        self.tracer.end(span)
        span.end = max(start, end)

    def completed(self, worker_name: str, session) -> None:
        if not self.enabled:
            return
        sid = session.spec.session_id
        self._point("session.complete", f"worker.{worker_name}",
                    flow=self._flows.pop(sid, 0), session=sid,
                    frames=session.presented)
        self._offer_ms.pop(sid, None)
        self.events.emit(
            "session.complete", session=sid, worker=worker_name,
            app=session.spec.app, priority=session.spec.priority,
            frames=session.presented, fps=session.fps(),
            latency_ms=session.ewma_interval_ms, load=session.spec.load,
        )

    def lost(self, worker_name: str, session) -> None:
        if not self.enabled:
            return
        sid = session.spec.session_id
        self._point("session.lost", "supervisor",
                    flow=self._flows.pop(sid, 0), session=sid,
                    worker=worker_name)
        self._offer_ms.pop(sid, None)
        self.events.emit(
            "session.lost", session=sid, worker=worker_name,
            app=session.spec.app, priority=session.spec.priority,
            frames=session.presented, fps=session.fps(),
            latency_ms=session.ewma_interval_ms, load=session.spec.load,
        )

    # -- migration -----------------------------------------------------------
    def migrated(self, record, wire_bytes: Optional[int] = None) -> None:
        """Paired send/recv spans: one bind_id arrow across the boundary."""
        if not self.enabled:
            return
        if wire_bytes is None:
            wire_bytes = getattr(record, "wire_bytes", 0)
        self._migrations += 1
        bind = f"mig:{record.session_id}:{self._migrations}"
        flow = self._flows.get(record.session_id, 0)
        self._point("migrate.send", f"worker.{record.source}", flow=flow,
                    session=record.session_id, target=record.target,
                    reason=record.reason, bind_id=bind, flow_out=True)
        self._point("migrate.recv", f"worker.{record.target}", flow=flow,
                    session=record.session_id, source=record.source,
                    bytes=wire_bytes, bind_id=bind, flow_in=True)
        self.registry.histogram("fleet.migration_wire_bytes") \
            .observe(float(wire_bytes))
        self.events.emit(
            "session.migrate", session=record.session_id,
            source=record.source, target=record.target,
            reason=record.reason, bytes=wire_bytes, digest=record.digest,
        )

    # -- faults and supervision ----------------------------------------------
    def fault_injected(self, event) -> None:
        if not self.enabled:
            return
        self.tracer.instant("fault." + event.kind, "faults", cat="fleet",
                            worker=event.worker,
                            duration_ms=event.duration_ms)
        self.events.emit("worker.fault", worker=event.worker,
                         fault=event.kind, duration_ms=event.duration_ms)

    def worker_dead(self, worker_name: str, silence_ms: float) -> None:
        if not self.enabled:
            return
        self.tracer.instant("worker.dead", "supervisor", cat="fleet",
                            worker=worker_name, silence_ms=silence_ms)
        self.events.emit("worker.dead", worker=worker_name,
                         silence_ms=silence_ms)

    def worker_fenced(self, worker_name: str) -> None:
        if not self.enabled:
            return
        self.tracer.instant("worker.fence", "supervisor", cat="fleet",
                            worker=worker_name)
        self.events.emit("worker.fence", worker=worker_name)

    def drain_started(self, worker_name: str) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        return self.tracer.begin("worker.drain", "supervisor", cat="fleet",
                                 worker=worker_name)

    def drain_finished(self, worker_name: str, span: Optional[TraceEvent],
                       evacuated: int, lost: int, timed_out: bool) -> None:
        if not self.enabled:
            return
        duration = 0.0
        if span is not None:
            self.tracer.end(span, evacuated=evacuated, lost=lost)
            duration = span.duration or 0.0
        self.registry.histogram("fleet.drain_ms").observe(duration)
        self.events.emit("worker.drain", worker=worker_name,
                         evacuated=evacuated, lost=lost,
                         duration_ms=duration, timed_out=timed_out)

    def worker_restarted(self, worker_name: str, attempts: int) -> None:
        if not self.enabled:
            return
        self.tracer.instant("worker.restart", "supervisor", cat="fleet",
                            worker=worker_name, attempts=attempts)
        self.events.emit("worker.restart", worker=worker_name,
                         attempts=attempts)

    def worker_retired(self, worker_name: str, attempts: int) -> None:
        if not self.enabled:
            return
        self.tracer.instant("worker.retire", "supervisor", cat="fleet",
                            worker=worker_name, attempts=attempts)
        self.events.emit("worker.retire", worker=worker_name,
                         attempts=attempts)

    # -- control loop --------------------------------------------------------
    def control_tick(self, live: int, window: float, level: int) -> None:
        if not self.enabled:
            return
        self._point("control.tick", "service.control",
                    live=live, window=window, level=level)
        self.registry.histogram("fleet.queue_depth").observe(float(live))
        self.events.emit("control.tick", live=live, window=window,
                         level=level)
        if self.on_cadence is not None and self._clock.now >= self._next_cadence:
            self._next_cadence = self._clock.now + self.cadence_ms
            self.on_cadence(self)

    # -- export --------------------------------------------------------------
    def track_groups(self) -> Dict[str, str]:
        """Chrome pid grouping: control plane vs the worker pool."""
        groups = {track: "service" for track in _SERVICE_TRACKS}
        for span in self.tracer.spans() + self.tracer.instants():
            if span.track.startswith("worker."):
                groups.setdefault(span.track, "workers")
        return groups

    def export_trace(self) -> Dict[str, Any]:
        """Chrome/Perfetto trace dict of everything recorded so far."""
        end = self._clock.now if self._clock is not None else None
        return chrome_trace(self.tracer, track_groups=self.track_groups(),
                            end_time=end)

    def summary(self) -> Dict[str, Any]:
        """Recorder bookkeeping for the run report (additive section)."""
        return {
            "events": len(self.events),
            "spans": len(self.tracer.spans()),
            "instants": len(self.tracer.instants()),
            "dropped_spans": self.tracer.dropped_spans,
            "flows": len(self.tracer.flows()),
            "metrics": self.registry.to_dict(),
        }

    def close(self) -> None:
        self.events.close()

    # -- internals -----------------------------------------------------------
    def _point(self, name: str, track: str, flow: int = 0, **args: Any) -> TraceEvent:
        """A zero-duration lifecycle span (flows bind to slices, so these
        are 'X' events rather than instants)."""
        span = self.tracer.begin(name, track, cat="fleet", flow=flow, **args)
        self.tracer.end(span)
        return span


#: Shared disabled recorder — the default on every fleet component.
NULL_RECORDER = FlightRecorder(enabled=False)
