"""The fleet session service: admission → placement → supervision → migration.

:class:`FleetService` is the asyncio control plane tying the fleet layers
together on one deterministic :class:`~repro.fleet.clock.VirtualClock`:

* **Admission** — every arriving :class:`SessionSpec` passes a
  :class:`~repro.core.flowcontrol.MimdFlowControl` window before a worker
  will take it. ``in_flight`` counts admitted-but-unconfirmed sessions;
  the window only grows as workers *confirm* sessions by actually
  advancing them, so admission is paced by real serving capacity, not by
  how fast requests arrive. Saturation feeds a
  :class:`~repro.core.degradation.DegradationController` ladder that
  sheds the lowest-priority classes first and restores itself after
  quiet.
* **Placement** — sessions pack onto the least-loaded worker with
  headroom for their *predicted* load (a per-app EWMA learned from
  completed sessions' telemetry), deterministic name tie-break.
  Priority-0 sessions overload a worker rather than be refused.
* **Supervision** — a :class:`WorkerSupervisor` watches heartbeats,
  drains dead workers through checksummed snapshot migration, and
  restarts them under a bounded retry ladder.
* **Telemetry** — each finished (or lost) session streams one
  :class:`TelemetrySnapshot` incrementally into a
  :class:`FleetAggregator`, so a 10k-session run holds rollups, not 10k
  retained snapshots.

Everything — arrivals, faults, migrations, telemetry — is a pure
function of the trace/plan seeds, so any failing run is replayable.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.core.degradation import (
    DegradationController,
    LEVEL_GUEST_ROUNDTRIP,
    LEVEL_ON_DEMAND,
)
from repro.core.flowcontrol import MimdFlowControl
from repro.errors import FleetError
from repro.faults.plan import FaultPlan, WorkerFaultEvent
from repro.fleet.arrivals import ArrivalTrace, SessionSpec
from repro.fleet.clock import VirtualClock
from repro.fleet.migration import MigrationRecord, migrate_session
from repro.fleet.recorder import NULL_RECORDER, FlightRecorder
from repro.fleet.supervisor import FleetRecoveryStats, WorkerSupervisor
from repro.fleet.worker import SessionSim, SimWorker
from repro.obs.fleet import (
    CounterSample,
    FleetAggregator,
    GaugeSample,
    TelemetrySnapshot,
    _labels_key,
)
from repro.sim.resilience import RetryPolicy

#: Retained (time, concurrency) samples for the fleet dashboard timeline.
CONCURRENCY_TIMELINE_CAP = 4_096


class LoadPredictor:
    """Per-app EWMA of observed session load, learned from telemetry."""

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise FleetError(f"predictor alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._ewma: Dict[str, float] = {}
        self.observations = 0

    def observe(self, app: str, load: float) -> None:
        self.observations += 1
        previous = self._ewma.get(app)
        if previous is None:
            self._ewma[app] = load
        else:
            self._ewma[app] = self.alpha * load + (1.0 - self.alpha) * previous

    def observe_snapshot(self, snapshot: TelemetrySnapshot) -> None:
        app = snapshot.meta_dict.get("app")
        if app is None:
            return
        for gauge in snapshot.gauges:
            if gauge.name == "session.load" and gauge.value is not None:
                self.observe(app, gauge.value)
                return

    def predict(self, app: str, fallback: float) -> float:
        """Expected load of one ``app`` session; declared load until learned."""
        return self._ewma.get(app, fallback)


class FleetStats:
    """The service's admission/serving ledger."""

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.confirmed = 0
        self.completed = 0
        self.shed_flow = 0
        self.shed_capacity = 0
        self.shed_degraded = 0
        self.lost = 0
        self.migrations = 0
        self.rebalances = 0
        self.evacuations = 0
        self.peak_concurrent = 0

    @property
    def shed(self) -> int:
        return self.shed_flow + self.shed_capacity + self.shed_degraded

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "confirmed": self.confirmed,
            "completed": self.completed,
            "shed": self.shed,
            "shed_flow": self.shed_flow,
            "shed_capacity": self.shed_capacity,
            "shed_degraded": self.shed_degraded,
            "lost": self.lost,
            "migrations": self.migrations,
            "rebalances": self.rebalances,
            "evacuations": self.evacuations,
            "peak_concurrent": self.peak_concurrent,
        }


class FleetService:
    """Supervised fleet scheduler serving one arrival trace end to end."""

    def __init__(
        self,
        n_workers: int = 8,
        worker_capacity: float = 400.0,
        tick_ms: float = 250.0,
        control_ms: float = 250.0,
        initial_window: float = 256.0,
        max_window: float = 8_192.0,
        rebalance_gap: float = 0.25,
        restart_policy: Optional[RetryPolicy] = None,
        drain_timeout_ms: float = 2_000.0,
    ):
        if n_workers < 1:
            raise FleetError(f"fleet needs at least one worker, got {n_workers}")
        self.clock = VirtualClock()
        self.stats = FleetStats()
        self.recovery = FleetRecoveryStats()
        self.aggregator = FleetAggregator()
        self.predictor = LoadPredictor()
        self.flow = MimdFlowControl(
            self.clock,
            initial_window=initial_window,
            min_window=1.0,
            max_window=max_window,
            increase=1.05,
            decrease=0.7,
        )
        self.degradation = DegradationController(
            self.clock, failure_threshold=8, reprobe_after_ms=1_000.0,
            name="admission",
        )
        self.control_ms = control_ms
        self.rebalance_gap = rebalance_gap
        self.workers: Dict[str, SimWorker] = {}
        for index in range(n_workers):
            worker = SimWorker(
                self.clock,
                name=f"w{index:02d}",
                capacity=worker_capacity,
                tick_ms=tick_ms,
                heartbeat_ms=tick_ms,
                on_complete=self._on_complete,
            )
            self.workers[worker.name] = worker
        self.supervisor = WorkerSupervisor(
            self.clock,
            stats=self.recovery,
            check_ms=control_ms,
            drain_timeout_ms=drain_timeout_ms,
            **({"restart_policy": restart_policy} if restart_policy else {}),
        )
        for worker in self.workers.values():
            self.supervisor.register(worker)
        self.supervisor.place_evacuee = self._place_evacuee
        self.supervisor.on_lost = self._on_lost
        self.supervisor.on_migrated = self._on_migrated
        self.supervisor.on_partial_telemetry = self.aggregator.stream
        self._owner: Dict[str, str] = {}
        self._unconfirmed: Dict[str, str] = {}
        self._shed_log: List[Tuple[str, str]] = []
        self.migrations: List[MigrationRecord] = []
        self._conc_timeline: List[Tuple[float, float]] = []
        self._summary: Optional[Dict[str, Any]] = None
        self.recorder: FlightRecorder = NULL_RECORDER

    def attach_recorder(self, recorder: FlightRecorder) -> None:
        """Install a flight recorder across the whole control plane.

        The recorder only ever *reads* the virtual clock, so attaching
        one cannot perturb the run: summary and per-session outcomes are
        byte-identical with and without it (test-proven).
        """
        self.recorder = recorder
        self.supervisor.recorder = recorder
        for worker in self.workers.values():
            worker.recorder = recorder

    # -- admission -----------------------------------------------------------
    def _shed_floor(self, level: int) -> int:
        """Lowest priority still admitted at a degradation level."""
        if level >= LEVEL_GUEST_ROUNDTRIP:
            return 0  # only priority 0 survives
        if level >= LEVEL_ON_DEMAND:
            return 1  # shed priority 2
        return 2  # healthy: everyone welcome

    def offer(self, spec: SessionSpec) -> bool:
        """Admit-or-shed one arriving session request."""
        self.stats.offered += 1
        self.recorder.offered(spec)
        level = self.degradation.plan_level()
        if spec.priority > self._shed_floor(level):
            self.stats.shed_degraded += 1
            self._shed_log.append((spec.session_id, "degraded"))
            self.recorder.shed(spec, "degraded")
            return False
        worker = self._place(spec)
        if worker is None:
            self.degradation.note_failure(level, reason="capacity")
            self.stats.shed_capacity += 1
            self._shed_log.append((spec.session_id, "capacity"))
            self.recorder.shed(spec, "capacity")
            return False
        self.recorder.placed(
            spec, worker.name,
            self.predictor.predict(spec.app, spec.load),
            worker.load_factor(),
        )
        if not self.flow.try_dispatch():
            self.degradation.note_failure(level, reason="window")
            self.stats.shed_flow += 1
            self._shed_log.append((spec.session_id, "window"))
            self.recorder.shed(spec, "window")
            return False
        worker.start_session(spec)
        self.stats.admitted += 1
        self._owner[spec.session_id] = worker.name
        self._unconfirmed[spec.session_id] = worker.name
        self.recorder.admitted(spec, worker.name)
        return True

    def _confirm(self, session_id: str) -> None:
        """First healthy progress tick: release the admission slot."""
        self._unconfirmed.pop(session_id, None)
        self.flow.complete()
        self.degradation.note_success(self.degradation.plan_level())
        self.stats.confirmed += 1
        self.recorder.confirmed(session_id)

    # -- placement -----------------------------------------------------------
    def _place(self, spec: SessionSpec) -> Optional[SimWorker]:
        predicted = self.predictor.predict(spec.app, spec.load)
        best: Optional[SimWorker] = None
        for name in sorted(self.workers):
            worker = self.workers[name]
            if not worker.available:
                continue
            if worker.load + predicted > worker.capacity:
                continue
            if best is None or worker.load_factor() < best.load_factor():
                best = worker
        if best is not None:
            return best
        if spec.priority == 0:
            # Platinum sessions overload the least-loaded worker instead
            # of being refused: graceful degradation, not denial.
            alive = [w for n, w in sorted(self.workers.items()) if w.available]
            if alive:
                return min(alive, key=lambda w: (w.load_factor(), w.name))
        return None

    def _place_evacuee(self, session: SessionSim, source: str) -> Optional[SimWorker]:
        """Drain placement ignores capacity: losing a session is worse
        than overloading a healthy worker."""
        alive = [
            w for n, w in sorted(self.workers.items())
            if w.alive and n != source
        ]
        if not alive:
            return None
        return min(alive, key=lambda w: (w.load_factor(), w.name))

    # -- callbacks -----------------------------------------------------------
    def _on_complete(self, worker: SimWorker, session: SessionSim) -> None:
        session_id = session.spec.session_id
        if session_id in self._unconfirmed:
            self._confirm(session_id)
        self._owner.pop(session_id, None)
        self.stats.completed += 1
        self.recorder.completed(worker.name, session)
        snapshot = session.telemetry(worker.name)
        self.predictor.observe_snapshot(snapshot)
        self.aggregator.stream(snapshot)

    def _on_lost(self, session: SessionSim, worker_name: str) -> None:
        session_id = session.spec.session_id
        if session_id in self._unconfirmed:
            # The slot must be returned even though the session died.
            self._unconfirmed.pop(session_id, None)
            self.flow.complete()
        self._owner.pop(session_id, None)
        self.stats.lost += 1
        self.recorder.lost(worker_name, session)

    def _on_migrated(self, record: MigrationRecord) -> None:
        self.migrations.append(record)
        self.stats.migrations += 1
        if record.reason.startswith("drain:"):
            self.stats.evacuations += 1
        self._owner[record.session_id] = record.target
        if record.session_id in self._unconfirmed:
            self._unconfirmed[record.session_id] = record.target
        self.recorder.migrated(record)

    # -- worker faults -------------------------------------------------------
    def apply_plan(self, plan: FaultPlan) -> None:
        """Validate the plan, then schedule its worker faults onto the
        virtual clock."""
        plan.validate()
        for event in plan.worker_faults:
            delay = event.time_ms - self.clock.now
            if delay < 0:
                raise FleetError(
                    f"worker fault at {event.time_ms} ms is already in the past"
                )
            self.clock.schedule(delay, self._fire_fault, event)

    def _fire_fault(self, event: WorkerFaultEvent) -> None:
        worker = self.workers.get(event.worker)
        if worker is None:
            raise FleetError(f"fault plan names unknown worker {event.worker!r}")
        self.recorder.fault_injected(event)
        if event.kind == "crash":
            worker.crash()
            self.supervisor.mark_down(
                worker.name, event.time_ms + event.duration_ms
            )
        elif event.kind == "hang":
            worker.hang(event.duration_ms)
        else:  # slow-heartbeat
            worker.slow_beats(event.duration_ms, event.factor)

    # -- control loop --------------------------------------------------------
    def _live_sessions(self) -> int:
        return sum(len(w.sessions) for w in self.workers.values())

    def _control_tick(self) -> None:
        now = self.clock.now
        live = self._live_sessions()
        self.stats.peak_concurrent = max(self.stats.peak_concurrent, live)
        if len(self._conc_timeline) < CONCURRENCY_TIMELINE_CAP:
            self._conc_timeline.append((now, float(live)))
        self.recorder.control_tick(
            live, self.flow.window, self.degradation.level
        )
        for session_id in list(self._unconfirmed):
            owner = self._unconfirmed[session_id]
            worker = self.workers.get(owner)
            session = worker.sessions.get(session_id) if worker else None
            if session is None:
                continue
            worker.settle(session)
            if session.quanta >= 1:
                self._confirm(session_id)
        self._rebalance()

    def _rebalance(self) -> None:
        """At most one planned migration per tick, hottest → coolest."""
        alive = [w for _n, w in sorted(self.workers.items()) if w.available]
        if len(alive) < 2:
            return
        src = max(alive, key=lambda w: (w.load_factor(), w.name))
        dst = min(alive, key=lambda w: (w.load_factor(), w.name))
        if src is dst or not src.sessions:
            return
        if src.load_factor() < 1.0:
            return  # nobody is actually overloaded
        if src.load_factor() - dst.load_factor() < self.rebalance_gap:
            return
        session_id = next(iter(src.sessions))
        record = migrate_session(session_id, src, dst, reason="rebalance")
        self.stats.rebalances += 1
        self._on_migrated(record)

    async def _control_loop(self) -> None:
        while True:
            await self.clock.sleep(self.control_ms)
            self._control_tick()

    async def _feed(self, trace: ArrivalTrace) -> None:
        for spec in trace.sessions:
            delay = spec.arrival_ms - self.clock.now
            if delay > 0:
                await self.clock.sleep(delay)
            self.offer(spec)

    # -- the run -------------------------------------------------------------
    def serve(
        self,
        trace: ArrivalTrace,
        plan: Optional[FaultPlan] = None,
        until: Optional[float] = None,
        grace_ms: float = 5_000.0,
    ) -> Dict[str, Any]:
        """Serve one trace to completion; returns the run summary."""
        if until is None:
            last = max(
                (s.arrival_ms + s.duration_ms for s in trace.sessions),
                default=trace.horizon_ms,
            )
            until = last + grace_ms
        return asyncio.run(self._serve(trace, plan, until))

    async def _serve(
        self, trace: ArrivalTrace, plan: Optional[FaultPlan], until: float
    ) -> Dict[str, Any]:
        if plan is not None:
            self.apply_plan(plan)
        self.recorder.run_started(trace, len(self.workers), until)
        for name in sorted(self.workers):
            worker = self.workers[name]
            self.clock.spawn(worker.run(), name=f"worker.{name}")
        self.clock.spawn(self.supervisor.monitor(), name="supervisor")
        self.clock.spawn(self._control_loop(), name="control")
        self.clock.spawn(self._feed(trace), name="feeder")
        await self.clock.run_until(until)
        self.supervisor.stop()
        self.clock.raise_task_failures()
        self._summary = self._build_summary(trace, until)
        self.recorder.run_ended(self._summary)
        return self._summary

    # -- reporting -----------------------------------------------------------
    def _fleet_snapshot(self) -> TelemetrySnapshot:
        plain = _labels_key({})
        stats = self.stats
        return TelemetrySnapshot(
            meta=_labels_key({"emulator": "fleet", "app": "control"}),
            counters=tuple(
                CounterSample(f"fleet.{name}", plain, float(value))
                for name, value in sorted(stats.as_dict().items())
            ),
            gauges=(
                GaugeSample(
                    "fleet.concurrent", plain,
                    float(self._live_sessions()),
                    tuple(self._conc_timeline),
                ),
                GaugeSample(
                    "fleet.admission_window", plain, float(self.flow.window)
                ),
                GaugeSample(
                    "fleet.degradation_level", plain,
                    float(self.degradation.level),
                ),
            ),
        )

    def _build_summary(self, trace: ArrivalTrace, until: float) -> Dict[str, Any]:
        self.aggregator.stream(self._fleet_snapshot())
        stats = self.stats
        active = self._live_sessions()
        balanced = (
            stats.offered == stats.admitted + stats.shed
            and stats.admitted == stats.completed + stats.lost + active
        )
        if not balanced:
            raise FleetError(
                "session accounting does not balance: "
                f"offered={stats.offered} admitted={stats.admitted} "
                f"shed={stats.shed} completed={stats.completed} "
                f"lost={stats.lost} active={active}"
            )
        return {
            "schema": "repro-fleetserve-v1",
            "trace": {
                "seed": trace.seed,
                "sessions": len(trace),
                "horizon_ms": trace.horizon_ms,
                "peak_offered_concurrency": trace.peak_concurrency(),
            },
            "until_ms": until,
            "workers": {
                name: {
                    "state": w.state,
                    "sessions": len(w.sessions),
                    "load": w.load,
                    "capacity": w.capacity,
                    "started": w.started,
                    "completed": w.completed,
                    "crashes": w.crashes,
                }
                for name, w in sorted(self.workers.items())
            },
            "stats": stats.as_dict(),
            "recovery": self.recovery.as_dict(),
            "active_at_end": active,
            "admission": self.flow.snapshot_state(),
            "degradation": self.degradation.snapshot_state(),
            "timers_fired": self.clock.timers_fired,
            "balanced": balanced,
        }

    def report(self) -> Dict[str, Any]:
        """Summary + full telemetry aggregate (the JSON artifact surface)."""
        if self._summary is None:
            raise FleetError("report() before serve(): nothing has run yet")
        out: Dict[str, Any] = {
            "summary": self._summary,
            "sheds": [
                {"session": sid, "reason": reason}
                for sid, reason in self._shed_log[:256]
            ],
            "migrations": [
                {
                    "session": r.session_id, "source": r.source,
                    "target": r.target, "at_ms": r.at_ms, "reason": r.reason,
                }
                for r in self.migrations[:256]
            ],
            "aggregate": self.aggregator.aggregate(),
        }
        if self.recorder.enabled:
            # Additive: everything above is byte-identical recorder-off.
            out["recorder"] = self.recorder.summary()
        return out
