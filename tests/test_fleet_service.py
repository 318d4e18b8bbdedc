"""Tests for the fleet session service (repro.fleet).

Covers the virtual clock's determinism contract, quantum-aligned session
advancement, live migration with restore-at-T bit-identity, supervisor
drain-on-crash with zero loss, bounded restarts, admission control and
shedding, and the end-to-end ``fleetserve`` acceptance bars.
"""

import asyncio
import json

import pytest

from repro.errors import (
    ConfigurationError,
    FleetError,
    SnapshotCorruptError,
)
from repro.faults.plan import FaultPlan
from repro.fleet import (
    FleetService,
    QUANTUM_MS,
    SessionSpec,
    SimWorker,
    VirtualClock,
    WorkerSupervisor,
    capture_session,
    crash_storm_plan,
    generate_trace,
    migrate_session,
    restore_session,
)
from repro.fleet.arrivals import FlashCrowd
from repro.fleet.worker import SessionSim
from repro.obs.fleet import FleetAggregator, snapshot_is_partial
from repro.sim.resilience import Deadline, RetryPolicy


def _spec(session_id="sX", app="ar", duration_ms=5_000.0, priority=1,
          seed=12345, load=1.4):
    return SessionSpec(
        session_id=session_id, app=app, arrival_ms=0.0,
        duration_ms=duration_ms, priority=priority, frame_interval_ms=16.7,
        load=load, target_fps=45.0, seed=seed,
    )


# ---------------------------------------------------------------------------
# VirtualClock
# ---------------------------------------------------------------------------

def _clock_trace():
    events = []

    async def main():
        clock = VirtualClock()

        async def ticker(label, period):
            for i in range(3):
                await clock.sleep(period)
                events.append((clock.now, label, i))

        clock.spawn(ticker("a", 10.0), name="a")
        clock.spawn(ticker("b", 15.0), name="b")
        clock.schedule(22.0, lambda: events.append((clock.now, "timer")))
        await clock.run_until(50.0)
        clock.raise_task_failures()

    asyncio.run(main())
    return events


def test_virtual_clock_is_deterministic():
    assert _clock_trace() == _clock_trace()
    times = [e[0] for e in _clock_trace()]
    assert times == sorted(times)


def test_virtual_clock_rejects_past_schedule():
    clock = VirtualClock()
    with pytest.raises(FleetError):
        clock.schedule(-1.0, lambda: None)


def test_virtual_clock_collects_task_failures():
    async def main():
        clock = VirtualClock()

        async def boom():
            await clock.sleep(5.0)
            raise RuntimeError("kaput")

        clock.spawn(boom(), name="boom")
        await clock.run_until(10.0)
        with pytest.raises(FleetError, match="boom"):
            clock.raise_task_failures()

    asyncio.run(main())


def test_sim_deadline_works_on_virtual_clock():
    async def main():
        clock = VirtualClock()
        deadline = Deadline(clock, 12.5, label="drain")
        cancelled = Deadline(clock, 20.0, label="cancelled")
        cancelled.cancel()
        await clock.run_until(30.0)
        assert deadline.expired
        assert not cancelled.expired

    asyncio.run(main())


# ---------------------------------------------------------------------------
# SessionSim: quantum-aligned advancement
# ---------------------------------------------------------------------------

def test_session_advance_is_slice_invariant():
    one = SessionSim(_spec(), started_at=0.0)
    one.advance(5_000.0)
    many = SessionSim(_spec(), started_at=0.0)
    t = 0.0
    while t < 5_000.0:
        t += 73.0
        many.advance(min(t, 5_000.0))
    assert one.snapshot_state() == many.snapshot_state()
    assert one.done and many.done
    assert one.presented > 0


def test_session_fps_near_profile_rate():
    session = SessionSim(_spec(), started_at=100.0)
    session.advance(5_100.0)
    # 16.7 ms frame interval with ±5% jitter ⇒ ~60 FPS.
    assert session.fps() == pytest.approx(1_000.0 / 16.7, rel=0.05)
    assert session.meets_slo()


def test_session_partial_quantum_only_processed_at_completion():
    session = SessionSim(_spec(duration_ms=2 * QUANTUM_MS + 50.0), started_at=0.0)
    session.advance(2 * QUANTUM_MS + 10.0)  # tail not yet reachable
    assert session.quanta == 2 and not session.done
    frames_before = session.presented
    session.advance(2 * QUANTUM_MS + 50.0)
    assert session.done
    assert session.presented >= frames_before


def _reference_advance(session, until_ms, factor):
    """Per-quantum advancement through ``_step``, the inlined loop's spec."""
    if session.done:
        return
    end = session.started_at + session.spec.duration_ms
    while session.started_at + (session.quanta + 1) * QUANTUM_MS <= min(until_ms, end):
        session._step(QUANTUM_MS, factor)
        session.quanta += 1
    if until_ms >= end:
        tail = end - (session.started_at + session.quanta * QUANTUM_MS)
        if tail > 0:
            session._step(tail, factor)
        session.done = True


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**32 - 1])
@pytest.mark.parametrize("duration_ms", [12 * QUANTUM_MS, 12 * QUANTUM_MS + 37.5])
@pytest.mark.parametrize("factor", [1.0, 1.35, 2.7])
def test_inlined_advance_matches_step_reference(seed, duration_ms, factor):
    fast = SessionSim(_spec(duration_ms=duration_ms, seed=seed), started_at=120.0)
    ref = SessionSim(_spec(duration_ms=duration_ms, seed=seed), started_at=120.0)
    for until in (120.0, 500.0, 1_370.0, 1_370.0, 2_120.5, 3_500.0, 9_000.0):
        frames = ref.presented
        newly = fast.advance(until, factor)
        _reference_advance(ref, until, factor)
        assert newly == ref.presented - frames
        assert (fast.quanta, fast.done) == (ref.quanta, ref.done)
        assert fast.progress == ref.progress
        assert fast.ewma_interval_ms == ref.ewma_interval_ms
        assert fast.presented == ref.presented
    assert fast.done and fast.presented > 0


def test_session_restore_rejects_bad_state():
    session = SessionSim(_spec(), started_at=0.0)
    good = session.snapshot_state()
    with pytest.raises(ConfigurationError, match="missing keys"):
        session.restore_state({k: v for k, v in good.items() if k != "progress"})
    with pytest.raises(ConfigurationError, match="cannot restore"):
        session.restore_state(dict(good, session_id="other"))
    with pytest.raises(ConfigurationError, match="finite"):
        session.restore_state(dict(good, progress=float("nan")))


def test_session_telemetry_partial_flag():
    session = SessionSim(_spec(), started_at=0.0)
    session.advance(1_000.0)
    assert snapshot_is_partial(session.telemetry("w0", partial=True))
    assert not snapshot_is_partial(session.telemetry("w0"))


# ---------------------------------------------------------------------------
# Live migration: restore-at-T bit-identity across the worker boundary
# ---------------------------------------------------------------------------

def _pair():
    clock = VirtualClock()
    wa = SimWorker(clock, "a", capacity=100.0)
    wb = SimWorker(clock, "b", capacity=100.0)
    return clock, wa, wb


def test_migrated_session_is_bit_identical_to_unmigrated():
    _clock, wa, wb = _pair()
    migrated = wa.start_session(_spec())
    migrated.advance(1_300.0)  # deliberately mid-quantum
    record = migrate_session("sX", wa, wb, reason="test")
    assert record.source == "a" and record.target == "b"
    assert "sX" not in wa.sessions and wa.load == 0.0
    wb.sessions["sX"].advance(5_000.0)

    _clock2, wc, _wd = _pair()
    control = wc.start_session(_spec())
    control.advance(1_300.0)
    control.advance(5_000.0)

    assert wb.sessions["sX"].snapshot_state() == control.snapshot_state()
    moved = wb.sessions["sX"].telemetry("b")
    stayed = control.telemetry("c")
    # Telemetry content (counters + gauges) bit-matches; only the meta
    # (placement) differs.
    assert moved.counters == stayed.counters
    assert moved.gauges == stayed.gauges


def test_corrupt_wire_image_rejected_and_source_keeps_session():
    _clock, wa, wb = _pair()
    session = wa.start_session(_spec())
    session.advance(1_000.0)
    good = capture_session(session).to_json().encode("utf-8")
    corrupt = good.replace(b'"progress"', b'"progresz"', 1)
    with pytest.raises(SnapshotCorruptError):
        migrate_session("sX", wa, wb, wire=corrupt)
    assert "sX" in wa.sessions and "sX" not in wb.sessions


def test_restore_session_rejects_foreign_snapshot():
    from repro.recovery.snapshot import Snapshot

    with pytest.raises(FleetError, match="not a fleet session"):
        restore_session(Snapshot({"x": 1}, recipe={"kind": "emulator"}))


def test_migration_rolls_back_when_target_cannot_adopt():
    _clock, wa, wb = _pair()
    wa.start_session(_spec())
    wb.start_session(_spec())  # same id already on the target
    with pytest.raises(FleetError):
        migrate_session("sX", wa, wb)
    assert "sX" in wa.sessions  # rolled back, still exactly one owner


def test_migration_to_dead_worker_rejected():
    _clock, wa, wb = _pair()
    wa.start_session(_spec())
    wb.crash()
    with pytest.raises(FleetError, match="crashed"):
        migrate_session("sX", wa, wb)


# ---------------------------------------------------------------------------
# Lazy advancement: a worker's readers see per-tick state
# ---------------------------------------------------------------------------

class _EagerWorker(SimWorker):
    """Reference worker: advances every hosted session on every tick."""

    def settle(self, session):
        pass  # always current

    def _tick(self, now):
        self.ticks += 1
        factor = self.service_factor()
        finished = []
        for session in self.sessions.values():
            session.advance(now, factor)
            if session.done:
                finished.append(session)
        for session in finished:
            self.release(session.spec.session_id)
            self.completed += 1
            self.on_complete(self, session)


def _settle_scenario(worker_cls):
    """Three workers through factor changes, a hang, an adopt-then-migrate
    before the adopter ticks, and a between-ticks capture; returns every
    reading of session state in order."""
    clock = VirtualClock()
    seen = []

    def on_complete(worker, session):
        seen.append(("complete", clock.now, worker.name, session.snapshot_state()))

    workers = {
        name: worker_cls(clock, name, capacity=4.0, on_complete=on_complete)
        for name in "abc"
    }

    def start(name, index, duration_ms):
        workers[name].start_session(
            _spec(session_id=f"s{index}", duration_ms=duration_ms, seed=index)
        )

    def checkpoint(label):
        for name, worker in sorted(workers.items()):
            for session in worker.sessions.values():
                worker.settle(session)
                seen.append((label, clock.now, name, worker.service_factor(),
                             session.snapshot_state()))

    def migrate(session_id, source, target):
        record = migrate_session(session_id, workers[source], workers[target])
        seen.append(("migrate", clock.now, session_id, record.digest))

    for index, duration in enumerate((1_130.0, 2_470.0, 3_000.0, 4_321.0,
                                      5_555.5, 6_010.0)):
        start("a", index, duration)
    start("b", 10, 8_000.0)
    start("b", 11, 7_640.0)
    # Due at the same tick, in the reverse of hosting order.
    start("b", 12, 3_240.0)
    start("b", 13, 3_210.0)
    for index in (20, 21, 22):
        start("c", index, 7_000.0 + index)
    # A new session between ticks moves a's factor at its next tick.
    clock.schedule(600.0, start, "a", 6, 2_000.0)
    clock.schedule(760.0, checkpoint, "factor-change")
    # a hangs through the ticks at 1500 and 1750; meanwhile s3 is adopted
    # by b and moved on to c before b's next tick.
    clock.schedule(1_300.0, workers["a"].hang, 700.0)
    clock.schedule(1_600.0, migrate, "s3", "a", "b")
    clock.schedule(1_650.0, migrate, "s3", "b", "c")
    clock.schedule(1_660.0, checkpoint, "adopt-then-migrate")
    clock.schedule(2_010.0, checkpoint, "after-hang")
    clock.schedule(2_380.0, migrate, "s4", "a", "b")
    clock.schedule(2_390.0, checkpoint, "between-ticks-capture")

    async def main():
        for name in sorted(workers):
            clock.spawn(workers[name].run(), name=f"worker.{name}")
        await clock.run_until(9_000.0)
        clock.raise_task_failures()

    asyncio.run(main())
    seen.append(("end", [(w.ticks, w.completed, len(w.sessions))
                         for _n, w in sorted(workers.items())]))
    return seen


def test_lazy_worker_settles_to_per_tick_state():
    lazy = _settle_scenario(SimWorker)
    assert lazy == _settle_scenario(_EagerWorker)
    labels = {entry[0] for entry in lazy}
    assert {"factor-change", "adopt-then-migrate", "after-hang",
            "between-ticks-capture"} <= labels
    checkpoints = [entry for entry in lazy if entry[0] not in
                   ("complete", "migrate", "end")]
    assert len({entry[3] for entry in checkpoints if entry[2] == "a"}) >= 2
    _end, workers = lazy[-1]
    assert all(hosted == 0 for _ticks, _done, hosted in workers)


# ---------------------------------------------------------------------------
# Supervisor: drain-on-crash, bounded restarts
# ---------------------------------------------------------------------------

def _mini_fleet(n_workers=3, capacity=60.0):
    clock = VirtualClock()
    completed = []
    workers = {}

    def on_complete(_worker, session):
        completed.append(session.spec.session_id)

    for i in range(n_workers):
        worker = SimWorker(clock, f"w{i}", capacity=capacity,
                           on_complete=on_complete)
        workers[worker.name] = worker
    supervisor = WorkerSupervisor(clock)

    def place(_session, source):
        alive = [w for name, w in sorted(workers.items())
                 if w.alive and name != source]
        if not alive:
            return None
        return min(alive, key=lambda w: (w.load_factor(), w.name))

    supervisor.place_evacuee = place
    for worker in workers.values():
        supervisor.register(worker)
    return clock, workers, supervisor, completed


def _drive(clock, workers, supervisor, until):
    async def main():
        for name in sorted(workers):
            clock.spawn(workers[name].run(), name=f"worker.{name}")
        clock.spawn(supervisor.monitor(), name="supervisor")
        await clock.run_until(until)
        supervisor.stop()
        clock.raise_task_failures()

    asyncio.run(main())


def test_drain_on_crash_loses_nothing():
    clock, workers, supervisor, completed = _mini_fleet()
    for i in range(10):
        workers["w0"].start_session(
            _spec(session_id=f"s{i:02d}", duration_ms=6_000.0, seed=i)
        )
    clock.schedule(1_000.0, workers["w0"].crash)
    _drive(clock, workers, supervisor, 12_000.0)
    stats = supervisor.stats
    assert stats.crashes == 1
    assert stats.drains == 1
    assert stats.evacuated_sessions == 10
    assert stats.lost_sessions == 0
    assert stats.worker_restarts == 1
    assert sorted(completed) == [f"s{i:02d}" for i in range(10)]
    assert workers["w0"].state == "running"  # revived


def test_drain_with_no_targets_counts_losses_and_streams_partials():
    clock, workers, supervisor, completed = _mini_fleet(n_workers=1)
    aggregator = FleetAggregator()
    supervisor.on_partial_telemetry = aggregator.stream
    lost = []
    supervisor.on_lost = lambda session, worker: lost.append(
        session.spec.session_id
    )
    for i in range(4):
        workers["w0"].start_session(
            _spec(session_id=f"s{i}", duration_ms=8_000.0, seed=i)
        )
    clock.schedule(500.0, workers["w0"].crash)
    _drive(clock, workers, supervisor, 6_000.0)
    assert supervisor.stats.lost_sessions == 4
    assert sorted(lost) == ["s0", "s1", "s2", "s3"]
    assert completed == []
    # Truncated contributions are flagged, not absorbed or crashed on.
    assert aggregator.aggregate()["partial_runs"] == 4


def test_restart_retires_worker_when_policy_exhausted():
    clock, workers, supervisor, _completed = _mini_fleet()
    supervisor.restart_policy = RetryPolicy(
        max_attempts=3, base_delay_ms=100.0, multiplier=2.0, max_delay_ms=400.0
    )
    supervisor.mark_down("w0", 1e9)  # never comes back
    clock.schedule(500.0, workers["w0"].crash)
    _drive(clock, workers, supervisor, 10_000.0)
    assert supervisor.stats.retired_workers == 1
    assert supervisor.stats.worker_restarts == 0
    assert workers["w0"].state == "retired"


def test_slow_heartbeat_below_threshold_is_not_declared_dead():
    clock, workers, supervisor, _completed = _mini_fleet()
    clock.schedule(500.0, workers["w0"].slow_beats, 5_000.0, 2.5)
    _drive(clock, workers, supervisor, 8_000.0)
    assert supervisor.stats.crashes == 0


def test_long_hang_is_declared_dead_and_drained():
    clock, workers, supervisor, completed = _mini_fleet()
    for i in range(3):
        workers["w0"].start_session(
            _spec(session_id=f"s{i}", duration_ms=6_000.0, seed=i)
        )
    clock.schedule(500.0, workers["w0"].hang, 4_000.0)
    _drive(clock, workers, supervisor, 12_000.0)
    assert supervisor.stats.crashes == 1
    assert supervisor.stats.evacuated_sessions == 3
    assert supervisor.stats.lost_sessions == 0
    assert len(completed) == 3


# ---------------------------------------------------------------------------
# Arrival traces and crash storms
# ---------------------------------------------------------------------------

def test_generate_trace_is_deterministic_and_ordered():
    a = generate_trace(seed=11, horizon_ms=5_000.0, base_rate_per_s=40.0)
    b = generate_trace(seed=11, horizon_ms=5_000.0, base_rate_per_s=40.0)
    assert a.sessions == b.sessions
    assert a.sessions != generate_trace(
        seed=12, horizon_ms=5_000.0, base_rate_per_s=40.0
    ).sessions
    arrivals = [s.arrival_ms for s in a.sessions]
    assert arrivals == sorted(arrivals)
    assert len({s.session_id for s in a.sessions}) == len(a)
    assert a.peak_concurrency() > 0


def test_flash_crowd_raises_arrival_rate():
    quiet = generate_trace(seed=5, horizon_ms=8_000.0, base_rate_per_s=30.0)
    crowd = generate_trace(
        seed=5, horizon_ms=8_000.0, base_rate_per_s=30.0,
        flash_crowds=(FlashCrowd(peak_ms=4_000.0, amplitude=3.0,
                                 sigma_ms=800.0),),
    )
    assert len(crowd) > len(quiet)


def test_session_spec_recipe_round_trips():
    spec = _spec()
    assert SessionSpec.from_recipe(spec.recipe()) == spec
    with pytest.raises(ConfigurationError, match="missing keys"):
        SessionSpec.from_recipe({"session_id": "x"})


def test_crash_storm_plan_validates_and_rotates():
    plan = crash_storm_plan(
        ["w0", "w1", "w2"], start_ms=1_000.0, crashes=5,
        include_hang=True, include_slow_heartbeat=True,
    )
    assert len(plan.worker_faults) == 7
    kinds = {f.kind for f in plan.worker_faults}
    assert kinds == {"crash", "hang", "slow-heartbeat"}
    plan.validate()  # idempotent — no overlap per worker


def test_generate_trace_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        generate_trace(horizon_ms=-1.0)
    with pytest.raises(ConfigurationError):
        generate_trace(diurnal_amplitude=1.5)


# ---------------------------------------------------------------------------
# FleetService end to end
# ---------------------------------------------------------------------------

def _small_run(seed=7, plan=None, **kwargs):
    trace = generate_trace(seed=seed, horizon_ms=8_000.0,
                           base_rate_per_s=25.0, mean_session_ms=3_000.0)
    service = FleetService(n_workers=4, worker_capacity=120.0, **kwargs)
    summary = service.serve(trace, plan=plan)
    return service, summary


def test_service_run_is_deterministic():
    def run():
        service, _summary = _small_run()
        return json.dumps(service.report(), sort_keys=True)

    assert run() == run()


def test_service_serves_everything_without_faults():
    _service, summary = _small_run()
    stats = summary["stats"]
    assert stats["offered"] > 0
    assert stats["admitted"] == stats["offered"]
    assert stats["completed"] == stats["admitted"]
    assert stats["lost"] == 0
    assert summary["balanced"]


def test_service_crash_mid_run_completes_with_zero_loss():
    plan = FaultPlan().crash_worker(2_500.0, "w01", downtime_ms=800.0)
    service, summary = _small_run(plan=plan)
    stats, recovery = summary["stats"], summary["recovery"]
    assert recovery["crashes"] == 1
    assert recovery["drains"] == 1  # the drain is recorded in RecoveryStats
    assert recovery["evacuated_sessions"] > 0
    assert recovery["lost_sessions"] == 0
    assert recovery["worker_restarts"] == 1
    assert stats["lost"] == 0
    assert stats["completed"] == stats["admitted"]
    assert service.workers["w01"].state == "running"


def test_service_applies_every_worker_fault_kind():
    plan = (
        FaultPlan()
        .crash_worker(2_000.0, "w00", downtime_ms=600.0)
        .hang_worker(2_000.0, "w01", duration_ms=400.0)
        .slow_heartbeat(2_000.0, "w02", duration_ms=2_000.0, factor=2.5)
    )
    _service, summary = _small_run(plan=plan)
    recovery = summary["recovery"]
    # Short hang and sub-threshold slow-beats recover on their own; only
    # the real crash is declared dead.
    assert recovery["crashes"] == 1
    assert recovery["lost_sessions"] == 0
    assert summary["stats"]["completed"] == summary["stats"]["admitted"]


def test_service_rejects_fault_for_unknown_worker():
    plan = FaultPlan().crash_worker(1_000.0, "w99", downtime_ms=500.0)
    trace = generate_trace(seed=1, horizon_ms=3_000.0, base_rate_per_s=5.0)
    service = FleetService(n_workers=2, worker_capacity=50.0)
    with pytest.raises(FleetError, match="w99"):
        service.serve(trace, plan=plan)


def test_service_rejects_overlapping_worker_fault_windows():
    plan = (
        FaultPlan()
        .slow_heartbeat(1_000.0, "w00", duration_ms=3_000.0)
        .slow_heartbeat(2_000.0, "w00", duration_ms=3_000.0)
    )
    service = FleetService(n_workers=2, worker_capacity=50.0)
    with pytest.raises(ConfigurationError, match="w00"):
        service.apply_plan(plan)


def test_admission_sheds_under_capacity_pressure():
    trace = generate_trace(seed=3, horizon_ms=8_000.0, base_rate_per_s=40.0,
                           mean_session_ms=6_000.0)
    service = FleetService(n_workers=1, worker_capacity=20.0,
                           initial_window=16.0)
    summary = service.serve(trace)
    stats = summary["stats"]
    assert stats["shed"] > 0
    assert stats["offered"] == stats["admitted"] + stats["shed"]
    assert summary["balanced"]
    # Pressure must have pushed the degradation ladder off level 0 at
    # some point — sheds report as failures.
    assert summary["degradation"]["failures_total"] > 0


def test_priority_zero_overloads_rather_than_sheds():
    service = FleetService(n_workers=1, worker_capacity=2.0)
    worker = service.workers["w00"]
    for i in range(3):
        assert service.offer(_spec(session_id=f"p0-{i}", priority=0, seed=i))
    assert worker.load > worker.capacity  # overloaded, not refused
    assert not service.offer(_spec(session_id="p2", priority=2, seed=9))
    assert service.stats.shed_capacity == 1


def test_rebalance_moves_session_off_overloaded_worker():
    service = FleetService(n_workers=2, worker_capacity=4.0,
                           rebalance_gap=0.25)
    hot = service.workers["w00"]
    for i in range(6):
        hot.start_session(_spec(session_id=f"s{i}", load=1.0, seed=i,
                                app="video"))
    assert hot.load_factor() > 1.0
    service._rebalance()
    assert service.stats.rebalances == 1
    assert len(service.workers["w01"].sessions) == 1


def test_report_before_serve_raises():
    with pytest.raises(FleetError, match="nothing has run"):
        FleetService(n_workers=1).report()


# ---------------------------------------------------------------------------
# The fleetserve demo (scaled down — the CI smoke shape)
# ---------------------------------------------------------------------------

def test_fleetserve_quick_passes_acceptance_bars():
    from repro.experiments.fleetserve import check_fleetserve, run_fleetserve

    report = run_fleetserve(seed=0, quick=True)
    assert check_fleetserve(report) == []
    summary = report["summary"]
    assert summary["recovery"]["crashes"] >= 1  # the injected worker crash
    assert summary["recovery"]["lost_sessions"] == 0
    assert summary["stats"]["peak_concurrent"] >= report["shape"]["min_peak"]


def test_fleetserve_scales_to_thousands_of_sessions():
    trace = generate_trace(seed=2, horizon_ms=12_000.0, base_rate_per_s=300.0,
                           mean_session_ms=8_000.0)
    service = FleetService(n_workers=12, worker_capacity=300.0,
                           initial_window=1_024.0, max_window=16_384.0)
    plan = crash_storm_plan([f"w{i:02d}" for i in range(12)],
                            start_ms=4_000.0, crashes=2)
    summary = service.serve(trace, plan=plan)
    stats = summary["stats"]
    assert stats["peak_concurrent"] >= 1_500
    assert stats["lost"] == 0
    assert summary["recovery"]["crashes"] == 2
    assert summary["recovery"]["lost_sessions"] == 0
    assert stats["completed"] + summary["active_at_end"] == stats["admitted"]
