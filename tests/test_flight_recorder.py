"""Fleet flight recorder: causal tracing, event log, replay (ISSUE 7)."""

import json

import pytest

from repro.fleet import (
    FleetService,
    FlightRecorder,
    NULL_RECORDER,
    crash_storm_plan,
    generate_trace,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    read_event_log,
    validate_fleet_events,
)
from repro.obs.export import chrome_trace, connected_flows, validate_chrome_trace
from repro.obs.flightdeck import replay_aggregate, render_flight_dashboard
from repro.obs.span import Tracer


class _FakeClock:
    def __init__(self):
        self.now = 0.0


# ---------------------------------------------------------------------------
# EventLog basics
# ---------------------------------------------------------------------------

def test_event_log_stamps_schema_seq_and_virtual_time():
    clock = _FakeClock()
    log = EventLog(clock)
    log.emit("run.start", seed=0, sessions=1, horizon_ms=10.0, workers=1)
    clock.now = 250.0
    log.emit("control.tick", live=1, window=4.0, level=0)
    assert [r["seq"] for r in log.records] == [0, 1]
    assert [r["t_ms"] for r in log.records] == [0.0, 250.0]
    assert all(r["schema"] == EVENTS_SCHEMA for r in log.records)
    assert len(log.of_kind("control.tick")) == 1
    assert validate_fleet_events(log.records) == []


def test_event_log_streams_line_atomic_jsonl(tmp_path):
    path = str(tmp_path / "events.jsonl")
    clock = _FakeClock()
    log = EventLog(clock, path=path)
    log.emit("run.start", seed=3, sessions=0, horizon_ms=1.0, workers=2)
    # Visible on disk immediately — mid-run consumers can tail the file.
    assert read_event_log(path) == log.records
    log.emit("control.tick", live=0, window=1.0, level=0)
    log.close()
    assert read_event_log(path) == log.records


def test_event_log_reader_drops_torn_final_line_only(tmp_path):
    path = str(tmp_path / "events.jsonl")
    clock = _FakeClock()
    log = EventLog(clock, path=path)
    for i in range(3):
        log.emit("control.tick", live=i, window=1.0, level=0)
    log.close()
    whole = open(path, encoding="utf-8").read()
    # A crash mid-write tears the final line: reader drops it, keeps the rest.
    open(path, "w", encoding="utf-8").write(whole[: len(whole) - 9])
    records = read_event_log(path)
    assert [r["seq"] for r in records] == [0, 1]
    # Corruption anywhere else is an error, not a truncation.
    lines = whole.splitlines()
    lines[0] = lines[0][:-4]
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_event_log(path)


def test_event_validator_flags_broken_streams():
    clock = _FakeClock()
    log = EventLog(clock)
    log.emit("run.start", seed=0, sessions=0, horizon_ms=1.0, workers=1)
    log.emit("session.offer", session="s0", app="ar", priority=1, load=2.0)
    good = [dict(r) for r in log.records]

    gap = [dict(r) for r in good]
    gap[1]["seq"] = 5
    assert any("contiguous" in p for p in validate_fleet_events(gap))

    missing = [dict(r) for r in good]
    del missing[1]["app"]
    assert any("missing 'app'" in p for p in validate_fleet_events(missing))

    backwards = [dict(r) for r in good]
    backwards[1]["t_ms"] = -1.0
    assert validate_fleet_events(backwards)

    wrong_first = list(reversed([dict(r) for r in good]))
    for i, r in enumerate(wrong_first):
        r["seq"] = i
    assert any("run.start" in p for p in validate_fleet_events(wrong_first))


# ---------------------------------------------------------------------------
# Tracer span-retention ring (satellite)
# ---------------------------------------------------------------------------

def test_tracer_ring_cap_bounds_spans_and_counts_drops():
    clock = _FakeClock()
    tracer = Tracer(clock, max_spans=4)
    for i in range(10):
        clock.now = float(i)
        span = tracer.begin(f"s{i}", "t")
        tracer.end(span)
        tracer.instant(f"i{i}", "t")
    # One cap covers spans and instants together: 20 events, 4 kept.
    assert len(tracer) == 4
    assert tracer.dropped_spans == 16
    # The ring keeps the newest events.
    assert [e.kind for e in tracer] == ["s8", "i8", "s9", "i9"]
    assert [s.kind for s in tracer.spans()] == ["s8", "s9"]
    assert [s.kind for s in tracer.instants()] == ["i8", "i9"]


def test_tracer_ring_cap_validated_and_off_by_default():
    clock = _FakeClock()
    with pytest.raises(ValueError):
        Tracer(clock, max_spans=0)
    unbounded = Tracer(clock)
    for i in range(100):
        unbounded.end(unbounded.begin(f"s{i}", "t"))
    assert len(unbounded.spans()) == 100
    assert unbounded.dropped_spans == 0


# ---------------------------------------------------------------------------
# Recorded fleet runs
# ---------------------------------------------------------------------------

def _run_fleet(record=False, events_path=None, seed=7):
    trace = generate_trace(seed=seed, horizon_ms=8_000.0, base_rate_per_s=6.0)
    plan = crash_storm_plan(
        [f"w{i:02d}" for i in range(4)], start_ms=2_000.0, crashes=2,
        seed=seed,
    )
    service = FleetService(n_workers=4, worker_capacity=200.0)
    recorder = None
    if record:
        events = EventLog(service.clock, path=events_path)
        recorder = FlightRecorder(service.clock, events=events)
        service.attach_recorder(recorder)
    service.serve(trace, plan=plan)
    if recorder is not None:
        recorder.close()
    return service, recorder


@pytest.fixture(scope="module")
def recorded_run():
    service, recorder = _run_fleet(record=True)
    return service, recorder


def test_recorder_on_off_runs_are_byte_identical(recorded_run):
    service_on, _rec = recorded_run
    service_off, _none = _run_fleet(record=False)
    on = dict(service_on.report())
    off = service_off.report()
    assert "recorder" in on
    on.pop("recorder")
    # Summary, outcomes, aggregate: all byte-identical — the recorder
    # reads the clock but never schedules, so it cannot perturb the run.
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)
    assert on["summary"]["timers_fired"] == off["summary"]["timers_fired"]


def test_fleet_trace_is_valid_with_connected_session_flows(recorded_run):
    service, recorder = recorded_run
    doc = recorder.export_trace()
    assert validate_chrome_trace(doc) == []
    # At least one session's full lifecycle rides one flow id.
    flows = connected_flows(recorder.tracer, [
        "session.offer", "session.place", "session.confirm",
        "session.quantum", "session.complete",
    ])
    assert flows
    # Workers and the control plane land in separate track groups.
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "M"}
    assert "process_name" in names


def test_migration_emits_paired_bind_spans(recorded_run):
    service, recorder = recorded_run
    assert service.stats.migrations >= 1
    doc = recorder.export_trace()
    sends = [e for e in doc["traceEvents"]
             if e.get("name") == "migrate.send" and "bind_id" in e]
    recvs = [e for e in doc["traceEvents"]
             if e.get("name") == "migrate.recv" and "bind_id" in e]
    assert len(sends) == service.stats.migrations
    assert {e["bind_id"] for e in sends} == {e["bind_id"] for e in recvs}
    for send in sends:
        (recv,) = [e for e in recvs if e["bind_id"] == send["bind_id"]]
        assert send["flow_out"] is True
        assert recv["flow_in"] is True
        assert send["tid"] != recv["tid"]  # crosses the worker boundary


def test_event_log_of_real_run_is_schema_valid(recorded_run):
    _service, recorder = recorded_run
    records = recorder.events.records
    assert validate_fleet_events(records) == []
    assert records[0]["kind"] == "run.start"
    assert records[-1]["kind"] == "run.end"
    kinds = {r["kind"] for r in records}
    assert {"session.offer", "session.place", "session.confirm",
            "session.complete", "session.migrate", "worker.fault",
            "worker.dead", "worker.drain", "control.tick"} <= kinds


def test_phase_histograms_accumulate(recorded_run):
    service, recorder = recorded_run
    registry = recorder.registry
    waits = registry.find("fleet.admission_wait_ms")
    assert waits is not None and waits.count == service.stats.confirmed
    assert registry.find("fleet.queue_depth").count > 0
    assert registry.find("fleet.placement_load").count > 0
    wire = registry.find("fleet.migration_wire_bytes")
    assert wire.count == service.stats.migrations
    assert wire.min > 0
    assert registry.find("fleet.drain_ms").count == service.recovery.drains


def test_recorder_summary_rides_the_report(recorded_run):
    service, recorder = recorded_run
    section = service.report()["recorder"]
    assert section["events"] == len(recorder.events)
    assert section["dropped_spans"] == 0
    assert section["flows"] == len(recorder.tracer.flows())
    metric_names = {m["name"] for m in section["metrics"]["metrics"]}
    assert "fleet.admission_wait_ms" in metric_names


# ---------------------------------------------------------------------------
# Replay (flightdeck) and the live dashboard
# ---------------------------------------------------------------------------

def test_replay_rebuilds_the_exact_live_aggregate(recorded_run):
    service, recorder = recorded_run
    live = service.report()["aggregate"]
    replayed = replay_aggregate(recorder.events.records)
    assert json.dumps(replayed, sort_keys=True) == \
        json.dumps(live, sort_keys=True)


def test_replay_from_disk_matches_final_live_render(tmp_path):
    events_path = str(tmp_path / "events.jsonl")
    service, recorder = _run_fleet(record=True, events_path=events_path)
    final_html = render_flight_dashboard(recorder.events.records)
    replayed_html = render_flight_dashboard(read_event_log(events_path))
    assert replayed_html == final_html
    # Self-contained artifact, like the PR 5 dashboard.
    for marker in ("http://", "https://", "src=", "href="):
        assert marker not in final_html


def test_live_renders_mark_refresh_and_final_does_not(recorded_run):
    _service, recorder = recorded_run
    records = recorder.events.records
    partial = [r for r in records if r["kind"] != "run.end"]
    live = render_flight_dashboard(partial, refresh_s=2.0)
    final = render_flight_dashboard(records)
    assert 'http-equiv="refresh"' in live
    assert 'http-equiv="refresh"' not in final
    assert "(live)" in live and "(final)" in final


def test_cadence_callback_fires_on_virtual_time():
    trace = generate_trace(seed=1, horizon_ms=4_000.0, base_rate_per_s=4.0)
    service = FleetService(n_workers=2, worker_capacity=200.0)
    recorder = FlightRecorder(service.clock)
    ticks = []
    recorder.on_cadence = lambda rec: ticks.append(rec._clock.now)
    service.attach_recorder(recorder)
    service.serve(trace)
    assert len(ticks) >= 3
    assert ticks == sorted(ticks)
    # Cadence paces renders: successive fires are >= cadence_ms apart.
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert min(gaps) >= recorder.cadence_ms


def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.confirmed("sX")  # all hooks are no-ops
    NULL_RECORDER.control_tick(0, 1.0, 0)
    assert len(NULL_RECORDER.events) == 0
    assert len(NULL_RECORDER.tracer.spans()) == 0


# ---------------------------------------------------------------------------
# Reproducer line (satellite)
# ---------------------------------------------------------------------------

def test_reproducer_includes_every_override():
    from repro.experiments.fleetserve import _reproducer

    line = _reproducer(3, True, crashes=2, workers=5, live_dir="out")
    assert line.startswith("REPRODUCE: python -m repro.experiments fleetserve")
    for flag in ("--seed 3", "--quick", "--workers 5", "--crashes 2",
                 "--live out"):
        assert flag in line
    assert "--workers" not in _reproducer(0, False)


def test_cmd_fleetserve_prints_reproducer_on_crash(monkeypatch, capsys):
    import repro.experiments.fleetserve as mod

    def boom(**_kwargs):
        raise RuntimeError("storm took out the control plane")

    monkeypatch.setattr(mod, "run_fleetserve", boom)
    with pytest.raises(RuntimeError):
        mod.cmd_fleetserve(quick=True, seed=9, crashes=4)
    out = capsys.readouterr().out
    assert "REPRODUCE: python -m repro.experiments fleetserve --seed 9 " \
           "--quick --crashes 4" in out
