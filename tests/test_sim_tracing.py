"""Unit tests for the event ring (repro.sim.tracing)."""

from repro.sim import Simulator, Timeout
from repro.sim.tracing import RECORD_TRACK, TraceLog


def test_record_and_filter_by_kind():
    log = TraceLog()
    log.record(1.0, "a", x=1)
    log.record(2.0, "b", x=2)
    log.record(3.0, "a", x=3)
    assert len(log) == 3
    assert [r["x"] for r in log.of_kind("a")] == [1, 3]


def test_values_extraction():
    log = TraceLog()
    for i in range(5):
        log.record(float(i), "svm.slack", slack=i * 2.0)
    assert log.values("svm.slack", "slack") == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_record_get_default():
    log = TraceLog()
    log.record(1.0, "a", x=1)
    (record,) = log
    assert record.get("x") == 1
    assert record.get("missing", 42) == 42
    assert record["x"] == 1
    assert record.start == record.end == 1.0
    assert record.instant and record.track == RECORD_TRACK


def test_iteration_in_time_order():
    log = TraceLog()
    for t in (1.0, 2.0, 3.0):
        log.record(t, "evt")
    assert [r.end for r in log] == [1.0, 2.0, 3.0]


def test_spans_enter_the_ring_when_they_end():
    # Record views see events in completion order; span views see open
    # spans too, and by_flow orders each flow by (start, span_id).
    sim = Simulator()
    log = TraceLog(sim)
    flow = log.new_flow()

    def long():
        span = log.begin("copy", "bus", flow=flow, bytes=8)
        yield Timeout(3.0)
        log.end(span, duration=3.0)

    def short():
        span = log.begin("access", "gpu", flow=flow)
        yield Timeout(1.0)
        log.end(span, latency=1.0)
        log.instant("presented", "display", flow=flow)
        log.begin("never", "gpu", flow=flow)

    sim.spawn(long())
    sim.spawn(short())
    sim.run(until=5.0)
    assert [e.kind for e in log] == ["access", "presented", "copy"]
    assert log.of_kind("copy")[0].fields == {"bytes": 8, "duration": 3.0}
    assert [e.kind for e in log.spans()] == ["access", "copy", "never"]
    assert [e.kind for e in log.instants()] == ["presented"]
    assert [e.kind for e in log.by_flow()[flow]] == ["copy", "access", "presented", "never"]
    assert log.spans_of_flow(flow) == log.by_flow()[flow]
    assert log.flows() == [flow]
    assert log.kind_counts() == {"access": 1, "presented": 1, "copy": 1}
