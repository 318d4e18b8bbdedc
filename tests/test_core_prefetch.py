"""Unit tests for the prefetch engine (repro.core.prefetch)."""

import pytest

from repro.core.coherence import CopyPlanner
from repro.core.prefetch import PrefetchEngine
from repro.core.region import HOST_LOCATION, SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.hw import build_machine
from repro.metrics.collectors import maintenances
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import UHD_FRAME_BYTES

VDEV_LOCATIONS = {"codec": HOST_LOCATION, "gpu": "gpu", "display": "gpu", "cpu": HOST_LOCATION}


@pytest.fixture
def engine_setup():
    sim = Simulator()
    machine = build_machine(sim)
    planner = CopyPlanner(sim, machine)
    twin = TwinHypergraphs(VDEV_LOCATIONS.keys(), [HOST_LOCATION, "gpu", "guest"])
    trace = TraceLog(sim)
    engine = PrefetchEngine(sim, twin, planner, VDEV_LOCATIONS.get, trace)
    return sim, machine, twin, engine, trace


def warm_flow(twin, region_id, cycles=4, slack=12.0):
    """Train a codec(host) → gpu flow."""
    for _ in range(cycles):
        twin.on_write(region_id, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        twin.on_read(region_id, "gpu", "gpu", slack)


def test_cold_start_launches_nothing(engine_setup):
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.cold_starts == 1
    assert engine.stats.launched == 0
    assert region.pending_prefetch is None


def test_warm_flow_launches_prefetch(engine_setup):
    sim, _m, twin, engine, trace = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.launched == 1
    assert region.prefetch_targets == {"gpu"}
    sim.run()
    assert region.is_valid_at("gpu")
    records = maintenances(trace)
    assert records and records[0]["path"] == "prefetch"


def test_colocated_readers_need_no_prefetch(engine_setup):
    """The in-GPU zero-copy case: display reads what the GPU wrote."""
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    for _ in range(4):
        twin.on_write(1, "gpu", "gpu", UHD_FRAME_BYTES)
        twin.on_read(1, "display", "gpu", 8.0)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)
    engine.launch(region, "gpu", "gpu")
    assert engine.stats.launched == 0
    assert region.pending_prefetch is None


def test_accuracy_scoring(engine_setup):
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    engine.on_read(region, "gpu", "gpu")
    assert engine.stats.hits == 1
    assert engine.stats.accuracy == 1.0
    # second read of the same generation is not re-scored
    engine.on_read(region, "gpu", "gpu")
    assert engine.stats.predictions == 1


def test_misprediction_scored_and_counted(engine_setup):
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    engine.on_read(region, "display", "gpu")  # not the predicted reader
    assert engine.stats.misses == 1


def test_three_failures_suspend_flow(engine_setup):
    """§3.3: three consecutive prediction failures suspend prefetching."""
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    for _ in range(3):
        region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
        engine.launch(region, "codec", HOST_LOCATION)
        engine.on_read(region, "cpu", HOST_LOCATION)  # always wrong
        # keep the flow bound to codec->gpu by re-warming one cycle
        twin.on_write(1, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        twin.on_read(1, "gpu", "gpu", 12.0)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.suspended_skips >= 1


def test_suspension_expires_after_cooldown(engine_setup):
    sim, _m, twin, engine, _t = engine_setup
    engine.suspend_cooldown = 2
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    for _ in range(3):
        region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
        engine.launch(region, "codec", HOST_LOCATION)
        engine.on_read(region, "cpu", HOST_LOCATION)
        twin.on_write(1, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        twin.on_read(1, "gpu", "gpu", 12.0)
    launched_before = engine.stats.launched
    for _ in range(4):  # cooldown (2 skips) then re-enabled
        region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
        engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.launched > launched_before


def test_bandwidth_rule_suspends_prefetch(engine_setup):
    """§3.3: skip prefetch below 50% of the maximum observed bandwidth."""
    sim, machine, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)  # observes full bandwidth
    assert engine.stats.launched == 1
    machine.pcie.set_load(0.6)  # available drops to 40% of max observed
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.bandwidth_skips == 1
    assert engine.stats.launched == 1


def test_compensation_covers_short_slack(engine_setup):
    """Figure 8: slack 8 ms, prefetch 10 ms → driver owes ~2 ms."""
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6, slack=1.0)  # slack much shorter than copy
    region = SvmRegion(1, UHD_FRAME_BYTES)
    predicted = twin.predict_readers(1, "codec")
    # teach the physical layer the observed prefetch duration
    twin.note_prefetch_duration(predicted.pedge, 2.4)
    compensation = engine.predicted_compensation(region, "codec", HOST_LOCATION)
    assert compensation == pytest.approx(2.4 - 1.0, abs=0.05)


def test_no_compensation_when_slack_sufficient(engine_setup):
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6, slack=12.0)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    predicted = twin.predict_readers(1, "codec")
    twin.note_prefetch_duration(predicted.pedge, 2.4)
    assert engine.predicted_compensation(region, "codec", HOST_LOCATION) == 0.0


def test_zero_shot_new_region_gets_prefetched(engine_setup):
    """A fresh buffer joining a warm pipeline is prefetched immediately."""
    sim, _m, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1, cycles=5)
    twin.register_region(2)
    region2 = SvmRegion(2, UHD_FRAME_BYTES)
    region2.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region2, "codec", HOST_LOCATION)
    assert engine.stats.launched == 1
    assert region2.prefetch_targets == {"gpu"}


def _suspend_flow(twin, engine, region, slack=12.0):
    """Drive three mispredictions so the codec->gpu flow suspends."""
    for _ in range(3):
        region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
        engine.launch(region, "codec", HOST_LOCATION)
        engine.on_read(region, "cpu", HOST_LOCATION)  # always wrong
        twin.on_write(1, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        twin.on_read(1, "gpu", "gpu", slack)


@pytest.mark.parametrize("cooldown", [1, 3, 5])
def test_cooldown_skips_exactly_n_writes(engine_setup, cooldown):
    """Regression: a cooldown of N must skip exactly N writes — no more."""
    sim, _m, twin, engine, _t = engine_setup
    engine.suspend_cooldown = cooldown
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    _suspend_flow(twin, engine, region)

    skips_before = engine.stats.suspended_skips
    launched_before = engine.stats.launched
    outcomes = []
    for _ in range(cooldown + 2):
        skips = engine.stats.suspended_skips
        region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
        engine.launch(region, "codec", HOST_LOCATION)
        outcomes.append("skip" if engine.stats.suspended_skips > skips else "launch")
    assert outcomes == ["skip"] * cooldown + ["launch", "launch"]
    assert engine.stats.suspended_skips - skips_before == cooldown
    assert engine.stats.launched - launched_before == 2


def test_driver_and_host_agree_on_suspension(engine_setup):
    """The guest-driver check is read-only: it must not consume cooldown
    credits, and must return 0 compensation exactly while the host-side
    launch would skip the same write."""
    sim, _m, twin, engine, _t = engine_setup
    engine.suspend_cooldown = 1
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6, slack=1.0)  # slack short of the copy time
    region = SvmRegion(1, UHD_FRAME_BYTES)
    predicted = twin.predict_readers(1, "codec")
    twin.note_prefetch_duration(predicted.pedge, 2.4)
    # Not suspended: the driver owes real compensation.
    assert engine.predicted_compensation(region, "codec", HOST_LOCATION) > 0.0

    _suspend_flow(twin, engine, region, slack=1.0)

    # Suspended with one credit left. However often the driver asks, the
    # verdict must not change — the read is side-effect free.
    for _ in range(5):
        assert engine.predicted_compensation(region, "codec", HOST_LOCATION) == 0.0
    # The host-side launch for that same write consumes the single credit.
    skips = engine.stats.suspended_skips
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.suspended_skips == skips + 1
    # Cooldown spent: both sides flip back together on the next write.
    assert engine.predicted_compensation(region, "codec", HOST_LOCATION) > 0.0
    launched = engine.stats.launched
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    engine.launch(region, "codec", HOST_LOCATION)
    assert engine.stats.launched == launched + 1


def test_bandwidth_rule_under_bus_load_flapping(engine_setup):
    """§3.3 bandwidth rule driven by an injected flapping PCIe link:
    prefetch suspends on every high-load half-period and resumes on every
    low-load half-period."""
    from repro.faults import FaultInjector, FaultPlan

    sim, machine, twin, engine, _t = engine_setup
    twin.register_region(1)
    warm_flow(twin, 1, cycles=6)
    region = SvmRegion(1, UHD_FRAME_BYTES)

    # Load 0.6 leaves 40% of max observed bandwidth — below the 50% bar.
    plan = FaultPlan().flap_bus(
        "pcie", start_ms=10.0, period_ms=20.0, cycles=2, high_load=0.6
    )
    FaultInjector(sim, plan).install_buses([machine.pcie])

    outcomes = []

    def writer():
        from repro.sim import Timeout

        for _ in range(10):  # writes at t = 2, 7, ..., 47 ms
            yield Timeout(2.0 if not outcomes else 5.0)
            skips = engine.stats.bandwidth_skips
            region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
            engine.launch(region, "codec", HOST_LOCATION)
            outcomes.append(
                "skip" if engine.stats.bandwidth_skips > skips else "launch"
            )

    sim.spawn(writer(), name="writer")
    sim.run(until=60.0)
    # High-load windows are [10, 20) and [30, 40): exactly the writes at
    # t = 12, 17, 32, 37 get skipped; all others launch.
    assert outcomes == [
        "launch", "launch",          # t=2, 7
        "skip", "skip",              # t=12, 17  (flap high)
        "launch", "launch",          # t=22, 27  (flap low)
        "skip", "skip",              # t=32, 37  (flap high)
        "launch", "launch",          # t=42, 47  (flap low)
    ]
    assert engine.stats.bandwidth_skips == 4
