"""Unit tests for coherence protocols and the copy planner (repro.core.coherence)."""

import pytest

from repro.core.coherence import (
    CopyPlanner,
    GuestMemoryWriteInvalidate,
    UnifiedWriteInvalidate,
)
from repro.core.region import GUEST_LOCATION, HOST_LOCATION, SvmRegion
from repro.errors import ConfigurationError
from repro.hw import build_machine
from repro.metrics.collectors import maintenances
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import UHD_FRAME_BYTES


@pytest.fixture
def setup():
    sim = Simulator()
    machine = build_machine(sim)
    planner = CopyPlanner(sim, machine)
    trace = TraceLog(sim)
    return sim, machine, planner, trace


# --- CopyPlanner -------------------------------------------------------------

def test_same_location_needs_no_legs(setup):
    _sim, _m, planner, _t = setup
    assert planner.unified_legs("gpu", "gpu") == []
    assert planner.unified_legs(HOST_LOCATION, HOST_LOCATION) == []


def test_host_to_gpu_is_one_pcie_leg(setup):
    sim, machine, planner, _t = setup
    legs = planner.unified_legs(HOST_LOCATION, "gpu")
    assert legs == [machine.pcie]


def test_gpu_to_host_is_one_pcie_leg(setup):
    sim, machine, planner, _t = setup
    assert planner.unified_legs("gpu", HOST_LOCATION) == [machine.pcie]


def test_unknown_location_rejected(setup):
    _sim, _m, planner, _t = setup
    with pytest.raises(ConfigurationError):
        planner.unified_legs("fpga", HOST_LOCATION)


def test_estimate_matches_execution(setup):
    sim, _m, planner, _t = setup
    estimate = planner.estimate_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)

    def proc():
        return (yield from planner.copy_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(estimate)


def test_zero_copy_takes_zero_time(setup):
    sim, _m, planner, _t = setup

    def proc():
        return (yield from planner.copy_unified("gpu", "gpu", UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 0.0


def test_boundary_copy_uses_boundary_bus(setup):
    sim, machine, planner, _t = setup

    def proc():
        return (yield from planner.copy_via_boundary(UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(machine.boundary.transfer_time(UHD_FRAME_BYTES))


def test_vsoc_direct_path_beats_guest_memory_path(setup):
    """The architectural claim of §3.2: direct < double boundary crossing."""
    _sim, _m, planner, _t = setup
    direct = planner.estimate_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)
    guest_path = 2 * planner.estimate_boundary(UHD_FRAME_BYTES)
    assert direct < 0.5 * guest_path


# --- UnifiedWriteInvalidate ---------------------------------------------------

def test_write_invalidate_copies_at_read(setup):
    sim, _m, planner, trace = setup
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def read():
        return (yield from protocol.begin_access_read(region, "gpu", "gpu"))

    p = sim.spawn(read())
    sim.run()
    assert p.value > 2.0  # blocked for the pcie copy
    assert region.is_valid_at("gpu")
    assert len(maintenances(trace)) == 1


def test_write_invalidate_free_when_valid(setup):
    sim, _m, planner, trace = setup
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)

    def read():
        return (yield from protocol.begin_access_read(region, "display", "gpu"))

    p = sim.spawn(read())
    sim.run()
    assert p.value == 0.0
    assert len(maintenances(trace)) == 0


# --- GuestMemoryWriteInvalidate ----------------------------------------------

def run_guest_memory_cycle(sim, protocol, region, writer, reader, reader_loc):
    def cycle():
        yield from protocol.executor_after_write(region, writer, HOST_LOCATION)
        yield from protocol.executor_before_read(region, reader, reader_loc)

    proc = sim.spawn(cycle())
    sim.run()
    return proc


def test_guest_memory_two_crossings(setup):
    sim, machine, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    run_guest_memory_cycle(sim, protocol, region, "codec", "gpu", "gpu")
    copies = maintenances(trace)
    assert len(copies) == 1
    # flush + fetch: two boundary crossings of the frame (§2.2).
    expected = 2 * planner.estimate_boundary(UHD_FRAME_BYTES)
    assert copies[0]["duration"] == pytest.approx(expected, rel=0.05)


def test_guest_memory_isolates_virtual_devices(setup):
    """Same physical device, different virtual devices: still two
    crossings — the waste the unified framework eliminates (§3.2)."""
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)
    # display shares the physical GPU but is a distinct virtual device
    run_guest_memory_cycle(sim, protocol, region, "gpu", "display", "gpu")
    assert len(maintenances(trace)) == 1


def test_guest_memory_same_vdev_rereads_free(setup):
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "gpu", "gpu")
        yield from protocol.executor_before_read(region, "gpu", "gpu")
        yield from protocol.executor_before_read(region, "gpu", "gpu")

    sim.spawn(cycle())
    sim.run()
    assert len(maintenances(trace)) == 0  # writer rereads own data


def test_guest_memory_cpu_flush_is_free(setup):
    """Guest CPU writes land in guest memory directly — no crossing."""
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("cpu", HOST_LOCATION, UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "cpu", HOST_LOCATION)

    sim.spawn(cycle())
    sim.run()
    assert sim.now == 0.0
    assert region.is_valid_at(GUEST_LOCATION)


def test_guest_memory_cpu_read_is_free(setup):
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "codec", HOST_LOCATION)
        at_flush = sim.now
        yield from protocol.executor_before_read(region, "cpu", HOST_LOCATION)
        return sim.now - at_flush

    p = sim.spawn(cycle())
    sim.run()
    assert p.value == 0.0
