"""Unit tests for the SVM manager (repro.core.manager)."""

import pytest

from repro.core.coherence import CopyPlanner, UnifiedWriteInvalidate
from repro.core.manager import SvmManager
from repro.core.region import HOST_LOCATION, AccessUsage
from repro.core.twin import TwinHypergraphs
from repro.errors import SvmError, UnknownRegionError
from repro.hw import build_machine
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import MIB, UHD_FRAME_BYTES

VDEVS = ("codec", "gpu", "display", "cpu")


@pytest.fixture
def manager_setup():
    sim = Simulator()
    machine = build_machine(sim)
    planner = CopyPlanner(sim, machine)
    twin = TwinHypergraphs(VDEVS, [HOST_LOCATION, "gpu", "guest"])
    trace = TraceLog(sim)
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    pools = {HOST_LOCATION: machine.host_memory, "gpu": machine.gpu.local_memory,
             "guest": machine.guest_memory}
    manager = SvmManager(sim, twin, protocol, pools, trace, page_map_cost=0.22)
    return sim, machine, manager, trace


def test_alloc_assigns_unique_ids(manager_setup):
    _sim, _m, manager, _t = manager_setup
    ids = {manager.alloc(MIB) for _ in range(100)}
    assert len(ids) == 100
    assert manager.live_regions == 100


def test_free_releases_region(manager_setup):
    _sim, _m, manager, _t = manager_setup
    rid = manager.alloc(MIB)
    manager.free(rid)
    assert manager.live_regions == 0
    with pytest.raises(UnknownRegionError):
        manager.get(rid)


def test_free_with_open_access_rejected(manager_setup):
    sim, _m, manager, _t = manager_setup
    rid = manager.alloc(MIB)

    def proc():
        yield from manager.begin_access("gpu", rid, AccessUsage.READ, "gpu")

    sim.spawn(proc())
    sim.run()
    with pytest.raises(SvmError, match="open accesses"):
        manager.free(rid)


def test_begin_access_pays_page_map_cost(manager_setup):
    sim, _m, manager, _t = manager_setup
    rid = manager.alloc(MIB)

    def proc():
        return (yield from manager.begin_access("cpu", rid, AccessUsage.READ, HOST_LOCATION))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(0.22)


def test_lazy_backing_allocation(manager_setup):
    """§3.2: memory is allocated at first access, per location."""
    sim, machine, manager, _t = manager_setup
    vram_before = machine.gpu.local_memory.in_use
    rid = manager.alloc(UHD_FRAME_BYTES)
    assert machine.gpu.local_memory.in_use == vram_before  # nothing yet

    def proc():
        yield from manager.begin_access("gpu", rid, AccessUsage.READ, "gpu")
        manager.end_access("gpu", rid)

    sim.spawn(proc())
    sim.run()
    assert machine.gpu.local_memory.in_use == vram_before + UHD_FRAME_BYTES


def test_free_releases_backing(manager_setup):
    sim, machine, manager, _t = manager_setup
    rid = manager.alloc(UHD_FRAME_BYTES)

    def proc():
        yield from manager.begin_access("gpu", rid, AccessUsage.READ, "gpu")
        manager.end_access("gpu", rid)

    sim.spawn(proc())
    sim.run()
    used = machine.gpu.local_memory.in_use
    manager.free(rid)
    assert machine.gpu.local_memory.in_use == used - UHD_FRAME_BYTES


def test_write_retire_invalidates_and_timestamps(manager_setup):
    sim, _m, manager, _t = manager_setup
    rid = manager.alloc(MIB)

    def proc():
        yield from manager.host_write_retired(rid, "codec", HOST_LOCATION, MIB)

    sim.spawn(proc())
    sim.run(until=5.0)
    region = manager.get(rid)
    assert region.valid_locations == {HOST_LOCATION}
    assert region.write_complete_time == 0.0
    assert not region.write_in_flight


def test_slack_traced_on_read_after_write(manager_setup):
    sim, _m, manager, trace = manager_setup
    rid = manager.alloc(MIB)

    def proc():
        yield from manager.host_write_retired(rid, "codec", HOST_LOCATION, MIB)
        from repro.sim import Timeout
        yield Timeout(17.2)
        yield from manager.begin_access("gpu", rid, AccessUsage.READ, "gpu")
        manager.end_access("gpu", rid)

    sim.spawn(proc())
    sim.run()
    slacks = trace.values("svm.slack", "slack")
    assert len(slacks) == 1
    assert slacks[0] == pytest.approx(17.2)


def test_chain_reaction_rounds_to_vsync(manager_setup):
    """A >2 ms block on a render-thread access costs the rest of the frame."""
    sim, _m, manager, trace = manager_setup
    rid = manager.alloc(UHD_FRAME_BYTES)

    def proc():
        yield from manager.host_write_retired(rid, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        # gpu read triggers a synchronous write-invalidate copy (~2.4 ms > 2 ms)
        return (yield from manager.begin_access("gpu", rid, AccessUsage.READ, "gpu"))

    p = sim.spawn(proc())
    sim.run()
    assert manager.chain_reactions == 1
    # blocked + rounded up to the next 16.67 ms boundary
    assert sim.now == pytest.approx(16.67, abs=0.1)


def test_no_chain_reaction_for_worker_vdevs(manager_setup):
    sim, _m, manager, _t = manager_setup
    rid = manager.alloc(UHD_FRAME_BYTES)

    def proc():
        yield from manager.host_write_retired(rid, "codec", HOST_LOCATION, UHD_FRAME_BYTES)
        # cpu is a pipeline worker: absorbs the block without a deadline miss
        yield from manager.begin_access("cpu", rid, AccessUsage.READ, HOST_LOCATION)

    sim.spawn(proc())
    sim.run()
    assert manager.chain_reactions == 0


def test_memory_overhead_scales_with_regions(manager_setup):
    _sim, _m, manager, _t = manager_setup
    base = manager.memory_overhead_bytes()
    for _ in range(100):
        manager.alloc(MIB)
    assert manager.memory_overhead_bytes() > base
    assert manager.memory_overhead_bytes() < 3.1 * MIB


def test_unknown_region_raises(manager_setup):
    _sim, _m, manager, _t = manager_setup
    with pytest.raises(UnknownRegionError):
        manager.get(12345)
    with pytest.raises(UnknownRegionError):
        manager.free(12345)
