"""Advanced scenarios: multi-target prefetch, dynamic congestion, RW usage."""

import random

from repro.emulators import make_vsoc
from repro.hw import build_machine
from repro.hw.bus import Bus
from repro.hw.device import DeviceKind, OpCost, PhysicalDevice
from repro.hw.memory import MemoryPool
from repro.metrics.collectors import maintenances
from repro.sim import Simulator, Timeout
from repro.units import GIB, MIB, UHD_FRAME_BYTES, gb_per_s


def vsoc_with_npu(seed=0):
    """A vSoC instance with a ported NPU (second device-local location)."""
    sim = Simulator()
    machine = build_machine(sim)
    npu = PhysicalDevice(
        sim, "npu", DeviceKind.ISP,
        local_memory=MemoryPool("npu-mem", 4 * GIB),
        link=Bus(sim, "npu-link", gb_per_s(6.0), latency=0.01),
        op_costs={"infer": OpCost(fixed=2.0, bandwidth=gb_per_s(8.0))},
    )
    machine.add_device(npu)
    emulator = make_vsoc(sim, machine, rng=random.Random(seed))
    emulator.register_vdev("npu", npu)
    return sim, machine, emulator


def test_multi_target_prefetch_covers_both_readers():
    """A camera frame read by both the GPU and the NPU: the hyperedge has
    two destinations and the engine launches copies to both locations."""
    sim, machine, emulator = vsoc_with_npu()
    latencies = []

    def pipeline():
        region = emulator.svm_alloc(UHD_FRAME_BYTES)
        for _ in range(8):
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[region]
            )
            yield write.done
            yield Timeout(12.0)
            render = yield from emulator.stage(
                "gpu", "render", UHD_FRAME_BYTES, reads=[region]
            )
            infer = yield from emulator.stage(
                "npu", "infer", UHD_FRAME_BYTES, reads=[region]
            )
            latencies.append((render.access_latency, infer.access_latency))
            yield render.done
            yield infer.done

    sim.spawn(pipeline(), name="fanout")
    sim.run(until=3_000.0)

    region_edge = [e for e in emulator.twin.virtual.edges_from("camera")]
    assert any(e.destinations == frozenset({"gpu", "npu"}) for e in region_edge)
    # after warm-up both readers find their copies resident
    steady = latencies[3:]
    assert all(r < 1.0 and n < 1.0 for r, n in steady)
    assert emulator.engine.stats.accuracy == 1.0


def test_prefetch_suspends_and_resumes_under_congestion():
    """Mid-run PCIe congestion triggers the 50%-bandwidth rule; prefetch
    resumes once the bus recovers."""
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    phases = {"congested": None, "recovered": None}

    def pipeline():
        region = emulator.svm_alloc(UHD_FRAME_BYTES)
        for frame in range(40):
            if frame == 12:
                machine.pcie.set_load(0.6)  # available drops below 50% max
            if frame == 26:
                machine.pcie.set_load(0.0)
                phases["congested"] = emulator.engine.stats.bandwidth_skips
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[region]
            )
            yield write.done
            yield Timeout(12.0)
            read = yield from emulator.stage(
                "gpu", "render", UHD_FRAME_BYTES, reads=[region]
            )
            yield read.done
        phases["recovered"] = emulator.engine.stats.launched

    sim.spawn(pipeline(), name="congestion")
    sim.run(until=10_000.0)
    stats = emulator.engine.stats
    assert phases["congested"] and phases["congested"] >= 10
    assert stats.bandwidth_skips == phases["congested"]  # no skips after recovery
    assert stats.launched > 20  # prefetching resumed


def test_read_write_usage_invalidates_and_reads():
    """An RW access both requires coherence (read side) and becomes the
    new source of truth (write side)."""
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    state = {}

    def pipeline():
        region = emulator.svm_alloc(4 * MIB)
        write = yield from emulator.stage("camera", "deliver", 4 * MIB, writes=[region])
        yield write.done
        # in-place ISP processing: reads and writes the same region
        inplace = yield from emulator.stage(
            "isp", "convert", 4 * MIB, reads=[region], writes=[region]
        )
        yield inplace.done
        state["region"] = emulator.manager.get(region)

    sim.spawn(pipeline(), name="rw")
    sim.run()
    region = state["region"]
    assert region.last_writer_vdev == "isp"
    assert region.valid_locations == {"gpu"}  # ISP runs in-GPU on vSoC
    assert "isp" in region.writer_vdevs and "isp" in region.reader_vdevs


def test_window_narrowing_reduces_coherence_bytes():
    """A small dirty window keeps the coherence copy small (§7: emulators
    segment SVM by the API's dirty-region size)."""
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))

    def pipeline():
        region = emulator.svm_alloc(16 * MIB)
        for _ in range(4):  # warm the flow with small updates
            write = yield from emulator.stage(
                "camera", "deliver", MIB, writes=[region], dirty_bytes=MIB
            )
            yield write.done
            yield Timeout(12.0)
            read = yield from emulator.stage("gpu", "render", MIB, reads=[region])
            yield read.done

    sim.spawn(pipeline(), name="windowed")
    sim.run(until=1_000.0)
    copies = maintenances(emulator.trace)
    assert copies
    assert all(c["bytes"] == MIB for c in copies)
    assert all(c["duration"] < 0.5 for c in copies)  # 1 MiB, not 16
