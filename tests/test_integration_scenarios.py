"""Cross-cutting integration scenarios.

These exercise interactions no single-module test reaches: multiple apps
sharing one emulator, fence-table churn under sustained load, flow-control
back-pressure, region lifecycle churn, and full-run determinism.
"""

import random

import pytest

from repro.apps import CameraApp, PopularApp, UhdVideoApp
from repro.emulators import make_vsoc
from repro.guest.vsync import VSyncSource
from repro.hw import build_machine
from repro.sim import Simulator
from repro.units import MIB, UHD_FRAME_BYTES


def fresh(factory=make_vsoc, seed=0):
    sim = Simulator()
    machine = build_machine(sim)
    return sim, factory(sim, machine, rng=random.Random(seed))


def test_two_apps_share_one_emulator():
    """A video app and a camera app running concurrently on one vSoC
    instance: both pipelines coexist, each flow predicted separately."""
    sim, emulator = fresh()
    video = UhdVideoApp(name="bg-video")
    camera = CameraApp(name="fg-camera")
    vsync = VSyncSource(sim)
    video.build(sim, emulator, vsync)
    camera.build(sim, emulator, vsync)
    sim.run(until=6_000.0)
    assert video.fps.fps(6_000.0, warmup_ms=2_000.0) > 40.0
    assert camera.fps.fps(6_000.0, warmup_ms=2_000.0) > 40.0
    # distinct flows learned: codec->gpu and camera->isp(+...) at least
    assert len(emulator.twin.virtual) >= 2
    assert emulator.engine.stats.accuracy >= 0.98


def test_fence_table_sustains_long_runs():
    """A 60 s video run allocates thousands of fences into a 512-slot
    page: recycling must keep up and never leak indices."""
    from repro.apps import UhdVideoApp
    from repro.experiments.runner import run_app

    run = run_app(UhdVideoApp(), "vSoC", duration_ms=60_000.0)
    table = run.emulator.fence_table
    assert table.allocated_total > 2_000
    assert table.recycled_total > table.allocated_total - table.capacity - 1
    assert table.live_fences <= table.capacity


def test_flow_control_throttles_runaway_guest():
    """A guest dispatching as fast as it can must be paced by MIMD flow
    control rather than growing the host queue without bound."""
    sim, emulator = fresh()
    dispatched = []

    def firehose():
        rid = emulator.svm_alloc(MIB)
        for _ in range(400):
            yield from emulator.stage("gpu", "render", 50 * MIB, writes=[rid])
            dispatched.append(sim.now)

    sim.spawn(firehose(), name="firehose")
    sim.run(until=3_000.0)
    gpu = emulator._vdevs["gpu"]
    assert gpu.flow.throttle_events > 0
    assert len(gpu.queue) <= emulator.config.command_queue_depth


def test_region_churn_allocation_free_cycles():
    """Alloc/use/free churn: no leaks in pools or the twin hashtable."""
    sim, emulator = fresh()
    machine_pool = emulator.machine.host_memory
    base_in_use = machine_pool.in_use

    def churn():
        for round_index in range(50):
            rid = emulator.svm_alloc(UHD_FRAME_BYTES)
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[rid]
            )
            yield write.done
            read = yield from emulator.stage(
                "gpu", "render", UHD_FRAME_BYTES, reads=[rid]
            )
            yield read.done
            emulator.svm_free(rid)

    sim.spawn(churn(), name="churn")
    sim.run(until=30_000.0)
    assert emulator.manager.live_regions == 0
    assert emulator.twin.tracked_regions == 0
    assert machine_pool.in_use == base_in_use


def test_double_free_rejected_through_emulator():
    _sim, emulator = fresh()
    rid = emulator.svm_alloc(MIB)
    emulator.svm_free(rid)
    with pytest.raises(Exception):
        emulator.svm_free(rid)


def test_stage_rejects_freed_region():
    sim, emulator = fresh()
    rid = emulator.svm_alloc(MIB)
    emulator.svm_free(rid)

    def app():
        yield from emulator.stage("gpu", "render", MIB, reads=[rid])

    sim.spawn(app(), name="bad")
    with pytest.raises(Exception):
        sim.run()


def test_full_app_run_is_bitwise_deterministic():
    """Same seeds → identical traces, down to every access latency."""

    def collect():
        sim, emulator = fresh(seed=11)
        app = PopularApp(name="det-check")
        app.install(sim, emulator)
        sim.run(until=4_000.0)
        return (
            tuple(app.fps.present_times),
            tuple(emulator.trace.values("svm.begin_access", "latency")),
        )

    assert collect() == collect()


def test_emulators_do_not_share_state():
    """Two emulator instances on separate sims are fully independent."""
    sim_a, emu_a = fresh(seed=1)
    sim_b, emu_b = fresh(seed=2)
    rid_a = emu_a.svm_alloc(MIB)
    assert emu_a.manager.live_regions == 1
    assert emu_b.manager.live_regions == 0
    with pytest.raises(Exception):
        emu_b.manager.get(rid_a)
