"""Unit tests for the shared-memory HAL and virtio transport (repro.guest)."""

import random

import pytest

from repro.core.region import AccessUsage
from repro.emulators import make_vsoc
from repro.errors import ConfigurationError
from repro.guest import SharedMemoryHal, VirtioTransport
from repro.hw import build_machine
from repro.sim import Simulator
from repro.units import MIB


@pytest.fixture
def hal_setup():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    return sim, emulator, SharedMemoryHal(emulator)


# --- SharedMemoryHal (the Figure 3 interface) --------------------------------

def test_alloc_returns_handle(hal_setup):
    _sim, emulator, hal = hal_setup
    handle = hal.alloc(MIB)
    assert emulator.manager.get(handle).size == MIB
    hal.free(handle)
    assert emulator.manager.live_regions == 0


def test_begin_end_access_bracket(hal_setup):
    sim, emulator, hal = hal_setup
    handle = hal.alloc(MIB)

    def proc():
        latency = yield from hal.begin_access(handle, AccessUsage.READ)
        hal.end_access(handle)
        return latency

    p = sim.spawn(proc())
    sim.run()
    assert p.value >= 0.22  # at least the page-map cost
    assert emulator.manager.get(handle).open_accessors == set()


def test_dirty_window_narrows_access(hal_setup):
    sim, emulator, hal = hal_setup
    handle = hal.alloc(4 * MIB)

    def proc():
        yield from hal.begin_access(handle, AccessUsage.WRITE, nbytes=MIB)
        hal.end_access(handle)

    sim.spawn(proc())
    sim.run()
    records = emulator.trace.of_kind("svm.begin_access")
    assert records[-1]["bytes"] == MIB


def test_api_call_counting(hal_setup):
    sim, _emulator, hal = hal_setup
    handle = hal.alloc(MIB)

    def proc():
        yield from hal.write_cycle(handle)
        yield from hal.read_cycle(handle)

    sim.spawn(proc())
    sim.run()
    # alloc + (begin+end) * 2 cycles = 5
    assert hal.api_calls == 5


def test_write_cycle_makes_data_coherent_at_host(hal_setup):
    sim, emulator, hal = hal_setup
    handle = hal.alloc(MIB)

    def proc():
        yield from hal.write_cycle(handle)

    sim.spawn(proc())
    sim.run()
    region = emulator.manager.get(handle)
    assert region.last_writer_vdev == "cpu"


# --- VirtioTransport ----------------------------------------------------------

def test_transport_batching_amortizes_kick():
    sim = Simulator()
    transport = VirtioTransport(sim, kick_cost=0.02, per_command_cost=0.005)
    single = transport.dispatch_cost(1)
    batched = transport.dispatch_cost(8) / 8
    assert batched < single


def test_transport_kick_advances_clock():
    sim = Simulator()
    transport = VirtioTransport(sim, kick_cost=0.02, per_command_cost=0.005)

    def proc():
        return (yield from transport.kick(4))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(0.02 + 4 * 0.005)
    assert sim.now == pytest.approx(p.value)
    assert transport.kicks == 1
    assert transport.commands == 4


def test_transport_amortized_cost():
    sim = Simulator()
    transport = VirtioTransport(sim, kick_cost=0.1, per_command_cost=0.0)

    def proc():
        yield from transport.kick(10)

    sim.spawn(proc())
    sim.run()
    assert transport.amortized_cost == pytest.approx(0.01)


def test_transport_invalid_params_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        VirtioTransport(sim, kick_cost=-1.0)
    transport = VirtioTransport(sim)
    with pytest.raises(ConfigurationError):
        transport.dispatch_cost(0)
