#!/usr/bin/env python3
"""Porting a new virtual device into the SVM framework (§6).

The paper's porting recipe for a virtual device: provide a handle
representation of its memory, feed its SVM usage into the hypergraphs, add
prefetch/fence commands after accesses, and provide copy paths. With this
library, ``Emulator.register_vdev`` does all four — here we add a virtual
**NPU** (neural accelerator) that consumes camera frames, and watch the
prefetch engine learn its flow with zero changes to the core.

Run:  python examples/porting_new_device.py
"""

import random

from repro.emulators import make_vsoc
from repro.hw import HIGH_END_DESKTOP, build_machine
from repro.hw.device import DeviceKind, OpCost, PhysicalDevice
from repro.metrics.collectors import maintenances
from repro.sim import Simulator, Timeout
from repro.units import UHD_FRAME_BYTES, gb_per_s


def main() -> None:
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)

    # 1. A physical NPU: its own local memory and PCIe link, one op.
    from repro.hw.memory import MemoryPool
    from repro.hw.bus import Bus

    npu_memory = MemoryPool("npu-mem", 4 << 30)
    npu_link = Bus(sim, "npu-pcie", gb_per_s(6.0), latency=0.01)
    npu = PhysicalDevice(
        sim, "npu", DeviceKind.ISP,  # closest existing kind
        local_memory=npu_memory, link=npu_link,
        op_costs={"infer": OpCost(fixed=3.0, bandwidth=gb_per_s(8.0))},
    )
    machine.add_device(npu)

    # 2. Port it into a running vSoC instance as a virtual device.
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    emulator.register_vdev("npu", npu)

    # 3. Drive a camera → NPU inference pipeline. No other changes: the
    #    twin hypergraphs learn the flow, prefetch starts covering it.
    read_latencies = []

    def pipeline():
        region = emulator.svm_alloc(UHD_FRAME_BYTES)
        for _ in range(30):
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[region]
            )
            yield write.done
            yield Timeout(12.0)
            infer = yield from emulator.stage(
                "npu", "infer", UHD_FRAME_BYTES, reads=[region]
            )
            read_latencies.append(infer.access_latency)
            yield infer.done

    sim.spawn(pipeline(), name="npu-pipeline")
    sim.run(until=3_000.0)

    stats = emulator.engine.stats
    prefetched = [
        r for r in maintenances(emulator.trace)
        if r["path"] == "prefetch"
    ]
    print("Ported virtual NPU into vSoC (camera → NPU pipeline, 30 frames)")
    print(f"  NPU data location      : {emulator.vdev_location('npu')}")
    print(f"  prefetches to the NPU  : {len(prefetched)} "
          f"(host → npu over its own PCIe link)")
    print(f"  prediction accuracy    : {100 * stats.accuracy:.1f}%")
    print(f"  NPU read access latency: cold {read_latencies[0]:.2f} ms → "
          f"steady {sum(read_latencies[5:]) / len(read_latencies[5:]):.2f} ms")


if __name__ == "__main__":
    main()
