#!/usr/bin/env python3
"""Anatomy of one camera frame: every copy, on both architectures.

Traces a single camera→ISP→GPU→display frame through (a) the guest-memory
baseline and (b) vSoC's unified SVM framework, printing each coherence
event with its timing — the §3.2 example of 4 copies collapsing into 2
(and into 0 for GPU-internal handoffs).

Run:  python examples/camera_pipeline.py
"""

import random

from repro.emulators import make_gae, make_vsoc
from repro.hw import HIGH_END_DESKTOP, build_machine
from repro.metrics.collectors import maintenances
from repro.sim import Simulator, Timeout
from repro.units import UHD_DISPLAY_BUFFER_BYTES, UHD_FRAME_BYTES


def one_frame(emulator, sim):
    """Drive camera deliver → ISP convert → GPU render → display compose."""

    def frame():
        raw = emulator.svm_alloc(UHD_FRAME_BYTES)
        out = emulator.svm_alloc(UHD_FRAME_BYTES)
        fb = emulator.svm_alloc(UHD_DISPLAY_BUFFER_BYTES)
        # warm the hypergraphs with two frames, then trace the third
        for _ in range(3):
            deliver = yield from emulator.stage("camera", "deliver",
                                                UHD_FRAME_BYTES, writes=[raw])
            yield deliver.done
            convert = yield from emulator.stage("isp", emulator.convert_op(),
                                                UHD_FRAME_BYTES,
                                                reads=[raw], writes=[out])
            yield convert.done
            yield Timeout(8.0)  # slack until the compositor picks it up
            render = yield from emulator.stage("gpu", "render",
                                               UHD_DISPLAY_BUFFER_BYTES,
                                               reads=[out], writes=[fb])
            compose = yield from emulator.stage("display", "compose",
                                                UHD_DISPLAY_BUFFER_BYTES // 2,
                                                reads=[fb])
            yield compose.done
            yield Timeout(8.0)

    sim.spawn(frame(), name="camera-frame")
    sim.run(until=1_000.0)


def report(label, emulator, frames=3):
    events = maintenances(emulator.trace)
    flushes = emulator.trace.of_kind("coherence.flush")
    total = sum(e["duration"] for e in events)
    print(f"\n{label}")
    print(f"  coherence maintenances: {len(events)} "
          f"({len(flushes)} guest-memory flushes)")
    for e in events[-4:]:
        mib = e["bytes"] / (1 << 20)
        print(f"    t={e.end:8.2f} ms  {e['path']:<22s} {mib:5.1f} MiB "
              f"in {e['duration']:.2f} ms")
    print(f"  total copy time over {frames} frames: {total:.2f} ms")


def main() -> None:
    for label, factory in (("Guest-memory baseline (GAE-style)", make_gae),
                           ("vSoC unified SVM framework", make_vsoc)):
        sim = Simulator()
        machine = build_machine(sim, HIGH_END_DESKTOP)
        emulator = factory(sim, machine, rng=random.Random(0))
        one_frame(emulator, sim)
        report(label, emulator)

    print("\nThe unified framework's camera frame costs one host→GPU DMA "
          "(~2.4 ms, prefetched under slack); the modular baseline pays two "
          "boundary crossings per device handoff — and even GPU→display, "
          "which shares one physical GPU, round-trips through guest memory.")


if __name__ == "__main__":
    main()
