"""Livestream apps (Table 1, row 5): NIC → codec → GPU → display.

RTMP playback over the LAN (the nginx server of §2.3): the modem/NIC vdev
receives bitstream chunks, the codec decodes them, SurfaceFlinger renders.
Motion-to-photon anchors at the server-side frame time (the §5.3 screen-
flash methodology), so it includes network latency and receive time.

Livestream apps initialize the encoder for their broadcast path, so an
emulator without any video encoder cannot run them — this is why Trinity's
livestream column in Figure 10 is empty.
"""

from __future__ import annotations

from repro.apps.base import App
from repro.emulators.base import Emulator
from repro.errors import CapabilityError
from repro.guest.buffers import BufferQueue
from repro.guest.services import FrameMeta, SurfaceFlinger
from repro.guest.vsync import VSyncSource
from repro.sim import FifoQueue, Simulator, Timeout
from repro.units import (
    MIB,
    UHD_DISPLAY_BUFFER_BYTES,
    UHD_FRAME_BYTES,
    VSYNC_PERIOD_MS,
)

#: 300 Mbps at 60 FPS → ~0.625 MB of bitstream per frame.
BITSTREAM_BYTES_PER_FRAME = int(0.625 * MIB)


class LivestreamApp(App):
    """An RTMP livestream viewer."""

    category = "Livestream"
    measures_latency = True

    def __init__(
        self,
        name: str = "livestream",
        buffers: int = 4,
        frame_bytes: int = UHD_FRAME_BYTES,
        bitstream_bytes: int = BITSTREAM_BYTES_PER_FRAME,
        network_latency_ms: float = 1.2,
        compose_dirty_fraction: float = 0.5,
        warmup_ms: float = 2_000.0,
    ):
        super().__init__(name, warmup_ms=warmup_ms)
        self.buffers = buffers
        self.frame_bytes = frame_bytes
        self.bitstream_bytes = bitstream_bytes
        self.network_latency_ms = network_latency_ms
        self.compose_dirty_fraction = compose_dirty_fraction
        self._stopped = False

    def check_capabilities(self, emulator: Emulator) -> None:
        if not emulator.supports_encoding():
            raise CapabilityError(
                f"{emulator.name} has no video encoder (RTMP apps require one)"
            )

    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        queue = BufferQueue(sim, emulator, self.buffers, self.frame_bytes, name=f"{self.name}.bq")
        flinger = SurfaceFlinger(
            sim,
            emulator,
            vsync,
            self.fps,
            latency=self.latency,
            display_bytes=UHD_DISPLAY_BUFFER_BYTES,
            compose_dirty_fraction=self.compose_dirty_fraction,
            honor_deadlines=False,  # live viewers show the freshest frame
        )
        # Shallow queues: RTMP players keep buffering minimal for liveness.
        wire: FifoQueue = FifoQueue(sim, capacity=3, name=f"{self.name}.wire")
        bitstream: FifoQueue = FifoQueue(sim, capacity=3, name=f"{self.name}.net")
        sim.spawn(flinger.run(), name=f"{self.name}:sf")
        sim.spawn(self._server(sim, emulator, wire), name=f"{self.name}:server")
        sim.spawn(self._receiver(sim, emulator, wire, bitstream), name=f"{self.name}:recv")
        sim.spawn(
            self._decoder(sim, emulator, bitstream, queue, flinger),
            name=f"{self.name}:decode",
        )

    def _server(self, sim: Simulator, emulator: Emulator, wire: FifoQueue):
        """Process: nginx emits one frame per period, with network jitter.

        The server's clock is not phase-locked to the client's VSync, and
        LAN delivery jitters by fractions of a millisecond to milliseconds.
        Each frame opens a causal-trace flow at the server (the §5.3
        screen-flash anchor), so attribution covers the network leg too.
        """
        import random

        rng = random.Random(f"{self.name}:server")
        sequence = 0
        yield Timeout(rng.uniform(0.0, VSYNC_PERIOD_MS))
        while not self._stopped:
            yield Timeout(VSYNC_PERIOD_MS * (1.0 + rng.uniform(-0.04, 0.04)))
            meta = FrameMeta(
                birth=sim.now,
                sequence=sequence,
                flow=emulator.trace.new_flow(),
            )
            if not wire.try_put(meta):
                self.fps.note_dropped("network-overrun")
            sequence += 1

    def _receiver(self, sim: Simulator, emulator: Emulator, wire: FifoQueue, bitstream: FifoQueue):
        """Process: NIC receive loop — overlaps with the server's pacing."""
        while not self._stopped:
            meta = yield wire.get()
            yield Timeout(self.network_latency_ms)
            result = yield from emulator.stage("modem", "recv", self.bitstream_bytes)
            yield result.done
            if not bitstream.try_put(meta):
                self.fps.note_dropped("network-overrun")

    def _decoder(self, sim, emulator, bitstream: FifoQueue, queue: BufferQueue, flinger):
        """Process: bitstream → decoded SVM buffer → SurfaceFlinger.

        Submission happens at the decode-complete callback (host
        retirement), matching MediaCodec semantics.
        """
        while not self._stopped:
            meta = yield bitstream.get()
            buffer = yield queue.dequeue_free()
            result = yield from emulator.stage(
                "codec", emulator.decode_op(), self.frame_bytes, writes=[buffer.region_id]
            )
            yield result.done
            flinger.submit(buffer, queue, meta)
