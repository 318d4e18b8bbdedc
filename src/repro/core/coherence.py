"""Coherence protocols and the copy-path planner.

Coherence maintenance is data copying that makes a reader's location hold
the newest bytes (§2.2). Three protocols are implemented:

* :class:`UnifiedPrefetchProtocol` — vSoC's protocol (§3.3): copies run on
  the shortest host-side path, launched *ahead of time* by the prefetch
  engine at write retirement, so reads find data already resident.
* :class:`UnifiedWriteInvalidate` — the §5.4 ablation: same direct copy
  paths, but lazily at ``begin_access`` and necessarily synchronous with
  host execution (the classic write-invalidate protocol [36]).
* :class:`GuestMemoryWriteInvalidate` — the baseline architecture of §2.2
  (GAE, QEMU-KVM): every maintenance round-trips through guest memory,
  costing two crossings of the virtualization boundary.

The :class:`CopyPlanner` knows the machine topology and picks the legs of a
copy: nothing for co-located data (the in-GPU zero-copy special case of
§3.2), one bus for host↔device, two for device↔device.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.core.degradation import (
    LEVEL_GUEST_ROUNDTRIP,
    LEVEL_NAMES,
    DegradationController,
)
from repro.core.region import GUEST_LOCATION, HOST_LOCATION, SvmRegion
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DegradedModeError,
    TransientCopyError,
)
from repro.hw.bus import Bus
from repro.hw.machine import HostMachine
from repro.obs import DISABLED, Observability
from repro.sim import RetryPolicy, Simulator, retrying, with_deadline
from repro.sim.tracing import TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.prefetch import PrefetchEngine

#: Default retry schedule for coherence copies: three tries with a short,
#: steep backoff — a coherence copy sits on the access-latency critical
#: path, so waiting long before retrying is worse than failing over.
COPY_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_ms=0.05, multiplier=4.0, max_delay_ms=2.0
)

#: Exceptions a coherence copy may survive via retry or degradation.
RECOVERABLE_COPY_ERRORS = (TransientCopyError, DeadlineExceededError)


class CopyPlanner:
    """Plans and executes coherence copies over the host topology.

    The ``*_resilient`` variants wrap the plain copy processes in the
    retry/watchdog machinery from :mod:`repro.sim.resilience`:

    * each attempt is retried per ``retry_policy`` on transient faults;
    * when ``watchdog_margin`` is set, each attempt must finish within
      ``margin × queueing-free-estimate`` or it counts as failed (the
      orphaned transfer still drains its bus).

    ``watchdog_margin`` defaults to ``None`` (disabled) so fault-free
    benchmarks keep their exact timing; the chaos harness enables it.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: HostMachine,
        boundary: Optional[Bus] = None,
        retry_policy: RetryPolicy = COPY_RETRY_POLICY,
        watchdog_margin: Optional[float] = None,
        trace: Optional[TraceLog] = None,
    ):
        if watchdog_margin is not None and watchdog_margin <= 1.0:
            raise ConfigurationError(
                f"watchdog_margin must be > 1 (a multiple of the estimate), "
                f"got {watchdog_margin}"
            )
        self._sim = sim
        self._machine = machine
        self.boundary = boundary if boundary is not None else machine.boundary
        self.retry_policy = retry_policy
        self.watchdog_margin = watchdog_margin
        self.trace = trace
        self.copy_retries = 0
        self.copy_failures = 0
        self.watchdog_expiries = 0
        self._links: Dict[str, Bus] = {}
        for device in machine.devices.values():
            if device.local_memory is not None:
                if device.link is None:
                    raise ConfigurationError(
                        f"device {device.name!r} has local memory but no bus link"
                    )
                self._links[device.name] = device.link

    # -- unified (vSoC) paths -------------------------------------------------
    def unified_legs(self, src: str, dst: str) -> List[Bus]:
        """Buses a direct host-side copy must traverse (may be empty)."""
        if src == dst:
            return []
        legs: List[Bus] = []
        if src != HOST_LOCATION:
            legs.append(self._link(src))
        if dst != HOST_LOCATION:
            legs.append(self._link(dst))
        return legs

    def estimate_unified(self, src: str, dst: str, nbytes: int) -> float:
        """Queueing-free time estimate for a direct copy (cold-start path)."""
        return sum(bus.transfer_time(nbytes) for bus in self.unified_legs(src, dst))

    def copy_unified(self, src: str, dst: str, nbytes: int) -> Generator[Any, Any, float]:
        """Process: perform a direct copy; returns elapsed ms."""
        start = self._sim.now
        for bus in self.unified_legs(src, dst):
            yield from bus.transfer(nbytes)
        return self._sim.now - start

    # -- guest-memory (baseline) paths -------------------------------------------
    def copy_via_boundary(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: one crossing of the virtualization boundary.

        The boundary bus's bandwidth is an *effective* figure calibrated to
        include the device-side leg (see :mod:`repro.hw.machine`), so a
        full baseline maintenance is exactly two of these.
        """
        start = self._sim.now
        yield from self.boundary.transfer(nbytes)
        return self._sim.now - start

    def estimate_boundary(self, nbytes: int) -> float:
        return self.boundary.transfer_time(nbytes)

    def copy_boundary_roundtrip(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: the full legacy 4-copy path — two boundary crossings.

        This is the deepest degradation rung: flush to guest memory, then
        fetch back out. Twice the boundary cost, but no dependence on the
        direct device links that keep faulting.
        """
        start = self._sim.now
        yield from self.boundary.transfer(nbytes)
        yield from self.boundary.transfer(nbytes)
        return self._sim.now - start

    def estimate_roundtrip(self, nbytes: int) -> float:
        return 2 * self.boundary.transfer_time(nbytes)

    # -- resilient variants --------------------------------------------------
    def copy_unified_resilient(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Any, Any, float]:
        """Process: :meth:`copy_unified` with retries and optional watchdog."""
        return (
            yield from self._resilient(
                lambda: self.copy_unified(src, dst, nbytes),
                self.estimate_unified(src, dst, nbytes),
                f"copy:{src}->{dst}",
            )
        )

    def copy_via_boundary_resilient(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: :meth:`copy_via_boundary` with retries and optional watchdog."""
        return (
            yield from self._resilient(
                lambda: self.copy_via_boundary(nbytes),
                self.estimate_boundary(nbytes),
                "copy:boundary",
            )
        )

    def copy_roundtrip_resilient(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: :meth:`copy_boundary_roundtrip` with retries/watchdog."""
        return (
            yield from self._resilient(
                lambda: self.copy_boundary_roundtrip(nbytes),
                self.estimate_roundtrip(nbytes),
                "copy:roundtrip",
            )
        )

    def _resilient(
        self,
        factory: Callable[[], Generator[Any, Any, float]],
        estimate: float,
        label: str,
    ) -> Generator[Any, Any, float]:
        """Retry ``factory`` per policy; watchdog each attempt when enabled."""
        if self.watchdog_margin is not None and estimate > 0:
            deadline = self.watchdog_margin * estimate + 1.0
            attempt = factory

            def factory() -> Generator[Any, Any, float]:
                try:
                    return (
                        yield from with_deadline(
                            self._sim, attempt(), deadline, name=label
                        )
                    )
                except DeadlineExceededError:
                    self.watchdog_expiries += 1
                    raise

        def on_retry(failures: int, exc: BaseException) -> None:
            self.copy_retries += 1

        try:
            return (
                yield from retrying(
                    self._sim,
                    factory,
                    self.retry_policy,
                    retry_on=RECOVERABLE_COPY_ERRORS,
                    name=label,
                    trace=self.trace,
                    on_retry=on_retry,
                )
            )
        except RECOVERABLE_COPY_ERRORS:
            self.copy_failures += 1
            raise

    # -- helpers -------------------------------------------------------------
    def _link(self, location: str) -> Bus:
        try:
            return self._links[location]
        except KeyError:
            raise ConfigurationError(f"no bus link for location {location!r}") from None

    def known_locations(self) -> List[str]:
        return [HOST_LOCATION, *sorted(self._links)]


class CoherenceProtocol:
    """Hook interface the SVM manager and host executors drive.

    Hooks are generators so implementations can block (bus transfers,
    waiting for fences). The manager guarantees the calling context:

    * :meth:`begin_access_read` — guest driver context, inside
      ``begin_access``; its elapsed time **is** the access latency the
      paper measures.
    * :meth:`executor_after_write` — host executor, right after a write
      op retires (before its signal fence fires).
    * :meth:`executor_before_read` — host executor, after the wait fence
      and before the read op; the correctness net for data that guest-side
      logic did not wait for.
    * :meth:`write_compensation` — guest driver, after dispatching a
      write; returns ms the driver must keep blocking (the adaptive
      synchronism of §3.3).
    """

    name = "abstract"

    def begin_access_read(
        self, region: SvmRegion, reader_vdev: str, reader_loc: str
    ) -> Generator[Any, Any, float]:
        raise NotImplementedError  # pragma: no cover - interface
        yield  # pragma: no cover

    def executor_after_write(
        self, region: SvmRegion, writer_vdev: str, writer_loc: str
    ) -> Generator[Any, Any, None]:
        raise NotImplementedError  # pragma: no cover - interface
        yield  # pragma: no cover

    def executor_before_read(
        self, region: SvmRegion, reader_vdev: str, reader_loc: str
    ) -> Generator[Any, Any, None]:
        raise NotImplementedError  # pragma: no cover - interface
        yield  # pragma: no cover

    def write_compensation(self, region: SvmRegion) -> float:
        """Extra blocking (ms) the guest driver owes after a write. 0 here."""
        return 0.0


class UnifiedPrefetchProtocol(CoherenceProtocol):
    """vSoC's protocol: direct paths + ahead-of-time copies (§3.3).

    With a :class:`~repro.core.degradation.DegradationController` attached,
    synchronous maintenance consults the degradation ladder: level 0/1 use
    the direct unified path (retried), level 2 falls back to the 4-copy
    guest-memory round-trip. Repeated failures escalate; successes at a
    probe level restore. Without a controller the behavior is byte-for-byte
    the pre-fault-model protocol.
    """

    name = "unified-prefetch"

    #: Hard cap on ladder rounds inside one maintenance call — with a
    #: 3-level ladder and 3 failures per escalation, 12 covers the worst
    #: legal walk with margin; past it something is wedged for good.
    MAX_MAINTENANCE_ROUNDS = 12

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        engine: "PrefetchEngine",
        trace: TraceLog,
        degradation: Optional[DegradationController] = None,
        obs: Optional[Observability] = None,
    ):
        self._sim = sim
        self._planner = planner
        self._engine = engine
        self._trace = trace
        self._obs = obs if obs is not None else DISABLED
        self.degradation = degradation
        self.sync_misses = 0
        self.prefetch_joins = 0
        self.degraded_copies = 0

    def _maintain(self, region, reader_loc, path_tag):
        """Process: synchronous maintenance, walking the degradation ladder.

        Tries the level :meth:`DegradationController.plan_level` plans
        (direct unified copy below level 2, guest-memory round-trip at
        level 2), reporting each outcome so the controller can escalate or
        restore. Only gives up — :class:`DegradedModeError` — when even the
        round-trip path keeps failing.
        """
        src = region.last_writer_location or HOST_LOCATION
        span = self._trace.begin(
            "coherence.copy", "coherence", cat="coherence", flow=region.flow,
            region=region.region_id, bytes=region.dirty_bytes,
        )
        for _ in range(self.MAX_MAINTENANCE_ROUNDS):
            ctl = self.degradation
            level = ctl.plan_level() if ctl is not None else 0
            try:
                if level >= LEVEL_GUEST_ROUNDTRIP:
                    self.degraded_copies += 1
                    duration = yield from self._planner.copy_roundtrip_resilient(
                        region.dirty_bytes
                    )
                    region.note_copy(GUEST_LOCATION)
                    tag = f"{path_tag}-degraded"
                else:
                    duration = yield from self._planner.copy_unified_resilient(
                        src, reader_loc, region.dirty_bytes
                    )
                    tag = path_tag
            except RECOVERABLE_COPY_ERRORS as err:
                if ctl is None:
                    raise
                ctl.note_failure(level, reason=type(err).__name__)
                if level >= LEVEL_GUEST_ROUNDTRIP:
                    self._trace.end(span, path="failed")
                    raise DegradedModeError(
                        f"region {region.region_id}: maintenance failed even on "
                        f"the {LEVEL_NAMES[LEVEL_GUEST_ROUNDTRIP]} path"
                    ) from err
                continue
            if ctl is not None:
                ctl.note_success(level)
            region.note_copy(reader_loc)
            self._obs.registry.histogram("coherence.duration_ms", path=tag).observe(duration)
            self._trace.end(span, path=tag, duration=duration)
            return duration
        self._trace.end(span, path="failed")
        raise DegradedModeError(
            f"region {region.region_id}: maintenance did not converge within "
            f"{self.MAX_MAINTENANCE_ROUNDS} ladder rounds"
        )

    def begin_access_read(self, region, reader_vdev, reader_loc):
        """Block until coherent at the reader — near zero after a good prefetch."""
        start = self._sim.now
        if (
            region.write_in_flight
            and region.write_fence is not None
            and region.pending_writer_location != reader_loc
        ):
            # The newest data is still being produced *somewhere else*;
            # a coherence copy needs it finalized first. (Co-located
            # readers don't wait here — command fences order them on the
            # device itself, the weak-state case of §3.4.)
            yield region.write_fence.wait()
        if not region.is_valid_at(reader_loc):
            prefetch = region.pending_prefetch
            if prefetch is not None and reader_loc in region.prefetch_targets:
                self.prefetch_joins += 1
                yield prefetch  # join the in-flight ahead-of-time copy
            if not region.is_valid_at(reader_loc):
                # Misprediction, suspension, or a prefetch that died on a
                # transient fault: synchronous maintenance.
                self.sync_misses += 1
                yield from self._maintain(region, reader_loc, "sync-miss")
        return self._sim.now - start

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Launch the ahead-of-time copy; never blocks the executor."""
        self._engine.launch(region, writer_vdev, writer_loc)
        return
        yield  # pragma: no cover - generator form required by the interface

    def executor_before_read(self, region, reader_vdev, reader_loc):
        """Safety net: ensure residency before the device touches the data."""
        if not region.is_valid_at(reader_loc):
            prefetch = region.pending_prefetch
            if prefetch is not None and reader_loc in region.prefetch_targets:
                yield prefetch
            if not region.is_valid_at(reader_loc):
                yield from self._maintain(region, reader_loc, "executor-miss")

    def write_compensation(self, region: SvmRegion) -> float:
        """The engine computed this at launch time (§3.3's time delta)."""
        return region.pending_compensation


class UnifiedWriteInvalidate(CoherenceProtocol):
    """The §5.4 ablation: direct paths, but lazy and synchronous.

    Memory is updated at the beginning of each SVM access; coherence needs
    synchronous guest-host execution, so ``begin_access`` first waits out
    the producing write — the source of the chain reaction in Figure 16.
    """

    name = "unified-write-invalidate"

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        trace: TraceLog,
        obs: Optional[Observability] = None,
    ):
        self._sim = sim
        self._planner = planner
        self._trace = trace
        self._obs = obs if obs is not None else DISABLED

    def begin_access_read(self, region, reader_vdev, reader_loc):
        start = self._sim.now
        if (
            region.write_in_flight
            and region.write_fence is not None
            and region.pending_writer_location != reader_loc
        ):
            yield region.write_fence.wait()
        if not region.is_valid_at(reader_loc):
            span = self._trace.begin(
                "coherence.copy", "coherence", cat="coherence", flow=region.flow,
                region=region.region_id, bytes=region.dirty_bytes,
            )
            duration = yield from self._planner.copy_unified_resilient(
                region.last_writer_location or HOST_LOCATION,
                reader_loc,
                region.dirty_bytes,
            )
            region.note_copy(reader_loc)
            self._obs.registry.histogram(
                "coherence.duration_ms", path="write-invalidate"
            ).observe(duration)
            self._trace.end(span, path="write-invalidate", duration=duration)
        return self._sim.now - start

    def executor_after_write(self, region, writer_vdev, writer_loc):
        return
        yield  # pragma: no cover - generator form required by the interface

    def executor_before_read(self, region, reader_vdev, reader_loc):
        if not region.is_valid_at(reader_loc):
            span = self._trace.begin(
                "coherence.copy", "coherence", cat="coherence", flow=region.flow,
                region=region.region_id, bytes=region.dirty_bytes,
            )
            duration = yield from self._planner.copy_unified_resilient(
                region.last_writer_location or HOST_LOCATION,
                reader_loc,
                region.dirty_bytes,
            )
            region.note_copy(reader_loc)
            self._obs.registry.histogram(
                "coherence.duration_ms", path="write-invalidate-net"
            ).observe(duration)
            self._trace.end(span, path="write-invalidate-net", duration=duration)


class UnifiedBroadcast(CoherenceProtocol):
    """A classical broadcast protocol over the unified framework (§7).

    At every write retirement, the new data is pushed to *every* location —
    no prediction needed, reads never block. The related-work section
    dismisses broadcast for mobile emulation because of its bandwidth
    overhead; this implementation exists to quantify that: framebuffers
    get pushed GPU→host although nothing ever reads them there, CPU
    scratch regions get pushed host→GPU, and so on. Compare bus
    ``bytes_moved`` against the prefetch protocol's.
    """

    name = "unified-broadcast"

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        trace: TraceLog,
        obs: Optional[Observability] = None,
    ):
        self._sim = sim
        self._planner = planner
        self._trace = trace
        self._obs = obs if obs is not None else DISABLED
        self.broadcast_copies = 0
        self.broadcast_failures = 0

    def _targets(self, writer_loc: str):
        return [
            loc for loc in self._planner.known_locations()
            if loc not in (writer_loc, GUEST_LOCATION)
        ]

    def begin_access_read(self, region, reader_vdev, reader_loc):
        start = self._sim.now
        if (
            region.write_in_flight
            and region.write_fence is not None
            and region.pending_writer_location != reader_loc
        ):
            yield region.write_fence.wait()
        if not region.is_valid_at(reader_loc):
            prefetch = region.pending_prefetch
            if prefetch is not None and reader_loc in region.prefetch_targets:
                yield prefetch  # join the in-flight broadcast
            if not region.is_valid_at(reader_loc):  # miss, or the push failed
                span = self._trace.begin(
                    "coherence.copy", "coherence", cat="coherence", flow=region.flow,
                    region=region.region_id, bytes=region.dirty_bytes,
                )
                duration = yield from self._planner.copy_unified_resilient(
                    region.last_writer_location or HOST_LOCATION,
                    reader_loc,
                    region.dirty_bytes,
                )
                region.note_copy(reader_loc)
                self._trace.end(span, path="broadcast-miss", duration=duration)
        return self._sim.now - start

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Push the dirty data everywhere, asynchronously."""
        targets = self._targets(writer_loc)
        if not targets:
            return
        copies = []
        for target in targets:
            copies.append(self._sim.spawn(
                self._push(region, writer_loc, target),
                name=f"broadcast:r{region.region_id}->{target}",
            ))
        region.prefetch_targets = set(targets)
        if len(copies) == 1:
            region.pending_prefetch = copies[0]
        else:
            region.pending_prefetch = self._sim.spawn(
                self._join(copies), name=f"broadcast:r{region.region_id}:join"
            )
        return
        yield  # pragma: no cover - generator form required by the interface

    def _push(self, region, src, dst):
        span = self._trace.begin(
            "coherence.copy", "coherence", cat="coherence", flow=region.flow,
            region=region.region_id, bytes=region.dirty_bytes, dst=dst,
        )
        try:
            duration = yield from self._planner.copy_unified_resilient(
                src, dst, region.dirty_bytes
            )
        except RECOVERABLE_COPY_ERRORS as err:
            # A failed push only costs bandwidth savings: the reader-side
            # safety net re-copies on demand. Never poison the joiners.
            self.broadcast_failures += 1
            self._trace.end(span, path="broadcast", failed=type(err).__name__)
            return 0.0
        region.note_copy(dst)
        self.broadcast_copies += 1
        self._obs.registry.histogram(
            "coherence.duration_ms", path="broadcast"
        ).observe(duration)
        self._trace.end(span, path="broadcast", duration=duration)
        return duration

    @staticmethod
    def _join(copies):
        for copy in copies:
            yield copy

    def executor_before_read(self, region, reader_vdev, reader_loc):
        if not region.is_valid_at(reader_loc):
            prefetch = region.pending_prefetch
            if prefetch is not None and reader_loc in region.prefetch_targets:
                yield prefetch
            if not region.is_valid_at(reader_loc):  # miss, or the push failed
                span = self._trace.begin(
                    "coherence.copy", "coherence", cat="coherence", flow=region.flow,
                    region=region.region_id, bytes=region.dirty_bytes,
                )
                duration = yield from self._planner.copy_unified_resilient(
                    region.last_writer_location or HOST_LOCATION,
                    reader_loc,
                    region.dirty_bytes,
                )
                region.note_copy(reader_loc)
                self._trace.end(span, path="broadcast-net", duration=duration)


class GuestMemoryWriteInvalidate(CoherenceProtocol):
    """The modular baseline of §2.2: coherence through guest memory.

    Virtual devices are isolated from each other: each one only keeps its
    *own* copy in sync with guest memory. Validity is therefore tracked
    per **virtual device**, not per physical location — two virtual
    devices backed by the same physical GPU still round-trip data through
    guest memory, which is precisely the waste the unified SVM framework
    eliminates (§3.2's in-GPU zero-copy special case).

    After a device writes, its virtual device flushes the data to guest
    memory (one boundary crossing, in the writer's executor); before
    another device reads, its virtual device fetches from guest memory
    (the second crossing). ``begin_access`` itself stays cheap — which is
    why QEMU-KVM shows the lowest access latency in Table 2 while paying
    the highest coherence and throughput costs.
    """

    name = "guest-memory-write-invalidate"

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        trace: TraceLog,
        obs: Optional[Observability] = None,
    ):
        self._sim = sim
        self._planner = planner
        self._trace = trace
        self._obs = obs if obs is not None else DISABLED
        # region_id -> virtual devices holding an up-to-date private copy
        self._valid_vdevs: Dict[int, set] = {}

    def begin_access_read(self, region, reader_vdev, reader_loc):
        # Guest memory is kept up to date eagerly; the CPU-visible mapping
        # is always coherent. Nothing to wait for here.
        return 0.0
        yield  # pragma: no cover - generator form required by the interface

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Flush: writer's copy → guest memory (first boundary crossing)."""
        self._valid_vdevs[region.region_id] = {writer_vdev}
        if writer_vdev == "cpu":
            # Guest CPU writes land in guest memory directly (mmap'd); the
            # SVM *is* guest memory in this architecture, so no flush.
            region.note_copy(GUEST_LOCATION)
            region.last_flush_duration = 0.0
            return
        span = self._trace.begin(
            "coherence.flush", "coherence", cat="coherence", flow=region.flow,
            region=region.region_id, bytes=region.dirty_bytes,
        )
        duration = yield from self._planner.copy_via_boundary_resilient(region.dirty_bytes)
        region.note_copy(GUEST_LOCATION)
        region.last_flush_duration = duration
        self._trace.end(span, duration=duration)

    def executor_before_read(self, region, reader_vdev, reader_loc):
        """Fetch: guest memory → reader's copy (second boundary crossing)."""
        valid = self._valid_vdevs.setdefault(region.region_id, set())
        if reader_vdev in valid or reader_vdev == "cpu":
            return  # guest CPU reads its own memory mapping for free
        span = self._trace.begin(
            "coherence.copy", "coherence", cat="coherence", flow=region.flow,
            region=region.region_id, bytes=region.dirty_bytes,
        )
        duration = yield from self._planner.copy_via_boundary_resilient(region.dirty_bytes)
        valid.add(reader_vdev)
        region.note_copy(reader_loc)
        self._obs.registry.histogram(
            "coherence.duration_ms", path="guest-memory"
        ).observe(duration)
        # The maintenance costs both boundary crossings: this fetch plus
        # the writer's flush.
        self._trace.end(span, path="guest-memory",
                        duration=duration + region.last_flush_duration)
