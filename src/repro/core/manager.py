"""The SVM Manager (§3.2): unified lifecycle and accounting for SVM regions.

The manager implements the shared-memory interface of Figure 3 on the host
side: 64-bit IDs, lazy per-location backing allocation, a host-side
hashtable of complete metadata, and the twin-hypergraph statistics feed.
Virtual devices identify regions purely by ID — the unified representation
that lets coherence run directly between devices without guest involvement.

Metric definitions (shared with §5.2):

* **access latency** — time a ``begin_access`` call blocks the guest
  caller, including protocol waits and the page-mapping cost;
* **slack interval** — host write retirement → next cross-device
  ``begin_access`` on the same region;
* **coherence cost** — duration of one maintenance (traced by the
  protocols as ``coherence.copy``/``prefetch.copy`` spans whose end
  carries ``duration``; see :func:`repro.metrics.collectors.maintenances`).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.coherence import CoherenceProtocol
from repro.core.degradation import DegradationController
from repro.core.region import AccessUsage, SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.errors import SvmError, UnknownRegionError
from repro.hw.memory import MemoryPool
from repro.obs import DISABLED, Observability
from repro.sim import Simulator, Timeout
from repro.sim.tracing import TraceLog
from repro.units import VSYNC_PERIOD_MS

if False:  # pragma: no cover - typing only
    from repro.core.prefetch import PrefetchEngine


class SvmManager:
    """Host-side manager for every SVM region of one emulator instance."""

    def __init__(
        self,
        sim: Simulator,
        twin: TwinHypergraphs,
        protocol: CoherenceProtocol,
        location_pools: Dict[str, MemoryPool],
        trace: TraceLog,
        page_map_cost: float,
        extra_access_overhead: float = 0.0,
        engine: Optional["PrefetchEngine"] = None,
        chain_reaction_threshold: Optional[float] = 2.0,
        chain_reaction_vdevs: Optional[set] = None,
        degradation: Optional[DegradationController] = None,
        obs: Optional[Observability] = None,
    ):
        self._obs = obs if obs is not None else DISABLED
        self._sim = sim
        self.twin = twin
        self.protocol = protocol
        self.engine = engine
        self.degradation = degradation
        self._pools = dict(location_pools)
        self._trace = trace
        self.page_map_cost = page_map_cost
        self.extra_access_overhead = extra_access_overhead
        self.chain_reaction_threshold = chain_reaction_threshold
        # Only VSync-scheduled render/composition threads suffer the
        # missed-frame chain reaction; pipeline worker threads just absorb
        # the delay into their period.
        self.chain_reaction_vdevs = (
            chain_reaction_vdevs if chain_reaction_vdevs is not None else {"gpu", "display"}
        )
        self.chain_reactions = 0
        self._regions: Dict[int, SvmRegion] = {}
        self._next_id = 1
        self.allocs_total = 0
        self.frees_total = 0
        # Optional runtime invariant auditor (see repro.recovery.audit).
        # When installed it gets an inline visibility check on every read
        # access, in addition to its periodic sim-hook sweep.
        self.auditor = None

    # -- lifecycle (alloc / free of Figure 3) ------------------------------------
    def alloc(self, size: int) -> int:
        """Allocate a region; returns its unique 64-bit ID."""
        region = SvmRegion(self._next_id, size)
        self._next_id += 1
        self._regions[region.region_id] = region
        self.twin.register_region(region.region_id)
        self.allocs_total += 1
        self._trace.record(self._sim.now, "svm.alloc", region=region.region_id, size=size)
        return region.region_id

    def free(self, region_id: int) -> None:
        """Free a region; open access brackets make this an error."""
        region = self.get(region_id)
        if region.open_accessors:
            raise SvmError(
                f"freeing region #{region_id} with open accesses: "
                f"{sorted(region.open_accessors)}"
            )
        region.freed = True
        region.release_backing()
        del self._regions[region_id]
        self.twin.drop_region(region_id)
        self.frees_total += 1
        self._trace.record(self._sim.now, "svm.free", region=region_id)

    def get(self, region_id: int) -> SvmRegion:
        try:
            return self._regions[region_id]
        except KeyError:
            raise UnknownRegionError(f"unknown SVM region #{region_id}") from None

    @property
    def live_regions(self) -> int:
        return len(self._regions)

    # -- access brackets (begin_access / end_access of Figure 3) -----------------
    def begin_access(
        self,
        vdev: str,
        region_id: int,
        usage: AccessUsage,
        location: str,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, float]:
        """Process: open an access; returns the blocking latency in ms.

        Lazy backing allocation happens here — the first access reveals
        which location actually needs memory (§3.2).
        """
        region = self.get(region_id)
        window = nbytes if nbytes is not None else region.size
        region.open_access(vdev, usage, window, self._sim.now)
        start = self._sim.now
        # Slack is defined from write retirement to access *arrival*, so
        # sample it before the mapping work consumes time.
        slack = self._slack_for(region) if usage.reads else None
        access = self._trace.begin(
            "svm.begin_access", vdev, cat="svm", flow=region.flow,
            region=region_id, usage=usage.value, bytes=window,
        )

        mapping_cost = self.page_map_cost + self.extra_access_overhead
        if mapping_cost > 0:
            yield Timeout(mapping_cost)
        self._ensure_backing(region, location)

        if usage.reads:
            if self.engine is not None:
                self.engine.on_read(region, vdev, location, slack=slack)
            self.twin.on_read(region_id, vdev, location, slack)
            if slack is not None:
                self._trace.record(
                    self._sim.now, "svm.slack", region=region_id, slack=slack
                )
            blocked = yield from self.protocol.begin_access_read(region, vdev, location)
            if self.auditor is not None:
                # "No access observes stale bytes": once the protocol has
                # admitted the read, the reader's location must hold an
                # up-to-date copy. Checked here (not in the periodic sweep)
                # because mid-maintenance states are legal between accesses.
                self.auditor.check_read_visibility(region, vdev, location)
            # The chain reaction of §3.3: mobile services schedule around
            # the assumption that SVM access is instantaneous. An
            # unexpected multi-ms block makes the caller miss its frame
            # deadline and wait for the next VSync ("even a slightly longer
            # SVM access latency (e.g., 2 ms) ... causes apps to miss the
            # current frame deadline and wait for the next").
            if (
                self.chain_reaction_threshold is not None
                and vdev in self.chain_reaction_vdevs
                and blocked is not None
                and blocked > self.chain_reaction_threshold
            ):
                next_tick = (int(self._sim.now / VSYNC_PERIOD_MS) + 1) * VSYNC_PERIOD_MS
                self.chain_reactions += 1
                yield Timeout(next_tick - self._sim.now)

        if usage.writes:
            # Host retirement does the invalidation; the flag marks that the
            # newest data is still in flight so readers order behind it.
            region.write_in_flight = True

        latency = self._sim.now - start
        self._obs.registry.histogram("svm.access_latency_ms", vdev=vdev).observe(latency)
        if self.degradation is not None and self.degradation.degraded:
            # Tag accesses made under degraded coherence so metrics can
            # attribute latency spikes to the fault, not the workload.
            self._trace.end(access, latency=latency,
                            degraded_level=self.degradation.level)
        else:
            self._trace.end(access, latency=latency)
        return latency

    def end_access(self, vdev: str, region_id: int) -> None:
        """Close an access bracket opened by ``begin_access``."""
        region = self.get(region_id)
        opened = region.close_access(vdev)
        self._trace.record(
            self._sim.now,
            "svm.access_end",
            region=region_id,
            vdev=vdev,
            held=self._sim.now - opened.start_time,
        )

    def _slack_for(self, region: SvmRegion) -> Optional[float]:
        """*Natural* slack: write retirement → read arrival, minus any
        compensation the driver injected for this generation.

        Without the discount the predictor would chase its own tail: the
        driver blocks to stretch a short slack, the stretched slack is
        observed, the predicted compensation shrinks, the next read blocks
        again — an oscillation instead of Figure 8's steady state.
        """
        if region.write_in_flight or region.write_complete_time is None:
            return None
        observed = self._sim.now - region.write_complete_time
        return max(0.0, observed - region.applied_compensation)

    def _ensure_backing(self, region: SvmRegion, location: str) -> None:
        if location in region.backing:
            return
        pool = self._pools.get(location)
        if pool is None:
            return  # pseudo-locations without a modelled pool
        region.backing[location] = pool.allocate(region.size, tag=f"svm#{region.region_id}")

    # -- host-executor hooks ------------------------------------------------------
    def host_write_retired(
        self, region_id: int, vdev: str, location: str, nbytes: int
    ) -> Generator[Any, Any, None]:
        """Process (executor context): a write op finished on the host.

        Performs the invalidation, timestamps the write for slack
        measurement, feeds the twin hypergraphs, and runs the protocol's
        after-write hook (baseline flush, or vSoC prefetch launch).
        """
        region = self.get(region_id)
        region.note_write(vdev, location, nbytes)
        region.write_in_flight = False
        region.write_complete_time = self._sim.now
        self._ensure_backing(region, location)
        self.twin.on_write(region_id, vdev, location, nbytes)
        self._trace.instant(
            "svm.write_retired", vdev, cat="svm", flow=region.flow,
            region=region_id, bytes=nbytes,
        )
        yield from self.protocol.executor_after_write(region, vdev, location)

    def host_before_read(
        self, region_id: int, vdev: str, location: str
    ) -> Generator[Any, Any, None]:
        """Process (executor context): coherence net before a device read."""
        region = self.get(region_id)
        self._ensure_backing(region, location)
        yield from self.protocol.executor_before_read(region, vdev, location)

    # -- checkpoint / restore (repro.recovery.snapshot) ---------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Deterministic, JSON-able image of all SVM bookkeeping.

        Covers the region hashtable (full coherence state per region), the
        ID allocator, and lifetime counters. Fences and the twin
        hypergraphs snapshot themselves; :class:`repro.recovery.snapshot`
        stitches the pieces into one checksummed document.
        """
        return {
            "next_id": self._next_id,
            "allocs_total": self.allocs_total,
            "frees_total": self.frees_total,
            "chain_reactions": self.chain_reactions,
            "regions": {
                str(region_id): region.state_dict()
                for region_id, region in sorted(self._regions.items())
            },
        }

    def restore_state(self, state: Dict[str, Any], fence_table: Any = None) -> None:
        """Reinstate SVM state captured by :meth:`snapshot_state`.

        Intended for a quiescent manager (fresh build or post-run): regions
        are rebuilt from scratch, backing memory is re-allocated from the
        location pools, and ``write_fence`` links are re-established through
        ``fence_table`` (which must already be restored) when given.
        """
        for region in self._regions.values():
            region.release_backing()
        self._regions = {}
        self._next_id = state["next_id"]
        self.allocs_total = state["allocs_total"]
        self.frees_total = state["frees_total"]
        self.chain_reactions = state["chain_reactions"]
        for key, region_state in state["regions"].items():
            region = SvmRegion(int(key), region_state["size"])
            region.load_state(region_state)
            for location in region_state["backing"]:
                self._ensure_backing(region, location)
            fence_index = region_state["write_fence"]
            if fence_index is not None and fence_table is not None:
                region.write_fence = fence_table._slots.get(fence_index)
            self._regions[region.region_id] = region

    # -- §5.2 overhead accounting -------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Framework metadata footprint (paper: at most 3.1 MiB)."""
        per_region_metadata = 160
        return self.twin.memory_overhead_bytes() + len(self._regions) * per_region_metadata
