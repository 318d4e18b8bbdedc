"""The prefetch engine (§3.3): robust ahead-of-time coherence.

At every host write retirement the engine:

1. predicts the next reader(s) from the region's data flow in the twin
   hypergraphs (falling back to the busiest flow from the writing virtual
   device — the zero-shot path for freshly allocated regions);
2. unless suspended, launches the coherence copy immediately as a
   background DMA process;
3. computes the *compensation* the guest driver must block for —
   ``max(0, predicted_prefetch_time − predicted_slack)`` — so that by the
   time the next access arrives, the copy has finished (Figure 8).

Robustness policies from the paper's corner cases:

* three consecutive prediction failures on a flow suspend prefetching for
  that flow (for :data:`SUSPEND_COOLDOWN` subsequent writes);
* prefetch is skipped while the copy path's available bandwidth sits below
  50% of the maximum this engine has observed on that path.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set

from repro.core.coherence import RECOVERABLE_COPY_ERRORS, CopyPlanner
from repro.core.degradation import LEVEL_PREFETCHED, DegradationController
from repro.core.region import SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.obs import DISABLED, Observability
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import VSYNC_PERIOD_MS

#: Consecutive failures after which a flow's prefetching is suspended (§3.3).
FAILURE_SUSPEND_THRESHOLD = 3
#: Available/maximum bandwidth ratio below which prefetch is skipped (§3.3).
BANDWIDTH_SUSPEND_RATIO = 0.5
#: Writes to sit out before a suspended flow is retried. The paper says
#: "temporarily suspend" without a figure; one VSync-worth of typical
#: pipeline writes is a conservative re-probe interval.
SUSPEND_COOLDOWN = 20


class PrefetchStats:
    """Counters the §5.2 microbenchmarks report."""

    def __init__(self) -> None:
        self.predictions = 0
        self.hits = 0
        self.misses = 0
        self.cold_starts = 0
        self.launched = 0
        self.suspended_skips = 0
        self.bandwidth_skips = 0
        self.compensation_total_ms = 0.0
        self.compensations = 0
        self.wasted_prefetches = 0
        self.degraded_skips = 0
        self.prefetch_failures = 0

    @property
    def accuracy(self) -> Optional[float]:
        """Device-prediction accuracy (paper: 99-100%)."""
        if self.predictions == 0:
            return None
        return self.hits / self.predictions

    #: Modeled CPU cost of one engine invocation (hash lookups + a couple
    #: of float ops). ~2 µs on a modern core; used only for the §5.2
    #: "<1% CPU overhead" accounting, never charged to simulated time.
    CPU_COST_PER_EVENT_MS = 0.002

    @property
    def bookkeeping_events(self) -> int:
        return self.predictions + self.launched + self.cold_starts + self.suspended_skips

    def cpu_overhead_fraction(self, duration_ms: float) -> float:
        """Estimated fraction of one core spent on engine bookkeeping."""
        if duration_ms <= 0:
            return 0.0
        return self.bookkeeping_events * self.CPU_COST_PER_EVENT_MS / duration_ms


class PrefetchEngine:
    """Prediction + launch + compensation + suspension (§3.3)."""

    def __init__(
        self,
        sim: Simulator,
        twin: TwinHypergraphs,
        planner: CopyPlanner,
        vdev_location: Callable[[str], str],
        trace: TraceLog,
        failure_threshold: int = FAILURE_SUSPEND_THRESHOLD,
        bandwidth_ratio: float = BANDWIDTH_SUSPEND_RATIO,
        suspend_cooldown: int = SUSPEND_COOLDOWN,
        default_slack: float = VSYNC_PERIOD_MS,
        zero_shot: bool = True,
        degradation: Optional[DegradationController] = None,
        obs: Optional[Observability] = None,
    ):
        self._obs = obs if obs is not None else DISABLED
        self._sim = sim
        self._twin = twin
        self._planner = planner
        self._vdev_location = vdev_location
        self._trace = trace
        self.degradation = degradation
        self.failure_threshold = failure_threshold
        self.bandwidth_ratio = bandwidth_ratio
        self.suspend_cooldown = suspend_cooldown
        self.default_slack = default_slack
        # Flow-level (coarse-grained) history enables zero-shot predictions
        # for fresh regions (§3.3); False = per-region history only.
        self.zero_shot = zero_shot
        self.stats = PrefetchStats()
        self._failures: Dict[object, int] = {}
        self._suspended: Dict[object, int] = {}
        self._suspended_since: Dict[object, float] = {}
        self.suspension_time_ms = 0.0
        self._max_bandwidth: Dict[str, float] = {}

    # -- write-side: prediction and launch -------------------------------------
    def launch(self, region: SvmRegion, writer_vdev: str, writer_loc: str) -> None:
        """Called at host write retirement; spawns the ahead-of-time copy."""
        region.pending_compensation = 0.0
        if self._degraded():
            # The ladder stepped past the prefetched level: stay quiet until
            # the controller offers level 0 again as a probe.
            self.stats.degraded_skips += 1
            region.prefetch_predicted_vdevs = None
            return
        predicted = self._twin.predict_readers(
            region.region_id, writer_vdev, allow_zero_shot=self.zero_shot
        )
        if predicted is None or not predicted.reader_vdevs:
            self.stats.cold_starts += 1
            region.prefetch_predicted_vdevs = None
            return

        vkey = predicted.vedge.key if predicted.vedge is not None else None
        region.prefetch_predicted_vdevs = set(predicted.reader_vdevs)
        region.prefetch_vkey = vkey
        # Remember what we predicted for this generation so the read side
        # can score the slack estimate against the observed interval.
        region.prefetch_predicted_slack = (
            self._twin.predict_slack(predicted.vedge)
            if predicted.vedge is not None
            else None
        )

        if self._is_suspended(vkey):
            self.stats.suspended_skips += 1
            return

        targets = self._remote_targets(predicted.reader_vdevs, writer_loc)
        if not targets:
            return  # co-located readers: the in-GPU zero-copy case (§3.2)

        if not self._bandwidth_allows(writer_loc, targets):
            self.stats.bandwidth_skips += 1
            return

        pedge = predicted.pedge
        copies = [
            self._sim.spawn(
                self._prefetch_copy(region, writer_loc, target, pedge),
                name=f"prefetch:r{region.region_id}->{target}",
            )
            for target in sorted(targets)
        ]
        if len(copies) == 1:
            region.pending_prefetch = copies[0]
        else:
            region.pending_prefetch = self._sim.spawn(
                self._join_all(copies), name=f"prefetch:r{region.region_id}:join"
            )
        region.prefetch_targets = targets
        self.stats.launched += 1
        self._obs.registry.counter("prefetch.launched").inc()

        region.pending_compensation = self._compensation(
            predicted.vedge, pedge, writer_loc, targets, region.dirty_bytes
        )
        if region.pending_compensation > 0:
            self.stats.compensations += 1
            self.stats.compensation_total_ms += region.pending_compensation

    def _degraded(self) -> bool:
        return (
            self.degradation is not None
            and self.degradation.plan_level() > LEVEL_PREFETCHED
        )

    def _prefetch_copy(self, region: SvmRegion, src: str, dst: str, pedge):
        span = self._trace.begin(
            "prefetch.copy", "prefetch", cat="coherence", flow=region.flow,
            region=region.region_id, src=src, dst=dst, bytes=region.dirty_bytes,
        )
        try:
            duration = yield from self._planner.copy_unified_resilient(
                src, dst, region.dirty_bytes
            )
        except RECOVERABLE_COPY_ERRORS as err:
            # A dead prefetch must not poison its joiners: readers re-check
            # validity after the join and fall back to sync maintenance.
            self.stats.prefetch_failures += 1
            if self.degradation is not None:
                self.degradation.note_failure(
                    LEVEL_PREFETCHED, reason=type(err).__name__
                )
            self._trace.end(span, failed=type(err).__name__)
            return None
        region.note_copy(dst)
        if self.degradation is not None:
            self.degradation.note_success(LEVEL_PREFETCHED)
        if pedge is not None:
            self._twin.note_prefetch_duration(pedge, duration)
        self._trace.end(span, path="prefetch", duration=duration)
        return duration

    @staticmethod
    def _join_all(copies):
        results = []
        for copy in copies:
            result = yield copy
            results.append(result)
        return results

    def _remote_targets(self, reader_vdevs: FrozenSet[str], writer_loc: str) -> Set[str]:
        return {
            loc
            for loc in (self._vdev_location(v) for v in reader_vdevs)
            if loc != writer_loc
        }

    def _bandwidth_allows(self, writer_loc: str, targets: Set[str]) -> bool:
        """The 50%-of-max available-bandwidth rule (§3.3)."""
        for target in targets:
            for bus in self._planner.unified_legs(writer_loc, target):
                seen_max = self._max_bandwidth.get(bus.name, 0.0)
                current = bus.effective_bandwidth
                if current > seen_max:
                    self._max_bandwidth[bus.name] = current
                    seen_max = current
                if seen_max > 0 and current < self.bandwidth_ratio * seen_max:
                    return False
        return True

    def _compensation(
        self, vedge, pedge, writer_loc: str, targets: Set[str], nbytes: int
    ) -> float:
        """``max(0, predicted prefetch time − predicted slack)`` (Figure 8)."""
        prefetch_time = self._twin.predict_prefetch_time(pedge)
        if prefetch_time is None:
            prefetch_time = max(
                self._planner.estimate_unified(writer_loc, t, nbytes) for t in targets
            )
        slack = self._twin.predict_slack(vedge)
        if slack is None:
            slack = self.default_slack
        return max(0.0, prefetch_time - slack)

    # -- driver-side prediction (guest context) ---------------------------------
    def predicted_compensation(
        self, region: SvmRegion, writer_vdev: str, writer_loc: str
    ) -> float:
        """What the guest driver should block for, computed at dispatch time.

        The driver consults the (guest-shared) hypergraph statistics before
        the host retires the write, so its view uses the same predictors as
        :meth:`launch` — both sides independently arrive at the Figure 8
        time delta. Returns 0 when no prediction exists or the flow is
        suspended (the driver then stays fully asynchronous).
        """
        predicted = self._twin.predict_readers(
            region.region_id, writer_vdev, allow_zero_shot=self.zero_shot
        )
        if predicted is None or not predicted.reader_vdevs:
            return 0.0
        vkey = predicted.vedge.key if predicted.vedge is not None else None
        if self._degraded() or self._is_suspended(vkey, consume=False):
            return 0.0
        targets = self._remote_targets(predicted.reader_vdevs, writer_loc)
        if not targets:
            return 0.0
        return self._compensation(
            predicted.vedge, predicted.pedge, writer_loc, targets, region.dirty_bytes
        )

    # -- read-side: accuracy accounting and suspension -----------------------------
    def on_read(
        self,
        region: SvmRegion,
        reader_vdev: str,
        reader_loc: str,
        slack: Optional[float] = None,
    ) -> None:
        """Score the generation's prediction on its first read.

        ``slack`` is the *observed* natural slack (write retirement → this
        read's arrival) the manager measured; scored against the slack the
        engine predicted at launch time, it feeds the live slack-estimate
        error instrument of §5.2.
        """
        predicted = region.prefetch_predicted_vdevs
        if predicted is None:
            return
        region.prefetch_predicted_vdevs = None  # score once per generation
        self.stats.predictions += 1
        vkey = region.prefetch_vkey
        if reader_vdev in predicted:
            self.stats.hits += 1
            if vkey is not None:
                self._failures[vkey] = 0
        else:
            self.stats.misses += 1
            if region.pending_prefetch is not None:
                self.stats.wasted_prefetches += 1
            if vkey is not None:
                failures = self._failures.get(vkey, 0) + 1
                self._failures[vkey] = failures
                if failures >= self.failure_threshold:
                    self._suspended[vkey] = self.suspend_cooldown
                    self._suspended_since[vkey] = self._sim.now
                    self._failures[vkey] = 0
                    self._trace.instant(
                        "prefetch.suspend", "prefetch", cat="coherence", vkey=str(vkey),
                    )
        registry = self._obs.registry
        registry.gauge("prefetch.mispredict_rate").set(
            self.stats.misses / self.stats.predictions, time=self._sim.now
        )
        if slack is not None and region.prefetch_predicted_slack is not None:
            registry.histogram("prefetch.slack_error_ms").observe(
                abs(region.prefetch_predicted_slack - slack)
            )

    def _is_suspended(self, vkey, consume: bool = True) -> bool:
        """Whether this flow's prefetching is in cooldown.

        A cooldown of N skips exactly N writes. The host-side launch path
        passes ``consume=True``, spending one cooldown credit per skipped
        write; the guest-driver path (:meth:`predicted_compensation`)
        passes ``consume=False`` so both sides see the same verdict for
        the same write — the driver reads, the host decrements.
        """
        if vkey is None:
            return False
        remaining = self._suspended.get(vkey)
        if remaining is None:
            return False
        if remaining <= 0:
            del self._suspended[vkey]
            self._note_suspension_end(vkey)
            return False
        if consume:
            self._suspended[vkey] = remaining - 1
        return True

    def _note_suspension_end(self, vkey) -> None:
        """Fold a finished cooldown into the suspension-time instrument."""
        since = self._suspended_since.pop(vkey, None)
        if since is None:
            return
        elapsed = self._sim.now - since
        self.suspension_time_ms += elapsed
        self._obs.registry.counter("prefetch.suspension_time_ms").inc(elapsed)

    # -- crash recovery ----------------------------------------------------------
    def reset_vdev_history(self, vdev: str) -> int:
        """Drop failure/suspension history for flows involving ``vdev``.

        Called when a crashed device is re-admitted: its pre-crash
        mispredictions must not keep its flows suspended, and its flow keys
        are about to be removed from the twin anyway. Returns the number of
        flow entries cleared.
        """
        def touches(vkey: object) -> bool:
            if not isinstance(vkey, tuple) or len(vkey) != 2:
                return False
            sources, destinations = vkey
            return vdev in sources or vdev in destinations

        doomed = {k for k in self._failures if touches(k)}
        doomed |= {k for k in self._suspended if touches(k)}
        for vkey in doomed:
            self._failures.pop(vkey, None)
            self._suspended.pop(vkey, None)
            self._note_suspension_end(vkey)
        return len(doomed)

    # -- checkpointing -----------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic, JSON-able image of the engine's learned state."""
        from repro.core.hypergraph import serialize_edge_key

        def key_str(vkey: object) -> str:
            return repr(serialize_edge_key(vkey))

        return {
            "stats": {
                name: getattr(self.stats, name)
                for name in sorted(vars(self.stats))
            },
            "failures": {
                key_str(k): v for k, v in sorted(
                    self._failures.items(), key=lambda kv: key_str(kv[0])
                )
            },
            "suspended": {
                key_str(k): v for k, v in sorted(
                    self._suspended.items(), key=lambda kv: key_str(kv[0])
                )
            },
            "suspension_time_ms": self.suspension_time_ms,
            "max_bandwidth": dict(sorted(self._max_bandwidth.items())),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate learned state captured by :meth:`snapshot_state`.

        Flow keys were serialized as ``repr`` of their JSON-able form;
        ``ast.literal_eval`` (no arbitrary code execution) reverses that.
        ``_suspended_since`` is wall-of-sim-clock bookkeeping for the
        suspension-time instrument and intentionally restarts empty.
        """
        import ast

        from repro.core.hypergraph import deserialize_edge_key

        def parse_key(text: str) -> object:
            return deserialize_edge_key(ast.literal_eval(text))

        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._failures = {parse_key(k): v for k, v in state["failures"].items()}
        self._suspended = {parse_key(k): v for k, v in state["suspended"].items()}
        self._suspended_since = {}
        self.suspension_time_ms = state["suspension_time_ms"]
        self._max_bandwidth = dict(state["max_bandwidth"])
