"""Simulation workers and the deterministic per-session state machine.

A :class:`SimWorker` models one sharded simulation-worker process of the
fleet: it hosts up to ``capacity`` load units of sessions, advances them
on a fixed tick, publishes heartbeats the supervisor watches, and hands
completed sessions' telemetry to the service. Workers can *crash* (beats
stop, sessions strand), *hang* (wedged for a while, then a revenant that
must stand down if it was declared dead), and *slow-heartbeat* — the
three fault kinds ``FaultPlan.worker_faults`` describes.

:class:`SessionSim` is the unit of migration, so its evolution is
engineered to be **independent of how advancement is sliced into calls**:
time is processed in whole session-local quanta of
:data:`QUANTUM_MS`, and the per-quantum frame-interval jitter comes from
a counter-based (splitmix64) hash of ``(seed, quantum index)`` rather
than sequential RNG state. Advancing 0→500 ms in one call or in two
250 ms calls therefore performs the *identical* float operations —
which is what makes restore-at-T determinism provable across worker
boundaries: capture, migrate, resume, and every subsequent quantum is
bit-identical to the run that never moved.

The same slice invariance lets a worker advance its sessions **lazily**.
Between two ticks whose service factor is equal, advancing every session
at each tick performs the same float operations as one advance at the
last of them, so a tick steps nobody: it records ``(now, factor)`` and
completes the sessions whose fixed end time has passed. A session is
stepped only when someone reads it (:meth:`SimWorker.settle`, called by
migration capture, release, and the admission-confirm check) or when the
factor changes and every session is flushed to the previous tick's
``(time, factor)`` first. Sessions placed or adopted since the last tick
are *fresh*: their pending quanta belong to the next tick, with that
tick's factor, exactly as per-tick advancement would process them.

Per-session telemetry deliberately excludes placement (which worker, how
often migrated): those are control-plane facts the service accounts for,
and keeping them out of the session's own telemetry is what lets a
migrated and an unmigrated run compare bit-identical.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, FleetError
from repro.fleet.arrivals import SessionSpec
from repro.fleet.clock import VirtualClock
from repro.fleet.recorder import NULL_RECORDER
from repro.obs.fleet import CounterSample, GaugeSample, TelemetrySnapshot, _labels_key

#: Session-local advancement quantum (ms). One jitter draw per quantum.
QUANTUM_MS = 250.0

#: Fractional spread of the per-quantum frame-interval jitter.
JITTER_SPAN = 0.10

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = 2.0 ** 64


def _mix64(seed: int, counter: int) -> float:
    """Counter-based uniform in [0, 1): splitmix64 of (seed, counter)."""
    x = (seed * _GOLDEN + counter * _MIX1 + 1) & _M64
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    x = x ^ (x >> 31)
    return x / _TWO64


class SessionSim:
    """Deterministic frame-pipeline model of one attached user session."""

    __slots__ = (
        "spec", "started_at", "quanta", "progress", "presented",
        "ewma_interval_ms", "done",
    )

    def __init__(self, spec: SessionSpec, started_at: float):
        self.spec = spec
        self.started_at = started_at
        self.quanta = 0          # complete quanta processed
        self.progress = 0.0      # fractional frames
        self.presented = 0
        self.ewma_interval_ms = spec.frame_interval_ms
        self.done = False

    # -- advancement ---------------------------------------------------------
    def _step(self, dt_ms: float, service_factor: float) -> None:
        u = _mix64(self.spec.seed, self.quanta)
        interval = (
            self.spec.frame_interval_ms
            * (1.0 + JITTER_SPAN * (u - 0.5))
            * service_factor
        )
        self.progress += dt_ms / interval
        self.ewma_interval_ms = 0.5 * self.ewma_interval_ms + 0.5 * interval
        self.presented = int(self.progress)

    def advance(self, until_ms: float, service_factor: float = 1.0) -> int:
        """Process all whole quanta ending by ``until_ms``; returns new frames.

        The final (partial) quantum is processed exactly once, when
        ``until_ms`` first reaches the session's end — so any sequence of
        calls covering the same span performs the same operations.

        Whole quanta run in one local loop that inlines :meth:`_step` and
        :func:`_mix64` (the hash input grows by one counter term per
        quantum) with their exact operation order; ``_step`` stays the
        reference and processes the tail.
        """
        if self.done:
            return 0
        spec = self.spec
        started = self.started_at
        end = started + spec.duration_ms
        horizon = min(until_ms, end)
        before = self.presented
        q = self.quanta
        if started + (q + 1) * QUANTUM_MS <= horizon:
            base = spec.frame_interval_ms
            span = JITTER_SPAN
            progress = self.progress
            ewma = self.ewma_interval_ms
            acc = spec.seed * _GOLDEN + q * _MIX1 + 1
            while True:
                x = acc & _M64
                x = ((x ^ (x >> 30)) * _MIX1) & _M64
                x = ((x ^ (x >> 27)) * _MIX2) & _M64
                u = (x ^ (x >> 31)) / _TWO64
                interval = base * (1.0 + span * (u - 0.5)) * service_factor
                progress += QUANTUM_MS / interval
                ewma = 0.5 * ewma + 0.5 * interval
                q += 1
                if started + (q + 1) * QUANTUM_MS > horizon:
                    break
                acc += _MIX1
            self.quanta = q
            self.progress = progress
            self.ewma_interval_ms = ewma
            self.presented = int(progress)
        if until_ms >= end:
            tail = end - (started + q * QUANTUM_MS)
            if tail > 0:
                self._step(tail, service_factor)
            self.done = True
        return self.presented - before

    # -- derived telemetry ---------------------------------------------------
    @property
    def active_ms(self) -> float:
        """Simulated time this session has been advanced through."""
        if self.done:
            return self.spec.duration_ms
        return self.quanta * QUANTUM_MS

    def fps(self) -> float:
        active = self.active_ms
        return self.presented / (active / 1_000.0) if active > 0 else 0.0

    def meets_slo(self, fraction: float = 0.8) -> bool:
        if self.active_ms <= 0:
            return True
        return self.fps() >= fraction * self.spec.target_fps

    def telemetry(
        self,
        worker: str,
        partial: bool = False,
        extra_meta: Optional[Dict[str, str]] = None,
    ) -> TelemetrySnapshot:
        """This session's telemetry contribution, as a fleet snapshot.

        ``meta`` carries placement and identity (grouping key
        ``<worker>/<app>``); counters and gauges carry only
        placement-independent session state, so they bit-match across
        migrations. ``partial=True`` marks a mid-stream reading (the
        worker died or the session was shed before finishing).
        """
        meta: Dict[str, str] = {
            "emulator": worker,
            "app": self.spec.app,
            "session": self.spec.session_id,
            "priority": str(self.spec.priority),
        }
        if partial:
            meta["partial"] = "true"
        if extra_meta:
            meta.update(extra_meta)
        labels = _labels_key({"app": self.spec.app})
        return TelemetrySnapshot(
            meta=_labels_key(meta),
            counters=(
                CounterSample("session.frames", labels, float(self.presented)),
                CounterSample(
                    "session.completed", labels, 0.0 if partial else 1.0
                ),
            ),
            gauges=(
                GaugeSample("session.fps", labels, self.fps()),
                GaugeSample("session.latency_ms", labels, self.ewma_interval_ms),
                GaugeSample("session.load", labels, self.spec.load),
            ),
        )

    # -- checkpointing -------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Deterministic, JSON-able image of the session's dynamic state."""
        return {
            "session_id": self.spec.session_id,
            "started_at": self.started_at,
            "quanta": self.quanta,
            "progress": self.progress,
            "presented": self.presented,
            "ewma_interval_ms": self.ewma_interval_ms,
            "done": self.done,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        missing = [k for k in (
            "session_id", "started_at", "quanta", "progress", "presented",
            "ewma_interval_ms", "done",
        ) if k not in state]
        if missing:
            raise ConfigurationError(f"session state is missing keys: {missing}")
        if state["session_id"] != self.spec.session_id:
            raise ConfigurationError(
                f"state of session {state['session_id']!r} cannot restore "
                f"into {self.spec.session_id!r}"
            )
        for key in ("started_at", "progress", "ewma_interval_ms"):
            value = state[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(f"session {key} must be finite, got {value!r}")
        self.started_at = float(state["started_at"])
        self.quanta = int(state["quanta"])
        self.progress = float(state["progress"])
        self.presented = int(state["presented"])
        self.ewma_interval_ms = float(state["ewma_interval_ms"])
        self.done = bool(state["done"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SessionSim {self.spec.session_id} app={self.spec.app} "
            f"frames={self.presented} done={self.done}>"
        )


# -- worker states -----------------------------------------------------------
RUNNING = "running"
CRASHED = "crashed"
RETIRED = "retired"

CompletionCallback = Callable[["SimWorker", SessionSim], None]


class SimWorker:
    """One sharded simulation worker: hosts sessions, ticks, heartbeats."""

    def __init__(
        self,
        clock: VirtualClock,
        name: str,
        capacity: float = 100.0,
        tick_ms: float = QUANTUM_MS,
        heartbeat_ms: float = QUANTUM_MS,
        on_complete: Optional[CompletionCallback] = None,
    ):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        if tick_ms <= 0 or heartbeat_ms <= 0:
            raise ConfigurationError("tick and heartbeat intervals must be > 0")
        self.clock = clock
        self.name = name
        self.capacity = capacity
        self.tick_ms = tick_ms
        self.heartbeat_ms = heartbeat_ms
        self.on_complete = on_complete
        self.state = RUNNING
        self.epoch = 0
        self.sessions: Dict[str, SessionSim] = {}
        self.load = 0.0
        self.last_beat = clock.now
        self.beat_factor = 1.0
        self.hang_until = 0.0
        self.ticks = 0
        self.started = 0
        self.completed = 0
        self.crashes = 0
        self.recorder = NULL_RECORDER  # installed by attach_recorder
        # Lazy advancement: every hosted session not in ``_fresh`` is
        # exactly ``advance(_ticked_at, _tick_factor)`` short of its
        # per-tick state. ``_due`` is a heap of (end, slot, id); an entry
        # is live while ``_slots[id]`` still holds its slot, and slots
        # grow with insertion, so slot order is ``sessions`` order.
        self._ticked_at = clock.now
        self._tick_factor = 1.0
        self._fresh: Set[str] = set()
        self._due: List[Tuple[float, int, str]] = []
        self._slots: Dict[str, int] = {}
        self._next_slot = 0

    # -- capacity ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state == RUNNING

    @property
    def available(self) -> bool:
        """Placeable: alive and not currently wedged."""
        return self.alive and self.hang_until <= self.clock.now

    def free_capacity(self) -> float:
        return self.capacity - self.load

    def load_factor(self) -> float:
        return self.load / self.capacity

    def service_factor(self) -> float:
        """How much an overloaded worker stretches every frame interval."""
        return max(1.0, self.load / self.capacity)

    # -- session lifecycle ---------------------------------------------------
    def start_session(self, spec: SessionSpec) -> SessionSim:
        if not self.alive:
            raise FleetError(
                f"cannot place session {spec.session_id!r} on "
                f"{self.state} worker {self.name!r}"
            )
        if spec.session_id in self.sessions:
            raise FleetError(f"worker {self.name!r} already hosts {spec.session_id!r}")
        session = SessionSim(spec, started_at=self.clock.now)
        self._host(session)
        self.started += 1
        return session

    def adopt(self, session: SessionSim) -> None:
        """Take over a migrated-in session (state already restored)."""
        if not self.alive:
            raise FleetError(
                f"cannot migrate {session.spec.session_id!r} onto "
                f"{self.state} worker {self.name!r}"
            )
        if session.spec.session_id in self.sessions:
            raise FleetError(
                f"worker {self.name!r} already hosts {session.spec.session_id!r}"
            )
        self._host(session)

    def _host(self, session: SessionSim) -> None:
        session_id = session.spec.session_id
        slot = self._next_slot
        self._next_slot = slot + 1
        self.sessions[session_id] = session
        self._slots[session_id] = slot
        self._fresh.add(session_id)
        heapq.heappush(
            self._due,
            (session.started_at + session.spec.duration_ms, slot, session_id),
        )
        self.load += session.spec.load

    def release(self, session_id: str) -> SessionSim:
        """Give up a session (migration source side), settled."""
        session = self.sessions.get(session_id)
        if session is None:
            raise FleetError(f"worker {self.name!r} does not host {session_id!r}")
        self.settle(session)
        self._unhost(session)
        return session

    def _unhost(self, session: SessionSim) -> None:
        session_id = session.spec.session_id
        del self.sessions[session_id]
        del self._slots[session_id]
        self._fresh.discard(session_id)
        self.load -= session.spec.load

    def settle(self, session: SessionSim) -> None:
        """Bring a hosted session up to the state per-tick advancement
        would have given it by now; call before reading its state."""
        if session.spec.session_id in self._fresh:
            return  # nothing of it is due before the next tick
        first = session.quanta
        newly = session.advance(self._ticked_at, self._tick_factor)
        if session.quanta > first or session.done:
            self.recorder.quantum(self.name, session, first, newly)

    # -- fault hooks ---------------------------------------------------------
    def crash(self) -> None:
        """Kill the worker process: beats stop, sessions strand."""
        if self.state == RUNNING:
            self.state = CRASHED
            self.crashes += 1

    def hang(self, duration_ms: float) -> None:
        """Wedge the worker: no ticks, no beats, self-recovers after."""
        self.hang_until = max(self.hang_until, self.clock.now + duration_ms)

    def slow_beats(self, duration_ms: float, factor: float) -> None:
        """Stretch heartbeat cadence by ``factor`` for ``duration_ms``."""
        self.beat_factor = factor
        self.clock.schedule(duration_ms, self._reset_beat_factor)

    def _reset_beat_factor(self) -> None:
        self.beat_factor = 1.0

    def revive(self) -> None:
        """Restart after a crash: fresh epoch, empty accounting kept."""
        self.state = RUNNING
        self.epoch += 1
        self.hang_until = 0.0
        self.beat_factor = 1.0
        self.last_beat = self.clock.now
        self.clock.spawn(self.run(), name=f"worker.{self.name}.e{self.epoch}")

    def retire(self) -> None:
        self.state = RETIRED

    # -- the run loop --------------------------------------------------------
    async def run(self) -> None:
        """Tick loop: advance sessions, complete the done ones, beat."""
        epoch = self.epoch
        while self.state == RUNNING and self.epoch == epoch:
            await self.clock.sleep(self.tick_ms)
            if self.state != RUNNING or self.epoch != epoch:
                return  # killed (or superseded by a revive) while sleeping
            now = self.clock.now
            if self.hang_until > now:
                continue  # wedged: no beats, no progress
            if now - self.last_beat >= self.heartbeat_ms * self.beat_factor:
                self.last_beat = now
            self._tick(now)

    def _tick(self, now: float) -> None:
        """Record ``(now, factor)`` and complete the sessions now due.

        No session is stepped unless the factor differs from the last
        tick's: then every non-fresh session is first settled at the last
        tick's ``(time, factor)``. Due sessions complete in ``sessions``
        order, as per-tick advancement completed them.
        """
        self.ticks += 1
        factor = self.service_factor()
        if factor != self._tick_factor:
            for session in self.sessions.values():
                self.settle(session)
        self._ticked_at = now
        self._tick_factor = factor
        self._fresh.clear()
        due = self._due
        finished: List[Tuple[int, str]] = []
        while due and due[0][0] <= now:
            _end, slot, session_id = heapq.heappop(due)
            if self._slots.get(session_id) == slot:
                finished.append((slot, session_id))
        finished.sort()
        for _slot, session_id in finished:
            session = self.sessions[session_id]
            self.settle(session)
            self._unhost(session)
            self.completed += 1
            if self.on_complete is not None:
                self.on_complete(self, session)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimWorker {self.name} {self.state} sessions={len(self.sessions)} "
            f"load={self.load:.1f}/{self.capacity:.0f}>"
        )
