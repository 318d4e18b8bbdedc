"""Virtio-style guest↔host transport cost model.

Host-guest data transport in vSoC is based on virtio (§4): guest drivers
place commands in shared rings and *kick* the host with a write that causes
a VM exit. Batching several commands per kick amortizes the exit cost —
the reason §3.4's command queues accept asynchronous commands "in batch to
reduce transport overhead across the virtualization boundary".

:class:`VirtioTransport` turns (batch size → dispatch delay) into one
place, and counts kicks/commands for the experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from repro.errors import ConfigurationError, TransportDropError
from repro.sim import RetryPolicy, Simulator, Timeout, retrying
from repro.sim.tracing import NO_FLOW, TraceLog

#: Optional fault hook: called once per kick with ``(transport, batch_size)``.
#: Return ``None`` for a clean kick, ``("drop",)`` to lose the kick after its
#: cost is paid (raises :class:`TransportDropError`), or ``("delay", ms)`` to
#: stretch the dispatch by ``ms`` — a stalled VM exit.
TransportFaultHook = Callable[["VirtioTransport", int], Optional[Tuple[Any, ...]]]

#: Dropped kicks clear when the fault window closes, so the reliable path
#: retries forever with a capped backoff rather than giving up mid-window.
KICK_RETRY_POLICY = RetryPolicy(
    max_attempts=None, base_delay_ms=0.02, multiplier=2.0, max_delay_ms=1.0
)


class VirtioTransport:
    """Cost model for command dispatch across the virtualization boundary."""

    def __init__(
        self,
        sim: Simulator,
        kick_cost: float = 0.02,
        per_command_cost: float = 0.005,
        trace: Optional[TraceLog] = None,
        obs=None,
    ):
        if kick_cost < 0 or per_command_cost < 0:
            raise ConfigurationError("transport costs must be >= 0")
        if obs is None:
            from repro.obs import DISABLED  # local: keeps import cost off hot path

            obs = DISABLED
        self._obs = obs
        self._trace = trace if trace is not None else TraceLog(sim)
        self._sim = sim
        self.kick_cost = kick_cost
        self.per_command_cost = per_command_cost
        self.kicks = 0
        self.commands = 0
        self.kick_attempts = 0
        self.kicks_dropped = 0
        self.kicks_delayed = 0
        self.delay_total_ms = 0.0
        self.fault_hook: Optional[TransportFaultHook] = None

    def dispatch_cost(self, batch_size: int) -> float:
        """Driver-side delay for one kick carrying ``batch_size`` commands."""
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        return self.kick_cost + batch_size * self.per_command_cost

    def kick(self, batch_size: int = 1, flow: int = NO_FLOW) -> Generator[Any, Any, float]:
        """Process: pay the dispatch cost for a batch; returns the delay.

        With a fault hook installed, a kick may be delayed (dispatch takes
        longer) or dropped — the cost is paid, then :class:`TransportDropError`
        is raised, because a lost doorbell burns the VM exit regardless.
        ``kicks``/``commands`` count only *successful* kicks so
        :attr:`amortized_cost` keeps its meaning under fault injection.
        ``flow`` stamps the kick's trace span with the frame it carries.
        """
        span = self._trace.begin("transport.kick", "transport", cat="transport",
                                 flow=flow, batch=batch_size)
        cost = self.dispatch_cost(batch_size)
        self.kick_attempts += 1
        verdict = self.fault_hook(self, batch_size) if self.fault_hook is not None else None
        if verdict is not None and verdict[0] == "delay":
            extra = float(verdict[1])
            self.kicks_delayed += 1
            self.delay_total_ms += extra
            cost += extra
        if cost > 0:
            yield Timeout(cost)
        if verdict is not None and verdict[0] == "drop":
            self.kicks_dropped += 1
            self._trace.end(span, dropped=True)
            raise TransportDropError(
                f"kick of {batch_size} command(s) lost across the boundary"
            )
        self.kicks += 1
        self.commands += batch_size
        self._trace.end(span)
        registry = self._obs.registry
        registry.counter("transport.kicks").inc()
        registry.counter("transport.commands").inc(batch_size)
        return cost

    def kick_reliable(
        self, batch_size: int = 1, flow: int = NO_FLOW
    ) -> Generator[Any, Any, float]:
        """Process: :meth:`kick`, retried with backoff until it lands."""
        return (
            yield from retrying(
                self._sim,
                lambda: self.kick(batch_size, flow=flow),
                KICK_RETRY_POLICY,
                retry_on=(TransportDropError,),
                name="transport.kick",
            )
        )

    @property
    def amortized_cost(self) -> float:
        """Average per-command transport cost so far."""
        if self.commands == 0:
            return 0.0
        total = self.kicks * self.kick_cost + self.commands * self.per_command_cost
        return total / self.commands

    # -- checkpointing -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Deterministic, JSON-able image of the transport counters."""
        return {
            "kicks": self.kicks,
            "commands": self.commands,
            "kick_attempts": self.kick_attempts,
            "kicks_dropped": self.kicks_dropped,
            "kicks_delayed": self.kicks_delayed,
            "delay_total_ms": self.delay_total_ms,
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate counters captured by :meth:`snapshot_state`."""
        self.kicks = state["kicks"]
        self.commands = state["commands"]
        self.kick_attempts = state["kick_attempts"]
        self.kicks_dropped = state["kicks_dropped"]
        self.kicks_delayed = state["kicks_delayed"]
        self.delay_total_ms = state["delay_total_ms"]
