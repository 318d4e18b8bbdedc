"""Trace-driven breakdowns: where a frame's time goes.

Digests an emulator's trace into per-operation and per-subsystem summaries:
device op times, queueing delay, coherence copies, access blocking,
compensation. The complement to the end-to-end FPS/latency collectors —
this is what the paper's authors would have read when their instrumented
emulators told them coherence was eating the frame budget (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.collectors import maintenances
from repro.metrics.stats import summarize
from repro.sim.tracing import TraceLog


@dataclass
class OpBreakdown:
    """One device operation's aggregate timing."""

    vdev: str
    op: str
    count: int
    mean_queue_delay_ms: float


@dataclass
class FrameBudgetReport:
    """Where the per-frame time budget went, across one run."""

    duration_ms: float
    ops: List[OpBreakdown] = field(default_factory=list)
    coherence_summary: Optional[Dict[str, float]] = None
    access_latency_summary: Optional[Dict[str, float]] = None
    slack_summary: Optional[Dict[str, float]] = None
    compensation_total_ms: float = 0.0
    chain_reaction_equivalent_ms: float = 0.0
    coherence_by_path: Dict[str, int] = field(default_factory=dict)

    def busiest_ops(self, top: int = 5) -> List[OpBreakdown]:
        return sorted(self.ops, key=lambda o: -o.count)[:top]


def frame_budget_report(trace: TraceLog, duration_ms: float) -> FrameBudgetReport:
    """Build a :class:`FrameBudgetReport` from an emulator trace."""
    report = FrameBudgetReport(duration_ms=duration_ms)

    per_op: Dict[tuple, List[float]] = {}
    compensation = 0  # int 0 when nothing was compensated, as sum() of none gives
    for event in trace:
        if event.cat == "exec":
            key = (event["vdev"], event["op"])
            per_op.setdefault(key, []).append(float(event["queue_delay"]))
        elif event.cat == "stage" and event["compensation"] > 0:
            compensation += float(event["compensation"])
    for (vdev, op), delays in sorted(per_op.items()):
        report.ops.append(OpBreakdown(
            vdev=vdev,
            op=op,
            count=len(delays),
            mean_queue_delay_ms=sum(delays) / len(delays),
        ))

    copies = maintenances(trace)
    coherence = [float(e["duration"]) for e in copies]
    if coherence:
        report.coherence_summary = summarize(coherence)
    for event in copies:
        path = event.get("path", "unknown")
        report.coherence_by_path[path] = report.coherence_by_path.get(path, 0) + 1

    access = [float(v) for v in trace.values("svm.begin_access", "latency")]
    if access:
        report.access_latency_summary = summarize(access)

    slack = [float(v) for v in trace.values("svm.slack", "slack")]
    if slack:
        report.slack_summary = summarize(slack)

    report.compensation_total_ms = compensation
    return report


def format_report(report: FrameBudgetReport) -> str:
    """Human-readable rendering (used by examples and the CLI)."""
    lines = [f"Frame-budget report over {report.duration_ms:.0f} ms simulated:"]
    lines.append("  device ops (count, mean queue delay):")
    for op in report.busiest_ops():
        lines.append(
            f"    {op.vdev:8s} {op.op:12s} x{op.count:<6d} "
            f"queue {op.mean_queue_delay_ms:6.2f} ms"
        )
    if report.coherence_summary:
        s = report.coherence_summary
        paths = ", ".join(f"{k}={v}" for k, v in sorted(report.coherence_by_path.items()))
        lines.append(
            f"  coherence: n={s['n']:.0f} mean={s['mean']:.2f} ms "
            f"p99={s['p99']:.2f} ms ({paths})"
        )
    if report.access_latency_summary:
        s = report.access_latency_summary
        lines.append(
            f"  access latency: mean={s['mean']:.2f} ms p99={s['p99']:.2f} ms"
        )
    if report.slack_summary:
        s = report.slack_summary
        lines.append(f"  slack intervals: mean={s['mean']:.2f} ms p99={s['p99']:.2f} ms")
    lines.append(f"  compensation injected: {report.compensation_total_ms:.1f} ms total")
    return "\n".join(lines)
