"""Golden result digests: absolute values pinned across builds.

Every other digest test compares two runs of the same build, so a change
that shifts a result by one ulp everywhere would pass them all. These
digests were recorded once and must not move: a change that alters any
FPS/latency number of the small app grid, any number of the quick
``fleetserve`` report, or any number of an overloaded fleet run (the only
one here whose workers' service factor moves off 1.0), fails here. A deliberate model change updates the
pinned value in the same commit and says why. The trace-derived pin
covers the numbers read back from the event ring rather than from the
apps: SVM access/coherence/slack samples, the frame-budget breakdown and
the resilience accounting of one faulted run.
"""

import hashlib
import json

from repro.apps.ar import ArApp
from repro.apps.livestream import LivestreamApp
from repro.apps.video import UhdVideoApp
from repro.experiments.fleetserve import run_fleetserve
from repro.experiments.runner import run_app
from repro.fleet import FleetService, crash_storm_plan, generate_trace
from repro.scenario.runner import app_digest

APP_GRID_DIGEST = "fbfd192dbdec2dcb535f29b74dbdee0d64d9828f676a9d05bf6d96ed738ef4e8"
FLEETSERVE_QUICK_DIGEST = "18ca845a96f109acfa53ccb7cdf3f130251b8113c590c2b36411a2ff01f6e648"
OVERLOADED_FLEET_DIGEST = "56e2b2f5ce798a42031737f1da9190c14c8d6e9968d55afcf5457d9aa6a3ad8a"
TRACE_NUMBERS_DIGEST = "c6119c8f7fa408aebb1a2e142fd18950a17d4745c2af77955456e95cd848bac2"


def _sha256_canonical(report):
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_app_grid_digest_is_pinned():
    results = [
        run_app(factory(), emulator, duration_ms=2_000.0, seed=0).result
        for factory in (ArApp, UhdVideoApp, LivestreamApp)
        for emulator in ("vSoC", "QEMU-KVM", "GAE")
    ]
    assert all(r.ran and r.presented > 0 for r in results)
    assert app_digest(results) == APP_GRID_DIGEST


def test_fleetserve_quick_report_digest_is_pinned():
    report = run_fleetserve(seed=0, quick=True)
    assert _sha256_canonical(report) == FLEETSERVE_QUICK_DIGEST


def test_overloaded_fleet_report_digest_is_pinned():
    # Three 8-unit workers under a crash storm with a hang: rebalances,
    # evacuations and dozens of ticks whose service factor changes.
    service = FleetService(n_workers=3, worker_capacity=8.0)
    service.serve(
        generate_trace(seed=3, horizon_ms=8_000.0, base_rate_per_s=20.0),
        plan=crash_storm_plan(["w00", "w01", "w02"], start_ms=2_000.0,
                              crashes=1, seed=3, include_hang=True),
    )
    report = service.report()
    stats = report["summary"]["stats"]
    assert stats["rebalances"] > 0 and stats["evacuations"] > 0
    assert _sha256_canonical(report) == OVERLOADED_FLEET_DIGEST


def _trace_fault_plan():
    """Walks the degradation ladder both ways, retries copies, drops kicks
    and crashes one virtual device, all inside 2 s."""
    from repro.faults import FaultPlan

    return (
        FaultPlan()
        .flap_bus("pcie", start_ms=400.0, period_ms=300.0, cycles=3, high_load=0.85)
        .copy_faults(500.0, 1_400.0, probability=0.7, bus="pcie")
        .transport_faults(600.0, 1_200.0, drop_probability=0.25)
        .crash_device(900.0, "codec", downtime_ms=200.0)
    )


def _trace_numbers():
    """Every number the trace-reading consumers derive, for a small grid."""
    from dataclasses import asdict

    from repro.experiments.chaos import run_chaos
    from repro.metrics.breakdown import frame_budget_report
    from repro.metrics.collectors import ResilienceStats

    out = {}
    for factory in (ArApp, UhdVideoApp):
        for emulator in ("vSoC", "QEMU-KVM"):
            run = run_app(factory(), emulator, duration_ms=2_000.0, seed=0)
            stats = run.stats
            out[f"{run.result.app}/{emulator}"] = {
                "access_latencies": stats.access_latencies(),
                "coherence_durations": stats.coherence_durations(),
                "slack_intervals": stats.slack_intervals(),
                "throughput": stats.throughput_bytes_per_ms(),
                "breakdown": asdict(frame_budget_report(run.emulator.trace, 2_000.0)),
            }
    chaos = run_chaos("vSoC", duration_ms=2_000.0, seed=0,
                      plan=_trace_fault_plan(), keep_trace=True)
    resilience = ResilienceStats(chaos.trace)
    out["chaos"] = {
        "summary": resilience.summary(),
        "time_in_degraded_mode": resilience.time_in_degraded_mode(2_000.0),
    }
    return out


def test_trace_derived_numbers_are_pinned():
    numbers = _trace_numbers()
    chaos = numbers["chaos"]["summary"]
    assert chaos["degrades"] > 0 and chaos["retries"] > 0 and chaos["crashes"] > 0
    assert _sha256_canonical(numbers) == TRACE_NUMBERS_DIGEST
