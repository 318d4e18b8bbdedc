"""Tests of the benchmark itself: seeded inputs, result digests, tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.inputs_digest(workload, workloads.make_inputs(workload, 7))
    again = workloads.inputs_digest(workload, workloads.make_inputs(workload, 7))
    other = workloads.inputs_digest(workload, workloads.make_inputs(workload, 8))
    assert first == again
    assert first != other
    later = workloads.inputs_digest(workload, workloads.make_inputs(workload, 7, 1))
    assert (later != first) == (workload in workloads.FRESH_PICKS)


def test_grid_covers_every_category_tier_and_emulator():
    specs = workloads.grid_inputs(3)
    assert len(specs) == 48
    assert len({s.emulator for s in specs}) == 6
    names = {s.app_name for s in specs}
    assert len(names) == 8
    assert len([n for n in names if n.startswith("pop-")]) == 3


def test_passes_of_a_run_do_not_repeat_an_app_until_its_group_is_used_up():
    # The heavy popular tier, the smallest group, has 6 apps.
    passes = [{s.app_name for s in workloads.grid_inputs(4, i)} for i in range(6)]
    for i, names in enumerate(passes):
        for other in passes[:i]:
            assert not names & other
    explain = [{a.app_name for a, _ in workloads.explain_inputs(4, i)} for i in range(3)]
    assert not (explain[0] & explain[1]) and not (explain[1] & explain[2])


def test_explain_picks_run_on_both_emulators():
    pairs = workloads.explain_inputs(5)
    assert len(pairs) == 8
    for attributed, plain in pairs:
        assert attributed.attribution and not plain.attribution
        assert workloads.catalog.can_run(attributed.app_name, attributed.emulator)


def _small_inputs(workload, seed):
    inputs = workloads.make_inputs(workload, seed)
    if workload == "grid":
        return inputs[::8]  # one app on each emulator
    if workload == "explain":
        return inputs[:2]  # one app on vSoC and QEMU-KVM
    return inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_result_digest(workload, tmp_path):
    inputs = _small_inputs(workload, 11)
    first = workloads.run_pass(workload, inputs, tmp_path)
    again = workloads.run_pass(workload, _small_inputs(workload, 11), tmp_path)
    assert first.problems == [] and first.failed == 0
    assert first.digest == again.digest


def test_traced_pass_matches_untraced_and_folds_exactly(tmp_path):
    inputs = _small_inputs("explain", 2)
    plain = workloads.run_pass("explain", inputs, tmp_path)
    log = layers.SpanLog()
    instrumentation = layers.Instrumentation(log)
    instrumentation.install()
    try:
        start = layers.time.perf_counter_ns()
        traced = workloads.run_pass("explain", inputs, tmp_path)
        end = layers.time.perf_counter_ns()
    finally:
        instrumentation.remove()
    assert traced.digest == plain.digest

    folded = log.fold(start, end)
    assert sum(folded["self_ns"].values()) + folded["unattributed_ns"] == end - start
    metrics = layers.layer_metrics(log, folded, {})
    assert metrics["sim.events"][0] > 0 and metrics["emulators.stages"][0] > 0
    assert metrics["fleet.advances"][0] == 0

    path = tmp_path / "spans.bin"
    log.write(path)
    spans = layers.read_spans(path)
    assert list(spans["start"]) == list(log.start)
    assert spans["names"] == log.names

    # Every wrapper is gone again: a fresh run records nothing.
    before = len(log)
    workloads.run_pass("explain", inputs, tmp_path)
    assert len(log) == before


def test_reference_seconds_scale_with_the_kernels_local_speed():
    speed = hostspeed.HostSpeed()
    speed.at = [1.0, 1.1, 1.2, 1.3]
    speed.took = [hostspeed.REF_S] * 4
    outside = 0.4 - 4 * hostspeed.REF_S  # the interval minus the samples in it
    # At nominal speed reference seconds are the time outside the samples.
    assert speed.seconds(0.95, 1.35) == pytest.approx(outside)
    # A host running the kernel at half speed reads half the seconds.
    speed.took = [2 * hostspeed.REF_S] * 4
    speed._local = None
    assert speed.seconds(0.95, 1.35) == pytest.approx((0.4 - 8 * hostspeed.REF_S) / 2)


def test_host_speed_samples_on_a_timer_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(interval_s=0.01) as speed:
        end = hostspeed.time.perf_counter() + 0.1
        while hostspeed.time.perf_counter() < end:
            pass
    assert len(speed.took) >= 3 and all(t > 0 for t in speed.took)
    assert signal.getsignal(signal.SIGALRM) == before
