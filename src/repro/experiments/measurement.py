"""The §2.3 measurement study: Figures 4, 5 and 6.

* **Fig 4** — CDF of shared-memory region sizes across the 50 emerging
  apps, per platform. The two spikes the paper calls out — 9.9 MiB
  display buffers and 15.8 MiB UHD frames — come straight out of the
  workloads' allocations.
* **Fig 5** — CDF of coherence maintenance durations on GAE and QEMU-KVM
  (paper averages: 7.1 ms and 6.2 ms).
* **Fig 6** — CDF of slack intervals on the three platforms (avg 17.2 ms;
  buffered pipelines >30 ms, unbuffered <20 ms).

The physical Pixel 6a is simulated by the ``device-proxy`` platform: a
vSoC instance, whose unified architecture is the closest stand-in for an
SoC's unified memory (slack intervals are OS-level and hardware-
independent, which is the paper's own argument for why emulator and
device slacks coincide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.catalog import emerging_apps
from repro.experiments.runner import DEFAULT_DURATION_MS, run_app
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec
from repro.metrics.stats import cdf_points, mean

#: Platform label → emulator used to produce its traces.
MEASUREMENT_PLATFORMS = {
    "device-proxy": "vSoC",
    "GAE": "GAE",
    "QEMU-KVM": "QEMU-KVM",
}


#: Virtual devices attributed to each §2.3 system service.
SERVICE_VDEVS = {
    "media service": ("codec",),
    "SurfaceFlinger": ("gpu", "display"),
    "camera service": ("camera", "isp"),
    "apps (CPU)": ("cpu",),
    "other": ("modem",),
}


@dataclass
class MeasurementResult:
    """Raw per-platform samples for Figures 4-6 + the §2.3 observations."""

    platform: str
    region_sizes: List[int] = field(default_factory=list)
    coherence_durations: List[float] = field(default_factory=list)
    slack_intervals: List[float] = field(default_factory=list)
    api_calls_per_second: float = 0.0
    #: accesses per virtual device (→ per system service)
    accesses_by_vdev: Dict[str, int] = field(default_factory=dict)
    #: per-region distinct accessor counts (paper: 99% serve 1-2 processes)
    accessors_per_region: List[int] = field(default_factory=list)
    #: fraction of multi-process regions showing the cyclic W/R pattern
    cyclic_fraction: Optional[float] = None

    def access_share_by_service(self) -> Dict[str, float]:
        """§2.3: media 28%, SurfaceFlinger 23%, camera service 19%, ..."""
        total = sum(self.accesses_by_vdev.values())
        if not total:
            return {}
        shares: Dict[str, float] = {}
        for service, vdevs in SERVICE_VDEVS.items():
            count = sum(self.accesses_by_vdev.get(v, 0) for v in vdevs)
            if count:
                shares[service] = count / total
        return shares

    def few_accessor_fraction(self) -> Optional[float]:
        """Fraction of regions serving at most two accessors (paper: 99%)."""
        if not self.accessors_per_region:
            return None
        few = sum(1 for n in self.accessors_per_region if n <= 2)
        return few / len(self.accessors_per_region)

    def size_cdf(self):
        return cdf_points([float(s) for s in self.region_sizes])

    def coherence_cdf(self):
        return cdf_points(self.coherence_durations)

    def slack_cdf(self):
        return cdf_points(self.slack_intervals)

    @property
    def mean_coherence(self) -> Optional[float]:
        return mean(self.coherence_durations) if self.coherence_durations else None

    @property
    def mean_slack(self) -> Optional[float]:
        return mean(self.slack_intervals) if self.slack_intervals else None


def run_measurement(
    platform: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    apps_per_category: int = 10,
    seed: int = 0,
) -> MeasurementResult:
    """Instrument the emerging apps on one platform (§2.3 methodology)."""
    emulator_name = MEASUREMENT_PLATFORMS[platform]
    result = MeasurementResult(platform=platform)
    total_calls = 0
    ran = 0
    cyclic_regions = 0
    pipeline_regions = 0
    for app in emerging_apps(seed=seed, per_category=apps_per_category):
        run = run_app(app, emulator_name, machine_spec, duration_ms, seed=seed)
        if not run.result.ran or run.stats is None:
            continue
        ran += 1
        trace = run.stats.trace
        result.region_sizes.extend(int(r["size"]) for r in trace.of_kind("svm.alloc"))
        result.coherence_durations.extend(run.stats.coherence_durations())
        result.slack_intervals.extend(run.stats.slack_intervals())
        total_calls += trace.count("svm.begin_access") + trace.count("svm.access_end")
        # -- the §2.3 observations -----------------------------------------
        per_region_accessors: Dict[int, set] = {}
        per_region_usage: Dict[int, List[str]] = {}
        for record in trace.of_kind("svm.begin_access"):
            vdev = record.track
            result.accesses_by_vdev[vdev] = result.accesses_by_vdev.get(vdev, 0) + 1
            rid = record["region"]
            per_region_accessors.setdefault(rid, set()).add(vdev)
            per_region_usage.setdefault(rid, []).append(record["usage"])
        result.accessors_per_region.extend(
            len(v) for v in per_region_accessors.values()
        )
        for rid, usages in per_region_usage.items():
            if len(per_region_accessors[rid]) < 2 or len(usages) < 4:
                continue
            pipeline_regions += 1
            if _is_cyclic(usages):
                cyclic_regions += 1
    if ran:
        result.api_calls_per_second = total_calls / ran / (duration_ms / 1000.0)
    if pipeline_regions:
        result.cyclic_fraction = cyclic_regions / pipeline_regions
    return result


def _is_cyclic(usages: List[str]) -> bool:
    """The §2.3 pattern: write, read(s), write, read(s), ... in strict
    alternation of direction (a one-way data pipeline)."""
    transitions = 0
    violations = 0
    previous = None
    for usage in usages:
        writes = usage in ("wo", "rw")
        if previous is None:
            previous = writes
            continue
        if writes == previous and writes:
            violations += 1  # two writes with no read between them
        if writes != previous:
            transitions += 1
        previous = writes
    if transitions == 0:
        return False
    return violations <= 0.04 * len(usages)  # 96%-regular, like the paper


def run_fig4(duration_ms: float = DEFAULT_DURATION_MS, apps_per_category: int = 10,
             seed: int = 0) -> Dict[str, MeasurementResult]:
    """Region-size CDFs on all three platforms."""
    return {
        platform: run_measurement(platform, duration_ms=duration_ms,
                                  apps_per_category=apps_per_category, seed=seed)
        for platform in MEASUREMENT_PLATFORMS
    }


def run_fig5(duration_ms: float = DEFAULT_DURATION_MS, apps_per_category: int = 10,
             seed: int = 0) -> Dict[str, MeasurementResult]:
    """Coherence-duration CDFs on the two instrumentable emulators."""
    return {
        platform: run_measurement(platform, duration_ms=duration_ms,
                                  apps_per_category=apps_per_category, seed=seed)
        for platform in ("GAE", "QEMU-KVM")
    }


def run_fig6(duration_ms: float = DEFAULT_DURATION_MS, apps_per_category: int = 10,
             seed: int = 0) -> Dict[str, MeasurementResult]:
    """Slack-interval CDFs on the three platforms."""
    return run_fig4(duration_ms, apps_per_category, seed)


def prevalent_sizes(result: MeasurementResult, top: int = 2) -> List[int]:
    """The most frequent allocation sizes (Fig 4's 9.9 / 15.8 MiB spikes)."""
    counts: Dict[int, int] = {}
    for size in result.region_sizes:
        counts[size] = counts.get(size, 0) + 1
    return [size for size, _n in sorted(counts.items(), key=lambda kv: -kv[1])[:top]]
