"""Golden result digests: absolute values pinned across builds.

Every other digest test compares two runs of the same build, so a change
that shifts a result by one ulp everywhere would pass them all. These two
digests were recorded once and must not move: a change that alters any
FPS/latency number of the small app grid, or any number of the quick
``fleetserve`` report, fails here. A deliberate model change updates the
pinned value in the same commit and says why.
"""

import hashlib
import json

from repro.apps.ar import ArApp
from repro.apps.livestream import LivestreamApp
from repro.apps.video import UhdVideoApp
from repro.experiments.fleetserve import run_fleetserve
from repro.experiments.runner import run_app
from repro.scenario.runner import app_digest

APP_GRID_DIGEST = "fbfd192dbdec2dcb535f29b74dbdee0d64d9828f676a9d05bf6d96ed738ef4e8"
FLEETSERVE_QUICK_DIGEST = "18ca845a96f109acfa53ccb7cdf3f130251b8113c590c2b36411a2ff01f6e648"


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
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == FLEETSERVE_QUICK_DIGEST
