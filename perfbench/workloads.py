"""The benchmark's three workloads: seeded inputs, one pass each, checks.

Each workload is built from the benchmark seed alone and handed to the
public API of ``src/repro``; the program sees only the generated inputs.

* ``grid``: one catalog app per emerging category and per popular tier,
  on all six emulators, 8 s of simulated time each, through
  ``engine.run_many(jobs=1)`` into a fresh ``RunCache``, then one warm pass.
* ``explain``: for UHD video, camera, AR and livestream, one catalog app
  that both vSoC and QEMU-KVM can run, 4 s of simulated time each; each
  point runs attributed and as a plain twin, interleaved, then the
  vSoC/QEMU-KVM budgets are diffed.
* ``fleet``: the full ``fleetserve`` shape (24 workers, 30 s horizon,
  900 arrivals/s, a flash crowd, a crash storm with a hang and a slow
  heartbeat), served by ``FleetService.serve``.

A pass returns a :class:`PassResult`: the ``time.perf_counter()``
intervals it timed, a digest of everything it computed, and the outcome of
every output check. ``run.py`` turns the intervals into host-speed-corrected
seconds (``hostspeed.py``) once the run is over.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.apps import catalog
from repro.emulators import EMULATOR_FACTORIES
from repro.experiments import engine, explain, fleetserve
from repro.fleet import FlashCrowd, FleetService, crash_storm_plan, generate_trace
from repro.obs import critical, diff
from repro.scenario.runner import app_digest

WORKLOADS = ("grid", "explain", "fleet")

#: Simulated length of every grid point (the ``explain`` CLI default).
POINT_MS = 8_000.0
#: Simulated length of every explain point. Attribution costs 1.5-3.4x a
#: plain run depending on the app, so ``overhead_x`` moves with the apps a
#: run covers; half-length points let a 35 s run cover all 33
#: eligible apps instead of ~16.
EXPLAIN_POINT_MS = 4_000.0

#: Catalog name prefix of each emerging category (Table 1 row order).
CATEGORY_PREFIX = {
    "UHD Video": "uhd-", "360 Video": "360-", "Camera": "cam-",
    "AR": "ar-", "Livestream": "live-",
}

#: The categories ``explain`` attributes, and the emulator pair it diffs.
EXPLAIN_CATEGORIES = ("UHD Video", "Camera", "AR", "Livestream")
EXPLAIN_PAIR = ("vSoC", "QEMU-KVM")

#: ``AppResult.fail_reason`` of a point the compatibility table refuses.
INCOMPATIBLE_REASON = "app incompatible with this emulator"


#: ``(start, end)`` of a timed stretch, in ``time.perf_counter()`` seconds.
Interval = Tuple[float, float]


@dataclass
class PassResult:
    """One pass of a workload: timed intervals, digest and checks."""

    digest: str
    attempted: int
    failed: int
    problems: List[str]
    #: Each point that ran (grid/explain app run, fleet serve). A refused
    #: point does no work, so it is not a latency sample.
    points: List[Interval]
    #: Simulated seconds completed, and the intervals spent simulating them.
    sim_s: float
    sim_host: List[Interval]
    #: Completed session-seconds, and the whole pass.
    session_s: float
    whole: Interval
    #: The instrumented path and its plain counterpart.
    overhead: Tuple[List[Interval], List[Interval]]
    info: Dict[str, Any] = field(default_factory=dict)


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _nth_pick(rng: random.Random, group: List[Any], pass_index: int) -> Any:
    """Pass ``pass_index``'s pick from ``group``, drawn without replacement.

    ``rng`` is seeded by the run, not the pass, so it shuffles ``group`` the
    same way for every pass of a run: passes walk one seeded order and a run
    covers as many distinct apps per group as it has passes.
    """
    order = list(group)
    rng.shuffle(order)
    return order[pass_index % len(order)]


def grid_inputs(seed: int, pass_index: int = 0) -> List[engine.RunSpec]:
    """8 catalog apps (one per emerging category and popular tier) x 6 emulators."""
    rng = random.Random(f"perfbench-grid:{seed}")
    emerging = catalog.emerging_app_params()
    groups = [[p for p in emerging if p[1]["name"].startswith(prefix)]
              for prefix in CATEGORY_PREFIX.values()]
    # popular_app_params lists the apps tier by tier (light, medium, heavy).
    popular = catalog.popular_app_params()
    start = 0
    for _tier, count in catalog._POPULAR_TIERS:
        groups.append(popular[start:start + count])
        start += count
    picks = [_nth_pick(rng, group, pass_index) for group in groups]
    per_pass = random.Random(f"perfbench-grid:{seed}:{pass_index}")
    run_seed = per_pass.randrange(2**31)
    specs = [
        engine.RunSpec(app_factory=path, app_kwargs=kwargs, emulator=emulator,
                       duration_ms=POINT_MS, seed=run_seed)
        for emulator in EMULATOR_FACTORIES
        for path, kwargs in picks
    ]
    # Run the points in a seeded order, so points of similar cost (one
    # emulator's row) are spread over the pass instead of timed back to back.
    per_pass.shuffle(specs)
    return specs


def explain_inputs(seed: int, pass_index: int = 0) -> List[Tuple[engine.RunSpec, engine.RunSpec]]:
    """(attributed, plain) twins: 4 apps x the vSoC/QEMU-KVM pair."""
    rng = random.Random(f"perfbench-explain:{seed}")
    seeds = random.Random(f"perfbench-explain:{seed}:{pass_index}")
    emerging = catalog.emerging_app_params()
    pairs = []
    for category in EXPLAIN_CATEGORIES:
        runnable = [
            p for p in emerging
            if p[1]["name"].startswith(CATEGORY_PREFIX[category])
            and all(catalog.can_run(p[1]["name"], emu) for emu in EXPLAIN_PAIR)
        ]
        path, kwargs = _nth_pick(rng, runnable, pass_index)
        run_seed = seeds.randrange(2**31)
        for emulator in EXPLAIN_PAIR:
            plain = engine.RunSpec(app_factory=path, app_kwargs=kwargs, emulator=emulator,
                                   duration_ms=EXPLAIN_POINT_MS, seed=run_seed)
            attributed = engine.RunSpec(app_factory=path, app_kwargs=kwargs,
                                        emulator=emulator, duration_ms=EXPLAIN_POINT_MS,
                                        seed=run_seed, telemetry=True, attribution=True)
            pairs.append((attributed, plain))
    return pairs


@dataclass(frozen=True)
class FleetInputs:
    trace: Any  # ArrivalTrace
    plan: Any  # FaultPlan
    seed: int


def fleet_inputs(seed: int) -> FleetInputs:
    """The full ``fleetserve`` shape: arrival trace plus crash-storm plan."""
    shape = fleetserve.FULL_SHAPE
    horizon = shape["horizon_ms"]
    trace = generate_trace(
        seed=seed,
        horizon_ms=horizon,
        base_rate_per_s=shape["rate_per_s"],
        mean_session_ms=shape["mean_session_ms"],
        flash_crowds=(FlashCrowd(peak_ms=horizon * 0.6, amplitude=1.6,
                                 sigma_ms=horizon * 0.08),),
    )
    plan = crash_storm_plan(
        [f"w{i:02d}" for i in range(shape["workers"])],
        start_ms=horizon * 0.3,
        crashes=shape["crashes"],
        downtime_ms=800.0,
        seed=seed,
        include_hang=True,
        include_slow_heartbeat=True,
    )
    return FleetInputs(trace, plan, seed)


#: Workloads whose every pass draws fresh app picks (``_nth_pick``), so a
#: run's medians cover many catalog apps and do not hinge on which 8 (or 4)
#: apps one draw picked. ``fleet`` serves one trace in every pass: its ~30k
#: sessions already sample the session population.
FRESH_PICKS = ("grid", "explain")


def make_inputs(workload: str, seed: int, pass_index: int = 0) -> Any:
    """The inputs of pass ``pass_index`` of a run with ``seed``."""
    if workload == "grid":
        return grid_inputs(seed, pass_index)
    if workload == "explain":
        return explain_inputs(seed, pass_index)
    return fleet_inputs(seed)


def inputs_digest(workload: str, inputs: Any) -> str:
    """Digest of the generated inputs (what the program is handed)."""
    if workload == "grid":
        return _sha([engine.canonical_spec(s) for s in inputs])
    if workload == "explain":
        return _sha([[engine.canonical_spec(a), engine.canonical_spec(p)] for a, p in inputs])
    return _sha({
        "sessions": [s.recipe() for s in inputs.trace.sessions],
        "horizon_ms": inputs.trace.horizon_ms,
        "plan": inputs.plan.to_dict(),
    })


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _point_problems(spec: engine.RunSpec, result: Any) -> List[str]:
    """A ran point presented frames; a refused one was refused for its reason."""
    where = f"{spec.app_name} on {spec.emulator}"
    reason = result.fail_reason or ""
    if not catalog.can_run(spec.app_name, spec.emulator):
        if result.ran or not reason.startswith(INCOMPATIBLE_REASON):
            return [f"{where}: the compatibility table refuses it, but got ran={result.ran}"]
        return []
    if not result.ran:
        # Structural capability gaps (no camera, no encoder) refuse at install.
        if not reason or reason.startswith(INCOMPATIBLE_REASON):
            return [f"{where}: refused without a capability error ({reason!r})"]
        return []
    if result.presented <= 0 or not result.fps > 0:
        return [f"{where}: ran but presented no frames"]
    return []


def grid_pass(specs: List[engine.RunSpec], workdir: Path) -> PassResult:
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    cache_dir = tempfile.mkdtemp(prefix="grid-", dir=workdir)
    points: List[Interval] = []
    execute = engine.execute_spec

    def timed(spec):
        start = time.perf_counter()
        try:
            return execute(spec)
        finally:
            points.append((start, time.perf_counter()))

    try:
        store = engine.RunCache(cache_dir)
        engine.execute_spec = timed
        try:
            c0 = time.perf_counter()
            cold = engine.run_many(specs, jobs=1, cache=store)
            c1 = time.perf_counter()
        finally:
            engine.execute_spec = execute
        warm = engine.run_many(specs, jobs=1, cache=store)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    problems: List[str] = []
    failed = set()
    for i, (spec, run, again) in enumerate(zip(specs, cold.results, warm.results)):
        found = _point_problems(spec, run.result)
        if app_digest([run.result]) != app_digest([again.result]):
            found.append(f"{spec.app_name} on {spec.emulator}: warm result differs")
        if found:
            failed.add(i)
            problems.extend(found)
    if warm.hit_rate != 1.0:
        problems.append(f"warm pass hit rate {warm.hit_rate} != 1.0")
        failed.update(range(len(specs)))
    results = [r.result for r in cold.results]
    ran = [r for r in results if r.ran]
    # A fresh cache misses every point, so run_many executed them in order.
    if len(points) != len(specs):
        problems.append(f"{len(points)} of {len(specs)} points executed cold")
        failed.update(range(len(specs)))
    return PassResult(
        digest=app_digest(results),
        attempted=len(specs),
        failed=len(failed),
        problems=problems,
        points=[p for p, r in zip(points, results) if r.ran],
        sim_s=sum(r.duration_ms for r in ran) / 1_000.0,
        sim_host=[(c0, c1)],
        session_s=sum(r.duration_ms for r in ran) / 1_000.0,
        whole=(t0, time.perf_counter()),
        overhead=([(c0, c1)], points),
        info={"ran": len(ran), "refused": len(results) - len(ran),
              "hit_rate": warm.hit_rate},
    )


def _timed_run(spec: engine.RunSpec) -> Tuple[Any, Interval]:
    start = time.perf_counter()
    report = engine.run_many([spec], jobs=1, cache=False)
    return report.results[0], (start, time.perf_counter())


def explain_pass(pairs: List[Tuple[engine.RunSpec, engine.RunSpec]]) -> PassResult:
    t0 = time.perf_counter()
    problems: List[str] = []
    failed = set()
    attributed_runs: List[Interval] = []
    plain_runs: List[Interval] = []
    budgets: Dict[Tuple[str, str], Any] = {}
    reports: Dict[Tuple[str, str], Dict[str, Any]] = {}
    results = []
    for i, (attributed, plain) in enumerate(pairs):
        app, emulator = attributed.app_name, attributed.emulator
        where = f"{app} on {emulator}"
        # Alternate which twin runs first, so neither always runs warm.
        order = [(attributed, True), (plain, False)]
        if i % 2:
            order.reverse()
        outcome = {}
        for spec, is_attributed in order:
            try:
                run, interval = _timed_run(spec)
            except critical.TruncatedTraceError as err:
                problems.append(f"{where}: {err}")
                failed.add(i)
                run = None
                continue
            outcome[is_attributed] = run
            (attributed_runs if is_attributed else plain_runs).append(interval)
        run, twin = outcome.get(True), outcome.get(False)
        if run is None or twin is None:
            continue
        results.extend([run.result, twin.result])
        if app_digest([run.result]) != app_digest([twin.result]):
            problems.append(f"{where}: attribution changed the run's results")
            failed.add(i)
        budget = critical.budget_from_snapshot(run.telemetry)
        if budget is None:
            problems.append(f"{where}: attributed run produced no budget")
            failed.add(i)
            continue
        report = explain.attribution_report(budget, app, emulator, EXPLAIN_POINT_MS,
                                            attributed.seed)
        found = explain.validate_attribution(report) + budget.conservation_errors()
        if found:
            problems.extend(f"{where}: {p}" for p in found)
            failed.add(i)
        budgets[(app, emulator)] = budget
        reports[(app, emulator)] = report

    headlines = []
    base_emu, other_emu = EXPLAIN_PAIR
    for i in range(0, len(pairs), len(EXPLAIN_PAIR)):
        app = pairs[i][0].app_name
        if (app, base_emu) not in budgets or (app, other_emu) not in budgets:
            continue
        delta = diff.diff_budgets(budgets[(app, base_emu)], budgets[(app, other_emu)],
                                  seed=pairs[i][0].seed)
        payload = explain.diff_report(reports[(app, base_emu)], reports[(app, other_emu)], delta)
        found = explain.validate_attribution_diff(payload)
        if found:
            problems.extend(f"{app} diff: {p}" for p in found)
            failed.update(range(i, i + len(EXPLAIN_PAIR)))
        headlines.append(payload["headline"])

    ran_s = sum(r.duration_ms for r in results if r.ran) / 1_000.0
    return PassResult(
        digest=_sha({
            "results": app_digest(results),
            "budgets": [reports[k]["budget"] for k in sorted(reports)],
            "headlines": headlines,
        }),
        attempted=len(pairs),
        failed=len(failed),
        problems=problems,
        points=attributed_runs,
        sim_s=EXPLAIN_POINT_MS / 1_000.0 * len(attributed_runs),
        sim_host=attributed_runs,
        session_s=ran_s,
        whole=(t0, time.perf_counter()),
        overhead=(attributed_runs, plain_runs),
        info={"headlines": headlines},
    )


def fleet_pass(inputs: FleetInputs) -> PassResult:
    shape = fleetserve.FULL_SHAPE
    t0 = time.perf_counter()
    service = FleetService(
        n_workers=int(shape["workers"]),
        worker_capacity=float(shape["capacity"]),
        initial_window=1_024.0,
        max_window=16_384.0,
    )
    service.serve(inputs.trace, plan=inputs.plan)
    t1 = time.perf_counter()
    report = service.report()
    t2 = time.perf_counter()
    report["shape"] = {k: shape[k] for k in sorted(shape)}
    report["seed"] = inputs.seed
    problems = fleetserve.check_fleetserve(report)
    stats = report["summary"]["stats"]
    shed = {row["session"] for row in report["sheds"]}
    if len(shed) != stats["shed"]:
        problems.append(f"shed ledger lists {len(shed)} of {stats['shed']} shed sessions")
    session_ms = sum(s.duration_ms for s in inputs.trace.sessions
                     if s.session_id not in shed)
    failed = stats["shed"] + stats["lost"]
    if problems:
        failed = stats["offered"]
    digest = _sha(report)
    return PassResult(
        digest=digest,
        attempted=stats["offered"],
        failed=failed,
        problems=problems,
        points=[(t0, t1)],
        sim_s=report["summary"]["until_ms"] / 1_000.0,
        sim_host=[(t0, t1)],
        session_s=session_ms / 1_000.0,
        whole=(t0, time.perf_counter()),
        overhead=([(t0, t2)], [(t0, t1)]),
        info={"sessions": stats["offered"], "peak": stats["peak_concurrent"],
              "migrations": stats["migrations"]},
    )


def run_pass(workload: str, inputs: Any, workdir: Path) -> PassResult:
    if workload == "grid":
        return grid_pass(inputs, workdir)
    if workload == "explain":
        return explain_pass(inputs)
    return fleet_pass(inputs)
