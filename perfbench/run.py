"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics: it times the set-up in
fresh interpreters, then repeats whole passes of the workload for
``--seconds`` and pools them. Every time is in reference seconds
(``hostspeed.py``): host time corrected for the host's speed drift, which
is sampled all through the run; the human lines give plain host time too.
``--trace 1`` runs one untraced and one traced pass over the same inputs
and reports the per-layer metrics of ``perfbench/layers.py``. Every pass
checks the program's outputs; any failed check makes the command exit with
status 1. Without the program's
source under ``src/repro`` it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (run caches, span files).
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh-interpreter set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
#: Seconds between host-speed samples inside a set-up (it lasts ~0.5-1 s).
SETUP_SAMPLE_S = 0.05
SETUP_TIMEOUT_S = 60.0
MAX_PRINTED_PROBLEMS = 20


def _p50_p75(values):
    if len(values) == 1:
        return values[0], values[0]
    _q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_only(workload: str, seed: int) -> int:
    """What one set-up does: imports, fingerprint, inputs. Prints their digest,
    then the host-speed samples taken meanwhile."""
    with hostspeed.HostSpeed(SETUP_SAMPLE_S) as speed:
        import workloads

        if workload == "grid":
            workloads.engine.source_fingerprint()
            WORK.mkdir(parents=True, exist_ok=True)
        inputs = workloads.make_inputs(workload, seed)
        digest = workloads.inputs_digest(workload, inputs)
    print(digest)
    print(json.dumps(speed.took))
    return 0


def _time_setups(workload: str, seed: int, expected: str) -> tuple:
    """SETUP_REPEATS fresh set-ups, each of which must agree on the inputs.

    Returns their reference seconds and their plain wall seconds. A set-up's
    reference seconds are its wall time outside the kernel samples, scaled
    by the median kernel time the set-up itself measured.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    corrected, walls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        wall = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) != 2 or lines[0] != expected:
            raise RuntimeError(
                f"set-up subprocess disagreed (exit {done.returncode}): "
                f"{done.stdout.strip()!r} != {expected!r}\n{done.stderr}"
            )
        took = json.loads(lines[1])
        walls.append(wall)
        corrected.append((wall - sum(took)) * hostspeed.REF_S / statistics.median(took))
    return corrected, walls


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _report_problems(passes, input_digests) -> bool:
    """Print every failed check; passes over equal inputs must agree."""
    ok = True
    results = {}
    for p, inputs in zip(passes, input_digests):
        results.setdefault(inputs, set()).add(p.digest)
    for inputs, digests in results.items():
        if len(digests) > 1:
            print(f"FAIL: inputs {inputs[:16]} gave {len(digests)} different result digests")
            ok = False
    problems = [problem for p in passes for problem in p.problems]
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"FAIL: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"FAIL: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    return ok and not problems


def _timings(passes, seconds) -> tuple:
    """The timed metrics of a run, with ``seconds(start, end)`` as the clock.

    Throughputs and ratios pool every pass: a ratio of sums over the whole
    run, not a median of a few per-pass ratios.
    """
    points = [seconds(*iv) * 1_000.0 for p in passes for iv in p.points]
    p50, p75 = _p50_p75(points)
    return {
        "sim_s_per_s": (sum(p.sim_s for p in passes)
                        / sum(seconds(*iv) for p in passes for iv in p.sim_host), "s/s"),
        "point_ms.p50": (p50, "ms"),
        "point_ms.p75": (p75, "ms"),
        "overhead_x": (sum(seconds(*iv) for p in passes for iv in p.overhead[0])
                       / sum(seconds(*iv) for p in passes for iv in p.overhead[1]), "x"),
        "session_s_per_s": (sum(p.session_s for p in passes)
                            / sum(seconds(*p.whole) for p in passes), "s/s"),
    }, len(points)


def measure(workload: str, seed: int, seconds: float) -> int:
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    expected = workloads.inputs_digest(workload, inputs)
    setups, setup_walls = _time_setups(workload, seed, expected)
    workdir = WORK / f"{workload}-{seed}"

    passes, input_digests, walls = [], [], []
    started = time.perf_counter()
    digest = expected
    with hostspeed.HostSpeed() as speed:
        while True:
            if passes and workload in workloads.FRESH_PICKS:
                inputs = workloads.make_inputs(workload, seed, len(passes))
                digest = workloads.inputs_digest(workload, inputs)
            input_digests.append(digest)
            gc.collect()  # each pass starts without the previous pass's garbage
            start = time.perf_counter()
            passes.append(workloads.run_pass(workload, inputs, workdir))
            walls.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(walls) > seconds:
                break

    ok = _report_problems(passes, input_digests)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not ok and failed == 0:
        failed = attempted

    timed, n_points = _timings(passes, speed.seconds)
    plain, _ = _timings(passes, hostspeed.wall)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **timed,
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    plain["setup_s"] = (statistics.median(setup_walls), "s")
    samples = {"setup_s": len(setups), "point_ms.p50": n_points,
               "point_ms.p75": n_points, "peak_rss_mb": 1}
    print(f"{workload} seed {seed}: {len(passes)} passes in {elapsed:.1f} s, "
          f"inputs {expected[:16]}, result digest {passes[0].digest}")
    for key, value in sorted(passes[0].info.items()):  # pass 0: same for every run
        print(f"  {key}: {value}")
    print(f"  fail_frac: {failed / attempted:.4f} ({failed} of {attempted})")
    print(f"  host speed: {len(speed.took)} kernel samples, median "
          f"{speed.median_took() * 1e3:.3f} ms (nominal {hostspeed.REF_S * 1e3:g} ms)")
    print(f"  {'metric':16s} {'reference':>12s} {'plain host':>12s}")
    for name, (value, unit) in metrics.items():
        raw = f"{plain[name][0]:12.4f}" if name in plain else " " * 12
        print(f"  {name:16s} {value:12.4f} {raw} {unit:5s} "
              f"n={samples.get(name, len(passes))}")
    _emit(ok, attempted, failed, metrics)
    return 0 if ok else 1


def trace(workload: str, seed: int) -> int:
    import layers
    import workloads

    workdir = WORK / f"{workload}-{seed}"
    start = time.perf_counter_ns()
    plain = workloads.run_pass(workload, workloads.make_inputs(workload, seed), workdir)
    plain_ns = time.perf_counter_ns() - start

    log = layers.SpanLog()
    instrumentation = layers.Instrumentation(log)
    instrumentation.install()
    try:
        wall_start = time.perf_counter_ns()
        traced = workloads.run_pass(workload, workloads.make_inputs(workload, seed), workdir)
        wall_end = time.perf_counter_ns()
    finally:
        instrumentation.remove()

    ok = _report_problems([plain, traced], ["pass 0", "pass 0"])
    folded = log.fold(wall_start, wall_end)
    span_file = WORK / f"spans-{workload}-{seed}.bin"
    log.write(span_file)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if not ok and failed == 0:
        failed = attempted
    metrics = layers.layer_metrics(log, folded, {
        "engine.hit_rate": (traced.info.get("hit_rate", 0.0), "ratio"),
        "trace_overhead_x": ((wall_end - wall_start) / plain_ns, "x"),
        "fail_frac": (failed / attempted, "ratio"),
    })
    print(f"{workload} seed {seed}: traced {folded['wall_ns'] / 1e9:.2f} s "
          f"vs untraced {plain_ns / 1e9:.2f} s, {len(log)} spans -> {span_file}, "
          f"peak RSS {_peak_rss_mb():.0f} MB")
    print(f"  result digest {traced.digest} (untraced {plain.digest})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.3f} {unit}")
    _emit(ok, attempted, failed, metrics)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "explain", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        return _setup_only(args.workload, args.seed)
    if args.trace:
        return trace(args.workload, args.seed)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
