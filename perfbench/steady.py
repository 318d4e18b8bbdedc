"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload grid --seeds 1-10 [--json out.json]

Runs the benchmark command of ``BENCHMARK.json`` once per seed (one at a
time), then prints, for every end-to-end metric, the median and quartiles
of the per-run values and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. Any run that fails its output checks
or gives a seed two different result digests is reported.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"result digest ([0-9a-f]{64})")


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    match = DIGEST.search(done.stdout)
    return {"seed": seed, "exit": done.returncode, "wall_s": wall, "result": result,
            "digest": match.group(1) if match else None, "stderr": done.stderr[-2000:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the runs and the table here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in _seeds(args.seeds):
        run = run_once(bench, args.workload, seed)
        runs.append(run)
        status = "ok" if run["exit"] == 0 and run["result"] else f"exit {run['exit']}"
        print(f"seed {seed}: {status} in {run['wall_s']:.1f} s", flush=True)
        if status != "ok":
            print(run["stderr"], file=sys.stderr)

    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            print(f"seed {seed}: {len(digests)} different result digests")
            ok = False

    table = []
    good = [r["result"] for r in runs if r["result"]]
    print(f"\n{args.workload}: {len(good)} runs, run_seconds={bench['run_seconds']}")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [g["metrics"][name]["value"] for g in good]
        if len(values) < 2:
            continue
        q1, q2, q3, share = spread(values)
        table.append({"metric": name, "unit": metric["unit"], "median": q2, "q1": q1,
                      "q3": q3, "spread": share, "bound": metric["bound"], "n": len(values)})
        flag = "" if name == "setup_s" or share <= metric["bound"] / 3 else "  > bound/3"
        print(f"{name:16s} {q2:12.4f} {q1:12.4f} {q3:12.4f} {share:8.4f} "
              f"{metric['bound']:6.2f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "table": table}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
