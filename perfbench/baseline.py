"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--seeds 601-610] [--workloads gperm,verify]

Run from the repository root.  For each workload, runs `run.py` untraced
once per seed and traced once (first seed), then writes the figures of the
workloads measured into perfbench/BASELINE.json: per metric the median,
quartiles and spread, (q3 - q1) / median with statistics.quantiles(values,
n=4), which is how the bounds in BENCHMARK.json are checked.  Takes about 20 minutes for all four
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="601-610")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    seeds = seed_range(args.seeds)
    commit = os.environ.get("BASELINE_COMMIT", "")
    path = os.path.join(HERE, "BASELINE.json")
    previous = {}
    if os.path.exists(path):  # workloads not measured now keep their figures
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    out = {"commit": commit, "python": platform.python_version(), "cpu_count": os.cpu_count(),
           "platform": platform.platform(), "run_seconds": spec["run_seconds"],
           "how": "ten untraced runs per workload (seeds in 'seeds') and one traced run; "
                  "spread is (q3 - q1) / median with statistics.quantiles(values, n=4)",
           "end_to_end": previous.get("end_to_end", {}),
           "per_layer": previous.get("per_layer", {})}
    for workload in args.workloads.split(","):
        values: dict = {}
        elapsed, attempted, failed = [], set(), 0
        for seed in seeds:
            result, took = run(workload, seed, spec["run_seconds"], 0)
            elapsed.append(took)
            attempted.add(result["attempted"])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr)
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                             "spread": round((q3 - q1) / med, 4),
                             "unit": next(m["unit"] for m in spec["end_to_end"]
                                          if m["name"] == name)}
        out["end_to_end"][workload] = {
            "seeds": seeds, "attempted_per_run": sorted(attempted), "failed": failed,
            "run_elapsed_s": [round(min(elapsed), 1), round(max(elapsed), 1)],
            "metrics": metrics}
        result, took = run(workload, seeds[0], spec["run_seconds"], 1)
        out["per_layer"][workload] = {
            "seed": seeds[0], "run_elapsed_s": round(took, 1),
            "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()}}
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']} spread {m['spread']}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
