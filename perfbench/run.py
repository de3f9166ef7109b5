"""gpcount benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload gperm --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run draws one pass of requests from the
workload seed, writes its documents under perfbench/_work, and sends the
pass a fixed number of times, each time from a fresh interpreter
(`one_pass.py`) that imports gpcount from ./src and sends each request in
turn through `gpcount.cli.run(argv)`, capturing stdout.  One request is in
flight at a time and no threads are used.  Every report of every pass is
checked against expected values.

A fresh interpreter per pass means no pass reuses what an earlier one
cached, so repeating the same inputs measures what one pass costs.  Time
metrics are in reference seconds (`calib.py`): each request's seconds are
scaled by how fast a fixed piece of pure-Python work ran right before and
after it, because on a shared machine the same requests run up to twice as
slowly for minutes at a time.  `wall_s` and `cpu_s` are medians over the
passes; `request_p50_s` and `request_tail_s` pool every request of the run.

--trace 0 prints the end-to-end metrics; --trace 1 traces every pass and
prints the per-layer metrics (medians over the passes), writing a
per-request span summary to perfbench/out/.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import one_pass  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# About the seconds one pass takes at the seed commit, interpreter start and
# output check included (Python 3.11, 2 shared cores).  A run makes
# int(--seconds / this) passes, so it always sends the same requests, unless
# the machine is so slow that the run passes MAX_STRETCH times --seconds:
# then it stops after the pass under way (but makes at least MIN_PASSES).
# At 25 s every workload makes 7 passes.  With 7 samples of each request,
# the rank of request_tail_s (ten requests beyond it) falls in the middle of
# a group of equal-cost requests, not at its edge.
PASS_SECONDS = {"gperm": 3.5, "dilation": 3.4, "hypergraph": 3.5, "verify": 3.4}
MAX_STRETCH = 1.3
MIN_PASSES = 3
SETUP_PROBES = 11

UNITS = {"wall_s": "s", "cpu_s": "s", "request_p50_s": "s", "request_tail_s": "s",
         "checks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs and two passes (smoke test)")
    return p.parse_args(argv)


def find_program(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gpcount", "cli.py")):
        raise SystemExit(f"error: no gpcount sources under {src}; run from the repository root")
    return src


def pass_count(args) -> int:
    if args.tiny:
        return 2
    return max(MIN_PASSES, int(args.seconds / PASS_SECONDS[args.workload]))


def write_pass(args, workdir: str) -> workloads.Pass:
    p = one_pass.build_pass(args.workload, args.seed, args.tiny)
    for name, doc in p.docs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return p


def measure_setup(src: str, first, workdir: str) -> float:
    """Median over fresh interpreters of the set-up time, in reference seconds."""
    items = [f"{kind}={os.path.join(workdir, path)}" for kind, path in first.setup]
    cmd = [sys.executable, "-I", os.path.join(HERE, "setup_probe.py"), src, *items]
    times = []
    for _ in range(SETUP_PROBES + 1):  # the first one also warms the bytecode cache
        done = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        seconds, calibration = (float(x) for x in done.stdout.split())
        times.append(seconds * calib.scale(calibration))
    return statistics.median(times[1:])


def run_pass(args, workdir: str) -> dict:
    """One pass in a fresh interpreter (`one_pass.py`): its result line."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise PassError(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


class PassError(RuntimeError):
    pass


def end_to_end(results: list, setup_s: float) -> dict:
    """Times in reference seconds (`calib`): a pass's wall and CPU time are
    the sums over its requests, and the figures are medians over the passes;
    the latencies pool every request of every pass."""
    latencies = [x for r in results for x in r["scaled"]]
    wall = [sum(r["scaled"]) for r in results]
    return {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(sum(r["scaled_cpu"]) for r in results),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail(latencies)[0],
        "checks_per_s": statistics.median(r["checks"] / w for r, w in zip(results, wall)),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def per_layer(args, results: list) -> dict:
    """Medians over the traced passes; the first pass's span summary goes to
    perfbench/out/."""
    metrics = {name: statistics.median(r["layer"][name] for r in results)
               for name in results[0]["layer"]}
    metrics["report.checks"] = statistics.median(r["checks"] for r in results)
    summary = results[0]["summary"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   **summary}, fh, indent=1, sort_keys=True)
    for label, names in summary["repeat_calls"].items():
        repeated = ", ".join(f"{n} x{c}" for n, c in names.items())
        print(f"duplicate work in {label!r}: {repeated}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    src = find_program(os.getcwd())
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        p = write_pass(args, workdir)
        if not args.trace:
            setup_s = measure_setup(src, p, workdir)
        results = []
        for _ in range(pass_count(args)):
            if (len(results) >= MIN_PASSES
                    and time.perf_counter() - start > MAX_STRETCH * args.seconds):
                print(f"stopped after {len(results)} passes: past {MAX_STRETCH} x --seconds",
                      file=sys.stderr)
                break
            results.append(run_pass(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(args, results)
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics = end_to_end(results, setup_s)
        units = UNITS
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    per_pass = results[0]["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} passes, "
          f"{per_pass} requests per pass, {attempted} requests")
    if not args.trace:
        latencies = [x for r in results for x in r["scaled"]]
        print(f"request_tail_s is p{tail(latencies)[1]:.1f} of {len(latencies)} requests")
        unscaled = statistics.median(sum(r["latencies"]) for r in results)
        print(f"unscaled wall_s {unscaled:.6g} s (median over passes of the requests' seconds)")
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run then kills and waits for the pass
    # under way, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        sys.exit(main())
    except PassError as exc:
        print(f"error: a pass exited with code {exc.args[0]}", file=sys.stderr)
        sys.exit(exc.args[0] if isinstance(exc.args[0], int) and exc.args[0] > 0 else 1)
