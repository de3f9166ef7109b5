"""One pass of a workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/one_pass.py --workload W --seed N --workdir DIR --trace 0|1 [--tiny]

Imports gpcount from ./src, rebuilds the workload's pass from the seed (the
documents are already in DIR, written by `run.py`), sends each request in
turn through `gpcount.cli.run(argv)` with DIR as working directory, and
checks every report after the pass, outside the timed region.  Prints one
JSON line: each request's latency (untraced, also its wall and CPU time in
reference seconds, see `calib`), failed and checks counts, peak RSS and,
with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gpcount", "cli.py")):
        raise SystemExit(f"error: no gpcount sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import gpcount.cli
    if not os.path.abspath(gpcount.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported gpcount from {gpcount.cli.__file__}, not {src}")
    return src, gpcount.cli


def build_pass(workload: str, seed: int, tiny: bool) -> workloads.Pass:
    return workloads.WORKLOADS[workload](random.Random(f"{workload}/{seed}"), tiny)


def send(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc = f"crash {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def judge(req, rc, stdout: str, stderr: str) -> tuple[list, int]:
    """(errors, checks in the report) for one request."""
    if rc != 0:
        return [f"exit {rc}: {stderr.strip()[:200]}"], 0
    try:
        payload = json.loads(stdout)
        return req.check(payload), payload.get("summary", {}).get("checks", 0)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"], 0


def run_pass(cli, p, tracer=None) -> dict:
    """Send the pass and check its reports.  Untraced, `calib.work()` is
    timed before the first request and after each one, and each request's
    seconds are also given in reference seconds, scaled by the mean of the
    two timings around it."""
    raw, cpus = [], []
    calibrations = [] if tracer is not None else [calib.measure()]
    for req in p.requests:
        if tracer is not None:
            tracer.begin(req.label)
        cpu = time.process_time()
        raw.append(send(cli, req.argv))
        cpus.append(time.process_time() - cpu)
        if tracer is not None:
            tracer.end()
        else:
            calibrations.append(calib.measure())
    failed = checks = 0
    for req, (_s, rc, out, err) in zip(p.requests, raw):
        errors, n = judge(req, rc, out, err)
        if errors:
            failed += 1
            print(f"FAILED {req.label} ({' '.join(req.argv)}): {'; '.join(errors[:3])}",
                  file=sys.stderr)
        else:
            checks += n
    result = {"latencies": [r[0] for r in raw], "failed": failed, "checks": checks,
              "attempted": len(raw)}
    if tracer is None:
        factors = [calib.scale((a + b) / 2) for a, b in zip(calibrations, calibrations[1:])]
        result["scaled"] = [r[0] * f for r, f in zip(raw, factors)]
        result["scaled_cpu"] = [c * f for c, f in zip(cpus, factors)]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    _src, cli = load_program(os.getcwd())
    p = build_pass(args.workload, args.seed, args.tiny)
    os.chdir(args.workdir)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.calibrate()
            result = run_pass(cli, p, tracer)
        finally:
            tracer.uninstall()
        spans.check_required(args.workload, tracer.fired())
        result["layer"] = tracer.metrics()
        result["summary"] = tracer.summary()
    else:
        result = run_pass(cli, p)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except spans.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
