"""The benchmark's tracer (`perfbench/spans.py`) wraps library functions by
name and raises when one is missing, or when a workload never calls one it
requires.  Installing it here, and running the tiny traced pass of each of
the four workloads (gperm, dilation, hypergraph, verify), makes deleting,
renaming or no longer calling a traced name fail this suite, not only the
benchmark's smoke test or a traced benchmark run.  Every report of those
passes must also pass the benchmark's own checks, and so must those of the
untraced tiny passes of all four, the path the benchmark's timings come from.
`run.py` exits 0 even when reports fail, so each test reads its last line.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gpcount import hypergraph

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_benchmark_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = hypergraph.acyclic_headings
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert hypergraph.acyclic_headings is not original
    finally:
        tracer.uninstall()
    assert hypergraph.acyclic_headings is original


@pytest.mark.parametrize("workload", ["gperm", "dilation", "hypergraph", "verify"])
def test_tiny_traced_pass_fires_every_required_span(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, done.stdout


def assert_tiny_untraced_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] > 0, done.stdout


def test_tiny_untraced_dilation_pass_is_correct():
    assert_tiny_untraced_pass_is_correct("dilation")


def test_tiny_untraced_hypergraph_pass_is_correct():
    assert_tiny_untraced_pass_is_correct("hypergraph")


def test_tiny_untraced_gperm_pass_is_correct():
    assert_tiny_untraced_pass_is_correct("gperm")


def test_tiny_untraced_verify_pass_is_correct():
    assert_tiny_untraced_pass_is_correct("verify")
