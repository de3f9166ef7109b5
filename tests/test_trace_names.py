"""The benchmark's tracer (`perfbench/spans.py`) wraps library functions by
name and raises when one is missing, or when a workload never calls one it
requires.  Installing it here, and running the tiny traced hypergraph pass,
makes deleting, renaming or no longer calling a traced name fail this suite,
not only the benchmark's smoke test.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_tiny_traced_hypergraph_pass_fires_every_required_span():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "hypergraph",
         "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
