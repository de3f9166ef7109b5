"""The benchmark's tracer (`perfbench/spans.py`) wraps library functions by
name and raises when one is missing.  Installing it here makes deleting or
renaming a traced name fail this suite, not only the benchmark's smoke test.
"""

import importlib.util
from pathlib import Path

from gpcount import hypergraph

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
