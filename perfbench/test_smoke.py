"""Smoke test: the benchmark runs end to end at tiny sizes and its checks bite.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the repository root.  It takes about fifteen seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    done = bench(tmp_path, "--workload", "gperm", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_same_seed_same_inputs():
    a = workloads.dilation(random.Random("x"), False)
    b = workloads.dilation(random.Random("x"), False)
    c = workloads.dilation(random.Random("y"), False)
    assert a.docs == b.docs and a.docs != c.docs


def test_checks_reject_wrong_content():
    d, k = 4, 1
    right = ["0", "12", "-18", "6"]  # chi_1 of pi_4 is 6m(m-1)(m-2)
    payload = {"command": "chi", "polynomial": right, "checks": [],
               "summary": {"checks": 0, "failures": 0}}
    assert workloads.chi_perm_check(d, k, 2)(payload) == []
    wrong = dict(payload, polynomial=right[:-1] + ["2"])
    assert workloads.chi_perm_check(d, k, 2)(wrong)
    failing = dict(payload, checks=[{"label": "x", "lhs": "1", "rhs": "2", "pass": True}],
                   summary={"checks": 1, "failures": 0})
    assert workloads.checks_pass(failing)
    assert workloads.named_check("faces pi_3")({"command": "faces", "d": 3, "vertices": [],
                                                "faces": [{"dim": 0, "vertices": [0]}]})


def test_oracles_agree_with_the_program():
    from gpcount.hypergraph import Hypergraph, acyclic_headings, chromatic_count
    rng = random.Random(3)
    for _ in range(10):
        inst = gen.random_hypergraph(rng, 4, gen.random_edges(rng, 4, (2, 3, 2, 4)))
        h = Hypergraph(4, tuple(frozenset(e) for e in inst["edges"]))
        for m in (1, 2, 3):
            assert oracles.chromatic_count(4, inst["edges"], m) == chromatic_count(h, m)
        want = {hd for hd in acyclic_headings(h)}
        got = {hd for hd in itertools.product(*inst["edges"])
               if oracles.is_acyclic(4, inst["edges"], hd)}
        assert got == want


def test_missing_span_is_an_error(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + ("ehrhart.no_such_function",))
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceError):
        tracer.install()
    tracer.uninstall()
    with pytest.raises(spans.TraceError):
        spans.check_required("dilation", spans.Counter({"ehrhart.count_lattice": 1}))
