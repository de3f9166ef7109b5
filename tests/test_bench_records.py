"""The benchmark records at the repository root, `BENCH_*.json`, are written
by hand from paired runs of `perfbench/run.py`, so this keeps them
consistent with the benchmark they report: each parses, names its change,
parent commit, command and set-up, and each of its runs names a workload of
`BENCHMARK.json` and a side, `parent` or `change`, with a correct result
that carries every end-to-end metric of `BENCHMARK.json`.  Runs come in
pairs: each (workload, seed, pair) holds exactly one `parent` run and one
`change` run, so a median or a count of pairs won reads matched runs."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert {"BENCH_51.json", "BENCH_52.json", "BENCH_53.json", "BENCH_54.json",
            "BENCH_55.json", "BENCH_57.json"} <= {
        path.name for path in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_its_runs_and_their_metrics(path):
    record = json.loads(path.read_text())
    for key in ("change", "parent_commit", "command", "setup"):
        assert type(record[key]) is str and record[key], key
    assert type(record["runs"]) is list and record["runs"]
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for run in record["runs"]:
        assert run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        assert run["result"]["correct"] is True
        assert metrics <= set(run["result"]["metrics"])


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_runs_come_in_pairs(path):
    runs = json.loads(path.read_text())["runs"]
    sides = Counter((run["workload"], run["seed"], run["pair"], run["side"]) for run in runs)
    assert set(sides.values()) == {1}
    assert sides.keys() == {(*key[:3], side) for key in sides for side in ("parent", "change")}
