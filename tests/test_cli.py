import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from gpcount import cli, ehrhart, permutahedron
from gpcount.cli import run
from gpcount.ehrhart import unit_cube
from gpcount.hypergraph import hypergraph_from_json
from gpcount.rational import format_rat
from gpcount.setfn import standard_perm_setfn
from oracles import (
    brute_chromatic_count,
    fan_to_json,
    greedy_vertex,
    hpolytope_to_json,
    setfn_to_json,
    with_rows,
)
from test_ehrhart import DIAGONAL_FAN, HUGE_SIMPLEX, OVERLAPPING
from test_permutahedron import non_integer_setfn

PI_6 = str(Path(__file__).resolve().parent.parent / "perfbench" / "docs" / "pi_6.json")

RUNNING_DOC = {
    "nodes": ["a", "b", "c"],
    "edges": [["a", "b", "c"], ["a", "b"], ["b", "c"], ["a"], ["b"], ["c"]],
}


@pytest.fixture
def inputs(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "std2": write("std2.json", setfn_to_json(standard_perm_setfn(2))),
        "std3": write("std3.json", setfn_to_json(standard_perm_setfn(3))),
        "notsub": write("notsub.json", {"d": 2, "values": ["0", "0", "0", "1"]}),
        "edge12": write("edge12.json", {"nodes": ["1", "2"], "edges": [["1", "2"]]}),
        "running": write("running.json", RUNNING_DOC),
        "square": write("square.json", hpolytope_to_json(unit_cube(2))),
        "fan": write("fan.json", fan_to_json(DIAGONAL_FAN)),
        "zero_row": write("zero_row.json", hpolytope_to_json(
            with_rows(unit_cube(2), [((0, 0), "<=", 0)]))),
        "zero_eq": write("zero_eq.json", hpolytope_to_json(
            with_rows(unit_cube(2), [((0, 0), "=", 0)]))),
        "degenerate": write("degenerate.json", {
            "d": 2,
            "rows": [
                {"a": ["1", "0"], "rel": "<=", "b": "0"},
                {"a": ["-1", "0"], "rel": "<=", "b": "0"},
                {"a": ["0", "-1"], "rel": "<=", "b": "0"},
                {"a": ["0", "1"], "rel": "<=", "b": "1"},
            ],
            "bbox": [[0, 0], [0, 1]],
        }),
        "pinched": write("pinched.json", {
            "d": 3,
            "rows": [
                {"a": ["-1", "0", "0"], "rel": "<=", "b": "0"},
                {"a": ["0", "-1", "0"], "rel": "<=", "b": "0"},
                {"a": ["1", "1", "0"], "rel": "<=", "b": "0"},
                {"a": ["0", "0", "-1"], "rel": "<=", "b": "0"},
                {"a": ["0", "0", "1"], "rel": "<=", "b": "1"},
            ],
            "bbox": [[0, 0], [0, 0], [0, 1]],
        }),
        "dir": tmp_path,
    }


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return rc, payload, captured.err


def test_chi(inputs, capsys):
    rc, payload, _ = invoke(capsys, "chi", "--setfn", inputs["std3"], "--m-max", "4")
    assert rc == 0
    assert payload["command"] == "chi"
    assert payload["d"] == 3
    assert payload["polynomial"] == ["0", "2", "-3", "1"]
    assert payload["summary"] == {"checks": 8, "failures": 0}
    assert all(entry["pass"] for entry in payload["checks"])
    assert "timing" in payload


def test_chi_defaults(inputs, capsys):
    rc, payload, _ = invoke(capsys, "chi", "--setfn", inputs["std3"])
    assert rc == 0
    assert payload["k"] == 0
    assert payload["summary"]["checks"] == 6  # default m-max is 3


def test_chi_not_submodular(inputs, capsys):
    rc, payload, err = invoke(capsys, "chi", "--setfn", inputs["notsub"])
    assert rc == 2
    assert payload is None  # no partial report
    assert "not submodular" in err


def test_chi_k_out_of_range(inputs, capsys):
    rc, payload, err = invoke(capsys, "chi", "--setfn", inputs["std3"], "--k", "3")
    assert rc == 2
    assert payload is None
    assert err.startswith("error:")


def test_input_errors(inputs, capsys, tmp_path):
    rc, payload, _ = invoke(capsys, "chi", "--setfn", str(tmp_path / "missing.json"))
    assert rc == 2 and payload is None
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    rc, payload, _ = invoke(capsys, "chi", "--setfn", str(broken))
    assert rc == 2 and payload is None


def test_usage_errors(inputs, capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "chi", "--setfn", inputs["std3"], "--bogus")[0] == 2
    assert invoke(capsys, "chi")[0] == 2  # --setfn is required
    assert invoke(capsys, "chi", "--setfn", inputs["std3"], "--m-max", "0")[0] == 2


def test_faces(inputs, capsys):
    rc, payload, _ = invoke(capsys, "faces", "--setfn", inputs["std3"])
    assert rc == 0
    assert payload["d"] == 3
    assert len(payload["faces"]) == 13
    assert len(payload["vertices"]) == 6


def surjections(n, k):
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))


def test_faces_and_chi_on_pi_6(capsys):
    # a face of pi_6 with dimension k is an ordered set partition into 6 - k
    # blocks, and each one is selected by binom(m, 6 - k) directions in [m]^6
    rc, payload, _ = invoke(capsys, "faces", "--setfn", PI_6)
    assert rc == 0
    dims = Counter(f["dim"] for f in payload["faces"])
    assert [dims[k] for k in range(6)] == [surjections(6, 6 - k) for k in range(6)]
    for k in range(6):
        rc, payload, _ = invoke(capsys, "chi", "--setfn", PI_6, "--k", str(k), "--m-max", "3")
        assert rc == 0
        coefficients = [Fraction(c) for c in payload["polynomial"]]
        assert len(coefficients) == 7 - k
        for m in range(8):
            assert (sum(c * m ** i for i, c in enumerate(coefficients))
                    == comb(m, 6 - k) * surjections(6, 6 - k))


def test_hg_chromatic(inputs, capsys):
    rc, payload, _ = invoke(capsys, "hg-chromatic", "--hg", inputs["edge12"], "--m", "2")
    assert rc == 0
    assert payload["polynomial"] == ["0", "-1", "1"]
    assert payload["count"] == 2
    rc, payload, _ = invoke(capsys, "hg-chromatic", "--hg", inputs["edge12"])
    assert rc == 0
    assert "count" not in payload


def test_hg_headings(inputs, capsys):
    rc, payload, _ = invoke(capsys, "hg-headings", "--hg", inputs["running"])
    assert rc == 0
    assert payload["acyclic_count"] == 5
    assert len(payload["headings"]) == 5
    assert all(set(heads) <= {"a", "b", "c"} for heads in payload["headings"])
    assert payload["indegree_vectors"] == [
        [1, 2, 3], [1, 4, 1], [2, 1, 3], [3, 1, 2], [3, 2, 1]]


ODD_NAMES = ["\u00e9", 'q"', "back\\slash", "tab\there", "\ud800"]


@pytest.mark.parametrize("argv", [["hg-chromatic", "--m", "2"], ["hg-headings"]])
def test_odd_node_names_written_as_stdlib_json(tmp_path, capsys, argv):
    """Node names with a non-ASCII letter, a quote, a backslash, a tab and a
    lone surrogate come out escaped exactly as `json.dumps(indent=2)` does."""
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"nodes": ODD_NAMES, "edges": [
        ODD_NAMES[:2], ODD_NAMES[1:4], [ODD_NAMES[4], ODD_NAMES[0]]]}))
    rc = run([argv[0], "--hg", str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert ('  "nodes": [\n    "\\u00e9",\n    "q\\"",\n    "back\\\\slash",\n'
            '    "tab\\there",\n    "\\ud800"\n  ],\n') in out
    assert json.loads(out)["nodes"] == ODD_NAMES


def test_hg_reciprocity(inputs, capsys):
    rc, payload, _ = invoke(
        capsys, "hg-reciprocity", "--hg", inputs["running"], "--m-max", "2")
    assert rc == 0
    assert payload["summary"]["failures"] == 0
    assert payload["summary"]["checks"] == 7


def test_ehrhart(inputs, capsys):
    rc, payload, _ = invoke(capsys, "ehrhart", "--poly", inputs["square"])
    assert rc == 0
    assert payload["degree"] == 2  # defaults to the ambient dimension
    assert payload["quasipolynomial"] == {"period": 1, "constituents": [["1", "2", "1"]]}
    assert payload["summary"] == {"checks": 4, "failures": 0}


def test_ehrhart_opposite_rows_exit_0(inputs, capsys):
    # x1 <= 0 and -x1 <= 0 stay the equality x1 = 0 in the open count
    rc, payload, _ = invoke(
        capsys, "ehrhart", "--poly", inputs["degenerate"], "--degree", "1")
    assert rc == 0
    assert payload["quasipolynomial"] == {"period": 1, "constituents": [["1", "1"]]}
    assert payload["summary"] == {"checks": 4, "failures": 0}


def test_ehrhart_zero_row_exit_0(inputs, capsys):
    # 0 . x <= 0 bounds nothing, so the open count keeps it as written
    rc, payload, _ = invoke(capsys, "ehrhart", "--poly", inputs["zero_row"], "--t-max", "3")
    assert rc == 0
    assert payload["quasipolynomial"] == {"period": 1, "constituents": [["1", "2", "1"]]}
    assert payload["summary"] == {"checks": 3, "failures": 0}


def test_ehrhart_failing_checks_exit_1(inputs, capsys):
    # an implicit equality that is no pair of opposite rows still empties the
    # open count, so the checks fail
    rc, payload, _ = invoke(
        capsys, "ehrhart", "--poly", inputs["pinched"], "--degree", "1")
    assert rc == 1
    assert payload["summary"]["failures"] > 0  # report still emitted


@pytest.mark.parametrize("argv, owner, name", [
    (["chi", "--setfn", "std3"], permutahedron.GPerm, "reciprocity_rhs"),
    (["hg-reciprocity", "--hg", "running"], permutahedron.GPerm, "reciprocity_rhs"),
    (["pruned", "--poly", "square", "--fan", "fan"], ehrhart, "cumulative_pruned_count"),
    (["verify-all", "--seed", "1", "--trials", "1"], permutahedron.GPerm, "reciprocity_rhs"),
])
def test_failing_checks_exit_1(inputs, capsys, monkeypatch, argv, owner, name):
    # one side of a check off by one: the command exits 1, and its report,
    # with the checks, the summary and the timing last, is still printed
    true = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: true(*args) + 1)
    rc, payload, err = invoke(capsys, *(inputs.get(a, a) for a in argv))
    assert (rc, err) == (1, "")
    assert payload["command"] == argv[0]
    assert payload["summary"]["failures"] > 0
    assert list(payload)[-3:] == ["checks", "summary", "timing"]


@pytest.mark.parametrize("argv", [
    ["faces", "--setfn", "std3"],
    ["hg-chromatic", "--hg", "running", "--m", "2"],
    ["hg-headings", "--hg", "running"],
])
def test_commands_without_checks_print_no_summary(inputs, capsys, argv):
    rc, payload, _ = invoke(capsys, *(inputs.get(a, a) for a in argv))
    assert rc == 0
    assert "checks" not in payload and "summary" not in payload
    assert list(payload)[-1] == "timing"


def test_pruned_with_fan(inputs, capsys):
    rc, payload, _ = invoke(
        capsys, "pruned", "--poly", inputs["square"], "--fan", inputs["fan"])
    assert rc == 0
    assert payload["inner_quasipolynomial"] == {
        "period": 1, "constituents": [["2", "-3", "1"]]}
    assert payload["summary"]["failures"] == 0


def test_pruned_with_setfn(inputs, capsys):
    rc, payload, _ = invoke(
        capsys, "pruned", "--poly", inputs["square"], "--setfn", inputs["std2"])
    assert rc == 0
    assert payload["summary"]["failures"] == 0


def test_pruned_zero_row_exit_0(inputs, capsys):
    # a zero row, `<=` or `=`, constrains no direction: the square stays
    # full-dimensional
    for name in ("zero_row", "zero_eq"):
        rc, payload, _ = invoke(
            capsys, "pruned", "--poly", inputs[name], "--setfn", inputs["std2"])
        assert rc == 0
        assert payload["summary"]["failures"] == 0


def test_pruned_needs_exactly_one_fan_source(inputs, capsys):
    rc, payload, err = invoke(capsys, "pruned", "--poly", inputs["square"])
    assert rc == 2 and "exactly one" in err
    rc, _, err = invoke(capsys, "pruned", "--poly", inputs["square"],
                        "--fan", inputs["fan"], "--setfn", inputs["std2"])
    assert rc == 2 and "exactly one" in err


def test_pruned_lower_dimensional_exit_2(inputs, capsys):
    # the segment x1 = 0, 0 <= x2 <= 1 is not full-dimensional, so the pruned
    # identity does not cover it
    for source in (["--fan", inputs["fan"]], ["--setfn", inputs["std2"]]):
        rc, payload, err = invoke(capsys, "pruned", "--poly", inputs["degenerate"],
                                  *source, "--degree", "1")
        assert rc == 2 and payload is None
        assert err.startswith("error:") and "full-dimensional" in err


def test_pruned_overlapping_cones_exit_2(inputs, capsys):
    path = inputs["dir"] / "overlap.json"
    path.write_text(json.dumps(fan_to_json(OVERLAPPING)))
    rc, payload, err = invoke(capsys, "pruned", "--poly", inputs["square"],
                              "--fan", str(path), "--degree", "2")
    assert rc == 2 and payload is None
    assert err.startswith("error:") and "strictly inside" in err


def test_hg_reciprocity_forty_nodes_exit_2(inputs):
    # the node count is checked before the 2^d set-function table is built
    names = [f"v{i}" for i in range(40)]
    path = inputs["dir"] / "hg40.json"
    path.write_text(json.dumps({"nodes": names, "edges": [names[i:i + 2] for i in range(39)]}))
    proc = subprocess.run(
        [sys.executable, "-m", "gpcount", "hg-reciprocity", "--hg", str(path)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: ground-set size must be in 1..8, got 40\n"


def test_hg_chromatic_eight_nodes(inputs, capsys):
    doc = {"nodes": list("abcdefgh"),
           "edges": [["a", "b", "c"], ["c", "d"], ["d", "e", "f", "g"], ["g", "h"],
                     ["a", "h"], ["b", "e"], ["b", "e"], ["f"]]}
    path = inputs["dir"] / "hg8.json"
    path.write_text(json.dumps(doc))
    rc, payload, _ = invoke(capsys, "hg-chromatic", "--hg", str(path), "--m", "3")
    assert rc == 0
    h, _ = hypergraph_from_json(doc)
    poly = [Fraction(c) for c in payload["polynomial"]]
    assert len(poly) == 9
    for m in (1, 2, 3):
        want = brute_chromatic_count(h, m)
        assert sum(c * m ** i for i, c in enumerate(poly)) == want
    assert payload["count"] == want


def test_scan_budget_exit_2(inputs, capsys):
    path = inputs["dir"] / "huge.json"
    path.write_text(json.dumps(hpolytope_to_json(HUGE_SIMPLEX)))
    rc, payload, err = invoke(capsys, "ehrhart", "--poly", str(path))
    assert rc == 2 and payload is None
    assert err.startswith("error:") and "budget" in err


def test_scan_depth_exit_2(tmp_path, capsys):
    # a single point in d = 1200 whose one row spans every coordinate: the
    # scan would recurse 1200 deep, so it is refused before it starts
    d = 1200
    a = ["1"] + ["0"] * (d - 2) + ["1"]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"d": d, "rows": [{"a": a, "rel": "<=", "b": "1"}],
                                "bbox": [[0, 0]] * d}))
    rc, payload, err = invoke(
        capsys, "ehrhart", "--poly", str(path), "--degree", "0", "--t-max", "1")
    assert rc == 2 and payload is None
    assert err.startswith("error:") and "1200 coordinates" in err


@pytest.mark.xfail(strict=True, reason="an implicit equality that is no pair of opposite "
                                       "rows makes the open count 0 (ROADMAP item 3)")
def test_ehrhart_implicit_equality_exit_0(tmp_path, capsys):
    # P(z) of the hypergraph {1,2}, {1,3} on 4 nodes, z(S) = #edges meeting S:
    # x_4 = 0 is implied by x_4 <= 0 and x_1 + x_2 + x_3 <= 2 with x([4]) = 2
    edges = (0b0011, 0b0101)
    rows = [{"a": [str(S >> i & 1) for i in range(4)], "rel": "<=",
             "b": str(sum(1 for e in edges if S & e))} for S in range(1, 15)]
    rows.append({"a": ["1"] * 4, "rel": "=", "b": "2"})
    path = tmp_path / "hg_pz.json"
    path.write_text(json.dumps({"d": 4, "rows": rows, "bbox": [[0, 2], [0, 1], [0, 1], [0, 0]]}))
    rc, payload, _ = invoke(
        capsys, "ehrhart", "--poly", str(path), "--degree", "2", "--t-max", "3")
    assert rc == 0, payload["checks"]


def test_parser_shared_across_runs(inputs, capsys):
    # one parser serves every run of a process, bad argv included: each run
    # gives the exit code, report and stderr of a run with a new parser
    argvs = [
        ["chi", "--setfn", inputs["std3"], "--k", "1"],
        ["chi", "--setfn", inputs["std3"], "--m-max", "0"],
        ["faces", "--setfn", inputs["std2"]],
        ["ehrhart", "--poly", inputs["square"], "--bogus"],
        ["hg-chromatic", "--hg", inputs["running"], "--m", "2"],
        ["no-such-command"],
        ["chi", "--setfn", inputs["std3"], "--k", "1"],
        ["pruned", "--poly", inputs["square"], "--fan", inputs["fan"]],
    ]

    def outcome(argv):
        rc, payload, err = invoke(capsys, *argv)
        if payload is not None:
            del payload["timing"]
        return rc, payload, err

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli.build_parser.cache_clear()
    shared = [outcome(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [rc for rc, _payload, _err in shared] == [0, 2, 0, 2, 0, 2, 0, 0]
    assert all(err.startswith("usage: gpcount") for rc, _payload, err in shared if rc == 2)


def test_jobs_flag_rejected(inputs, capsys):
    rc, payload, _ = invoke(capsys, "chi", "--setfn", inputs["std2"], "--jobs", "4")
    assert rc == 2 and payload is None


def test_non_string_edge_member_is_input_error(inputs, capsys):
    path = inputs["dir"] / "nested.json"
    path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [["a", ["b"]]]}))
    rc, payload, err = invoke(capsys, "hg-headings", "--hg", str(path))
    assert rc == 2 and payload is None
    assert err.startswith("error:")


def test_faces_vertices_match_greedy_oracle(tmp_path, capsys):
    # the report's vertex strings, read off the scaled integer vertices,
    # against the formatted Fraction greedy vertex of every chain
    rng = random.Random(67)
    cases = [standard_perm_setfn(d) for d in range(1, 7)]
    while len(cases) < 11:
        z = non_integer_setfn(rng, max_d=6)
        if z.d >= 5 and z.scaled[0] > 1:
            cases.append(z)
    assert {z.d for z in cases[6:]} == {5, 6}
    for n, z in enumerate(cases):
        path = tmp_path / f"z{n}.json"
        path.write_text(json.dumps(setfn_to_json(z)))
        rc, payload, _ = invoke(capsys, "faces", "--setfn", str(path))
        assert rc == 0
        chains = itertools.permutations(range(1, z.d + 1))
        expected = sorted({greedy_vertex(z, perm) for perm in chains})
        assert payload["vertices"] == [[format_rat(c) for c in v] for v in expected]


def test_internal_error_exit_3(inputs, capsys, monkeypatch):
    def crash(args):
        raise KeyError("boom")

    monkeypatch.setitem(cli.COMMANDS, "faces", crash)
    rc, payload, err = invoke(capsys, "faces", "--setfn", inputs["std2"])
    assert rc == 3 and payload is None
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_face_dimension_disagreement_exit_3(inputs, capsys, monkeypatch):
    # an affine rank one too high breaks the whole-polytope check of the face map
    true_rank = permutahedron.affine_rank
    monkeypatch.setattr(permutahedron, "affine_rank", lambda points: true_rank(points) + 1)
    rc, payload, err = invoke(capsys, "faces", "--setfn", inputs["std3"])
    assert rc == 3 and payload is None
    assert err.startswith("internal error: RuntimeError: face dimensions disagree")
    assert "dimension 2 from its block counts but affine rank 3" in err


def test_verify_all_deterministic(capsys):
    results = []
    for _ in range(2):
        rc, payload, _ = invoke(capsys, "verify-all", "--seed", "1", "--trials", "2")
        assert rc == 0
        assert payload["summary"]["failures"] == 0
        payload.pop("timing")
        results.append(payload)
    assert results[0] == results[1]


def test_verify_all_seed_changes_instances(capsys):
    _, first, _ = invoke(capsys, "verify-all", "--seed", "1", "--trials", "1")
    _, second, _ = invoke(capsys, "verify-all", "--seed", "2", "--trials", "1")
    assert first["checks"] != second["checks"]


def test_verify_all_rejects_zero_trials(capsys):
    rc, payload, _ = invoke(capsys, "verify-all", "--trials", "0")
    assert rc == 2
    assert payload is None


def test_module_entry_point(inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "gpcount", "chi", "--setfn", inputs["std2"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "chi"


@pytest.mark.parametrize("flag", ["--setfn", "--hg", "--poly", "--fan"])
def test_deeply_nested_document_exit_2(inputs, capsys, flag):
    # json.load raises RecursionError on 100 000 nested arrays: bad input, not a crash
    path = inputs["dir"] / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "--setfn": ["chi", "--setfn", str(path)],
        "--hg": ["hg-chromatic", "--hg", str(path)],
        "--poly": ["ehrhart", "--poly", str(path)],
        "--fan": ["pruned", "--poly", inputs["square"], "--fan", str(path)],
    }[flag]
    rc, payload, err = invoke(capsys, *argv)
    assert rc == 2 and payload is None
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["chi", "--setfn", "std2", "--m-max", "5001"],
    ["hg-reciprocity", "--hg", "edge12", "--m-max", "3334"],
    ["ehrhart", "--poly", "square", "--t-max", "10001"],
    ["ehrhart", "--poly", "square", "--degree", "2", "--period", "2501"],
    ["pruned", "--poly", "square", "--fan", "fan", "--t-max", "10001"],
    ["pruned", "--poly", "square", "--fan", "fan", "--degree", "2", "--period", "2501"],
    ["verify-all", "--trials", "295"],
])
def test_loop_budget_exit_2(inputs, capsys, monkeypatch, argv):
    # refused before any count: the counting layers are never reached
    def no_count(*args):
        raise AssertionError("counted before the loop budget was applied")
    monkeypatch.setattr(cli, "GPerm", no_count)
    monkeypatch.setattr(ehrhart, "count_lattice", no_count)
    monkeypatch.setattr(ehrhart, "inner_pruned_count", no_count)
    argv = [inputs.get(a, a) for a in argv]
    rc, payload, err = invoke(capsys, *argv)
    assert rc == 2 and payload is None
    assert err.startswith("error:") and f"exceed the budget of {ehrhart.LOOP_BUDGET}" in err


@pytest.mark.parametrize("argv", [
    ["chi", "--setfn", "std2", "--m-max", "5000"],
    ["ehrhart", "--poly", "square", "--degree", "2", "--period", "2500", "--t-max", "1"],
])
def test_loop_budget_admits_its_bound(inputs, capsys, argv):
    argv = [inputs.get(a, a) for a in argv]
    rc, _, _ = invoke(capsys, *argv)
    assert rc == 0


def test_verify_all_checks_per_trial_bound():
    counts = {len(cli.verify_all(seed, 1).entries) for seed in range(30)}
    assert max(counts) == cli.CHECKS_PER_TRIAL
