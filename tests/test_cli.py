import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from gpcount import cli, permutahedron
from gpcount.cli import run
from gpcount.ehrhart import unit_cube
from gpcount.hypergraph import hypergraph_from_json
from gpcount.setfn import setfn_to_json, standard_perm_setfn
from oracles import brute_chromatic_count, fan_to_json, hpolytope_to_json, with_rows
from test_ehrhart import DIAGONAL_FAN, HUGE_SIMPLEX, OVERLAPPING

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
