import ast
import itertools
import json
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from gpcount import cli, ehrhart, errors, permutahedron
from gpcount.cli import run
from gpcount.ehrhart import Cone, FullDimFan, box, unit_cube
from gpcount.hypergraph import hypergraph_from_json
from gpcount.report import Report
from gpcount.setfn import setfn_from_json, standard_perm_setfn
from oracles import (
    brute_chromatic_count,
    fan_to_json,
    greedy_vertex,
    hpolytope_to_json,
    hypergraph_to_json,
    setfn_to_json,
    with_rows,
)
from test_ehrhart import DIAGONAL_FAN, HUGE_SIMPLEX, OVERLAPPING
from test_golden import CASES, GOLDEN
from test_hypergraph import EIGHT
from test_permutahedron import non_integer_setfn

PI_6 = str(Path(__file__).resolve().parent.parent / "perfbench" / "docs" / "pi_6.json")
GOLDEN = Path(__file__).resolve().parent / "golden"

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
    # flag integers follow the document rule: a sign and ASCII digits only
    assert invoke(capsys, "chi", "--setfn", inputs["std3"], "--m-max", "\u0663")[0] == 2
    assert invoke(capsys, "chi", "--setfn", inputs["std3"], "--m-max", "1_0")[0] == 2
    assert invoke(capsys, "verify-all", "--seed", " 3", "--trials", "1")[0] == 2


def _assert_usage_error(capsys, argv):
    rc = run(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (2, ""), argv
    assert err.startswith("usage: gpcount"), argv
    assert err.count("\n") == 2 and ": error: " in err.splitlines()[1], (argv, err)


def test_top_level_usage(capsys):
    for flag in ("-h", "--help"):
        assert run([flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: gpcount")
        assert all(name in out for name in cli.COMMANDS)
    for argv in ([], ["no-such-command"], ["--setfn", "x"], ["--he"], ["CHI", "-h"]):
        _assert_usage_error(capsys, argv)


def test_pruned_help_gives_the_period_of_the_pieces(capsys):
    # the fan's cones cut the polytope into pieces whose vertices can be
    # finer than its own, so `pruned --period` is not the polytope's period
    periods = {}
    for command in ("pruned", "ehrhart"):
        assert run([command, "-h"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        periods[command] = [line.split(None, 2)[2] for line in out.splitlines()
                            if line.startswith("  --period PERIOD")]
    assert periods == {
        "pruned": ["declared period of the pieces that the fan's cones cut out of the "
                   "polytope, not of the polytope (Beck-Zaslavsky) (default 1)"],
        "ehrhart": ["declared period (default 1)"]}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_usage(command, capsys):
    spec = cli.COMMANDS[command]
    # the fewest flags that parse; no file is opened before the flags are checked
    given = [f.name for f in spec.flags if f.required] + list(spec.exactly_one[:1])

    def argv(names, *extra):
        return [command, *(a for name in names for a in (name, "missing.json")), *extra]

    base = argv(given)
    assert cli.parse(base).command == command
    for flag in ("-h", "--help"):
        assert run([*base, flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: gpcount {command}")
        assert all(f.name in out for f in spec.flags)

    misuse = [base + ["--bogus", "1"], base + ["stray"]]
    for flag in spec.flags:
        misuse.append(base + [flag.name])  # no value
        if len(flag.name) > 3:
            misuse.append(base + [flag.name[:-1], "1"])  # an abbreviation
        if flag.required:
            misuse.append(argv([name for name in given if name != flag.name]))
        if flag.convert is not str:
            for text in ("x", "1.5", "\u0663", "1_0", " 3", "3 ", "3\n", ""):
                misuse.append(base + [flag.name, text])
                misuse.append(base + [f"{flag.name}={text}"])
        if flag.convert is cli._positive:
            misuse.append(base + [flag.name, "0"])
            misuse.append(base + [flag.name, "-1"])
    if spec.exactly_one:
        misuse.append(argv(given[:-1]))  # neither
        misuse.append(argv(given + list(spec.exactly_one[1:])))  # both
    for args in misuse:
        _assert_usage_error(capsys, args)


def test_flag_syntax():
    # `--flag=value`, the last of a repeated flag, and negative integers
    args = cli.parse(["chi", "--setfn=a.json", "--k", "-1", "--m-max", "2", "--m-max=+5"])
    assert (args.setfn, args.k, args.m_max) == ("a.json", -1, 5)
    args = cli.parse(["chi", "--k=-2", "--setfn", "-a b", "--k", "007"])
    assert (args.setfn, args.k, args.m_max) == ("-a b", 7, 3)
    args = cli.parse(["pruned", "--setfn", "-", "--poly", "p=q.json", "--degree", "-1"])
    assert (args.poly, args.fan, args.setfn, args.degree, args.period, args.t_max) == (
        "p=q.json", None, "-", -1, 1, 4)
    assert vars(cli.parse(["verify-all", "--seed", "-3"])) == {
        "command": "verify-all", "help": False, "seed": -3, "trials": 5}
    assert cli.parse(["hg-chromatic", "--hg", "h.json"]).m is None


@pytest.mark.parametrize("read", [0, 10])
def test_closed_stdout_exit_2(read):
    # a reader that stops early: one error line and exit 2, not a traceback
    # and exit 1 (the report is written while the pipe closes) or exit 120
    # (the failed flush at interpreter exit); pi_6's report is far larger
    # than a pipe's buffer, so the write is still under way when it closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "gpcount", "faces", "--setfn", PI_6],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("argv", [
    ["ehrhart", "--poly", str(GOLDEN / "simplex_q3.json"), "--period", "3"],
    ["pruned", "--poly", str(GOLDEN / "cube_3.json"), "--setfn", str(GOLDEN / "pi_3.json")],
])
@pytest.mark.parametrize("degree", [4, 5])
def test_degree_above_the_true_one_exit_2(capsys, argv, degree):
    # both counts have degree 3; a higher declaration is bad input, not a
    # failed identity
    rc, payload, err = invoke(capsys, *argv, "--t-max", "3", "--degree", str(degree))
    assert rc == 2 and payload is None
    assert err == f"error: the counts have degree 3; declared degree {degree} is wrong\n"


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


def _command_key_writers(tree: ast.AST) -> list[str]:
    """The innermost function (or "<module>") around each write of the dict
    key "command": a dict display, a subscript store or a `dict(...)` call."""
    found = []

    def is_key(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == "command"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Dict):
            found.extend(scope for key in node.keys if is_key(key))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            found.extend([scope] if is_key(node.slice) else [])
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dict":
            found.extend(scope for k in node.keywords if k.arg == "command")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_run_writes_the_command_key():
    # a handler returns only its own fields; `run` writes the envelope
    forms = ("def f():\n    return {'command': 1, 'd': 2}\n"
             "def g(p):\n    p['command'] = 1\n    p['d'] = 2\n"
             "h = dict(command=1)\n"
             "def k(p):\n    return p['command'], SimpleNamespace(command=1)\n")
    assert _command_key_writers(ast.parse(forms)) == ["f", "g", "<module>"]
    package = Path(cli.__file__).resolve().parent
    writers = [(path.name, scope) for path in sorted(package.glob("*.py"))
               for scope in _command_key_writers(ast.parse(path.read_text(), str(path)))]
    assert writers == [("cli.py", "run")]


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


def test_non_ascii_digits_exit_2(inputs, capsys):
    # int() reads U+0663 as 3, but a rational literal is ASCII digits only
    path = inputs["dir"] / "arabic_indic.json"
    path.write_text(json.dumps({"d": 1, "values": ["0", "\u0663"]}))
    rc, payload, err = invoke(capsys, "faces", "--setfn", str(path))
    assert rc == 2 and payload is None
    assert err.startswith("error:") and "invalid rational literal" in err


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


@pytest.mark.xfail(strict=True, reason="the cumulative count charges a cone that meets P "
                                       "only on its boundary (ROADMAP item 19)")
@pytest.mark.parametrize("bounds, source", [
    # the quadrants other than the nonnegative one meet the unit square only
    # on its boundary
    ([(0, 1), (0, 1)], ["--fan", "quadrants.json"]),
    # the cone y2 >= y1 of pi_2's normal fan meets [1, 2] x [0, 1] only at
    # its corner (t, t), on the wall y1 = y2
    ([(1, 2), (0, 1)], ["--setfn", "std2.json"]),
], ids=["square-quadrants", "rectangle-pi_2"])
def test_pruned_cone_meeting_p_only_on_its_boundary_exit_0(inputs, capsys, monkeypatch,
                                                           bounds, source):
    # the closed regions of P° cut by the walls number (t + 1)^2
    monkeypatch.chdir(inputs["dir"])
    quadrants = FullDimFan(2, (Cone(((sx, 0), (0, sy))) for sx in (1, -1) for sy in (1, -1)))
    Path("quadrants.json").write_text(json.dumps(fan_to_json(quadrants)))
    Path("poly.json").write_text(json.dumps(hpolytope_to_json(box(bounds))))
    rc, payload, _ = invoke(capsys, "pruned", "--poly", "poly.json", *source, "--t-max", "3")
    assert rc == 0 and [c["rhs"] for c in payload["checks"]] == ["4", "9", "16"], payload


@pytest.mark.xfail(strict=True, reason="a fan is checked only at the points a count scans "
                                       "(ROADMAP item 14)")
@pytest.mark.parametrize("cones", [
    # interiors overlap: the third half-plane meets the first two inside
    [((1, -1),), ((-1, 1),), ((1, 1),)],
    # not complete: the nonnegative orthant alone
    [((-1, 0), (0, -1))],
], ids=["overlapping", "orthant"])
def test_pruned_non_fan_exit_2(inputs, capsys, cones):
    fan = FullDimFan(2, map(Cone, cones))
    fan_path = inputs["dir"] / "non_fan.json"
    fan_path.write_text(json.dumps(fan_to_json(fan)))
    poly = inputs["dir"] / "box12.json"
    poly.write_text(json.dumps(hpolytope_to_json(box([(1, 2), (1, 2)]))))
    rc, payload, _ = invoke(capsys, "pruned", "--poly", str(poly), "--fan", str(fan_path),
                            "--degree", "2", "--t-max", "3")
    assert rc == 2 and payload is None


def test_pruned_fan_sweep_budget_exit_2(inputs, capsys, monkeypatch):
    # the open 6-cube at the fit's last node t = 8 has 7^6 box points but
    # 7^5 runs, each reading pi_6's 30 distinct fan rows and 720 cones of 5
    # rows: 61127059 steps, refused before the first count
    def no_count(*args):
        raise AssertionError("counted before the scan budget was applied")
    monkeypatch.setattr(ehrhart, "_multiplicities", no_count)
    path = inputs["dir"] / "cube_6.json"
    path.write_text(json.dumps(hpolytope_to_json(unit_cube(6))))
    rc, payload, err = invoke(capsys, "pruned", "--poly", str(path), "--setfn", PI_6,
                              "--degree", "6", "--t-max", "1")
    assert rc == 2 and payload is None
    assert err.startswith("error:") and (
        "61127059 steps (117649 box points and 16807 runs of 3630 fan row reads) at t=8"
        f" exceed the budget of {errors.WORK_BUDGET}") in err


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


def test_hg_headings_wide_edge_is_charged_its_reach_table(inputs, capsys):
    # each head test reads the whole n * (n + 1)-bit reach table, so one
    # edge on 2000 nodes is refused before any table is built, and one on
    # 300 nodes, 1411 words a table, is enumerated
    names = [f"v{i}" for i in range(2000)]
    path = inputs["dir"] / "wide.json"
    path.write_text(json.dumps({"nodes": names, "edges": [names]}))
    started = time.perf_counter()
    rc, payload, err = invoke(capsys, "hg-headings", "--hg", str(path))
    assert rc == 2 and payload is None
    assert err == ("error: 125064000 headings by table word (2000 headings times"
                   f" 62532-word reach tables) exceed the budget of {errors.WORK_BUDGET}\n")
    path.write_text(json.dumps({"nodes": names[:300], "edges": [names[:300]]}))
    rc, payload, _ = invoke(capsys, "hg-headings", "--hg", str(path))
    assert rc == 0 and payload["acyclic_count"] == 300
    assert payload["headings"][-1] == ["v299"]
    assert time.perf_counter() - started < 10


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


def test_hg_reciprocity_eight_nodes(inputs, capsys):
    path = inputs["dir"] / "eight.json"
    path.write_text(json.dumps(hypergraph_to_json(EIGHT)))
    rc, payload, _ = invoke(capsys, "hg-reciprocity", "--hg", str(path))
    assert rc == 0 and payload["summary"]["failures"] == 0


def test_face_map_budget_refuses_pi_8_exit_2(inputs, capsys, monkeypatch):
    # charged 3^8 subset pairs times 40 320 vertices before the tight table
    def no_dp(*args):
        raise AssertionError("the face map started before its budget was read")
    monkeypatch.setattr(permutahedron, "_bits", no_dp)
    path = inputs["dir"] / "pi_8.json"
    path.write_text(json.dumps(setfn_to_json(standard_perm_setfn(8))))
    rc, payload, err = invoke(capsys, "chi", "--setfn", str(path))
    assert rc == 2 and payload is None
    assert err == ("error: 264539520 face-map steps (3^8 subset pairs times 40320 "
                   "vertices) exceed the budget of 10000000\n")


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
    # parsing leaves no state behind, bad argv included: a second round of
    # the same runs in one process gives the same exit codes, reports and stderr
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
        fresh.append(outcome(argv))
    shared = [outcome(argv) for argv in argvs]
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
        assert payload["vertices"] == [[str(c) for c in v] for v in expected]


def test_internal_error_exit_3(inputs, capsys, monkeypatch):
    def crash(args):
        raise KeyError("boom")

    monkeypatch.setitem(cli.COMMANDS, "faces", cli.COMMANDS["faces"]._replace(handler=crash))
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


def _outcome(capsys, argv):
    """Exit code, stdout without its timing line, and stderr of one request."""
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, re.sub(r',\n  "timing": [^\n]*', "", captured.out), captured.err


def test_a_kept_polytope_changes_no_outcome(tmp_path, capsys):
    # faces, then chi at every k with --m-max 2 and 3 on pi_4; a second set
    # function; pi_4 again, once with a k out of range; a document rewritten
    # in place under the same path; and the other two commands that build a
    # polytope.  In one process each request prints and exits as it does
    # with nothing kept
    pi_4, doc = str(GOLDEN / "pi_4.json"), tmp_path / "z.json"
    steps = [(GOLDEN / "nonint_4.json").read_text(), ["faces", "--setfn", pi_4]]
    steps += [["chi", "--setfn", pi_4, "--k", str(k), "--m-max", str(m_max)]
              for k in range(4) for m_max in (2, 3)]
    steps += [["chi", "--setfn", str(doc), "--k", "1"], ["faces", "--setfn", str(doc)],
              ["chi", "--setfn", pi_4, "--k", "2"], ["chi", "--setfn", pi_4, "--k", "4"],
              (GOLDEN / "pi_3.json").read_text(), ["faces", "--setfn", str(doc)],
              ["pruned", "--poly", str(GOLDEN / "cube_3.json"), "--setfn", str(doc)],
              ["hg-reciprocity", "--hg", str(GOLDEN / "hg_5.json")],
              ["hg-reciprocity", "--hg", str(GOLDEN / "hg_5.json"), "--m-max", "2"]]

    def send_all(keep):
        outcomes = []
        for step in steps:
            if isinstance(step, str):
                doc.write_text(step)
                continue
            if not keep:
                cli._last_polytope.cache_clear()
            outcomes.append(_outcome(capsys, step))
        return outcomes

    fresh = send_all(keep=False)
    cli._last_polytope.cache_clear()
    assert send_all(keep=True) == fresh
    assert [rc for rc, _, _ in fresh] == [0] * 12 + [2] + [0] * 4
    # one build for each run of requests on an equal set function: 5 runs
    # and 12 requests after the first of their run
    assert cli._last_polytope.cache_info()[:2] == (12, 5)


def test_equal_parsed_and_integer_built_setfns_share_the_kept_polytope():
    # the slot's key is the set function's value: pi_3 from its document
    # (Fractions) and from `standard_perm_setfn` (integers) are one key
    parsed = setfn_from_json(json.loads((GOLDEN / "pi_3.json").read_text()))
    built = standard_perm_setfn(3)
    assert parsed == built and hash(parsed) == hash(built)
    kept = cli._polytope(parsed)
    assert cli._polytope(built) is kept
    assert cli._last_polytope.cache_info()[:2] == (1, 1)


def test_verify_all_leaves_the_kept_polytope(capsys):
    assert invoke(capsys, "faces", "--setfn", str(GOLDEN / "pi_3.json"))[0] == 0
    kept = cli._polytope(standard_perm_setfn(3))
    info = cli._last_polytope.cache_info()
    assert invoke(capsys, "verify-all", "--seed", "1", "--trials", "2")[0] == 0
    assert cli._last_polytope.cache_info() == info
    assert cli._polytope(standard_perm_setfn(3)) is kept


def test_a_kept_check_changes_no_outcome(capsys):
    # verify-all at seeds 1..15 with two trials each, then the ehrhart and
    # pruned golden cases, each twice.  In one process each request prints
    # and exits as it does with no reciprocity check kept
    steps = [["verify-all", "--seed", str(seed), "--trials", "2"] for seed in range(1, 16)]
    steps += [argv for case, argv in sorted(CASES.items())
              if case.startswith(("ehrhart_", "pruned_")) for _ in range(2)]

    def send_all(keep):
        outcomes = []
        for argv in steps:
            if not keep:
                cli._kept_reciprocity.cache_clear()
            outcomes.append(_outcome(capsys, argv))
        return outcomes

    fresh = send_all(keep=False)
    cli._kept_reciprocity.cache_clear()
    assert send_all(keep=True) == fresh
    assert [rc for rc, _, _ in fresh] == [0] * len(steps)
    # the 90 checks of the verify-all requests hold 49 distinct keys; each
    # golden case is kept on its first request and read on its second
    assert cli._kept_reciprocity.cache_info()[:2] == (41 + 5, 49 + 5)


def test_a_kept_report_is_the_callers_own():
    # a check appended to the report of a kept check shows in no later report
    square = unit_cube(2)
    fit, report = cli._reciprocity(ehrhart.em_reciprocity_check, square, 2, 1, 3)
    report.check("appended", 0, 1)
    kept_fit, kept = cli._reciprocity(ehrhart.em_reciprocity_check, square, 2, 1, 3)
    assert cli._kept_reciprocity.cache_info()[:2] == (1, 1)
    assert kept_fit is fit
    assert [e.label for e in kept.entries] == ["t=1", "t=2", "t=3"]
    assert kept.failures == 0


def _pi_fan(d):
    return ehrhart.normal_fan_of(permutahedron.GPerm(standard_perm_setfn(d)))


@pytest.mark.parametrize("check, operands, degree", [
    ("em_reciprocity_check", lambda: (unit_cube(1),), True),
    ("em_reciprocity_check", lambda: (unit_cube(2),), 2.0),
    ("em_reciprocity_check", lambda: (unit_cube(2),), Fraction(2)),
    ("pruned_reciprocity_check", lambda: (unit_cube(1), _pi_fan(1)), True),
    ("pruned_reciprocity_check", lambda: (unit_cube(2), _pi_fan(2)), 2.0),
], ids=["ehrhart-True", "ehrhart-2.0", "ehrhart-Fraction", "pruned-True", "pruned-2.0"])
def test_a_kept_check_refuses_a_degree_that_is_no_int(check, operands, degree):
    # the kept checks are keyed by type too: a degree equal to a kept int
    # degree, but not an int, misses the kept entry and is refused with the
    # check's own ValueError
    check = getattr(ehrhart, check)
    with pytest.raises(ValueError) as fresh:
        check(*operands(), degree, 1, 3)
    cli._reciprocity(check, *operands(), int(degree), 1, 3)
    with pytest.raises(ValueError) as kept:
        cli._reciprocity(check, *operands(), degree, 1, 3)
    assert str(kept.value) == str(fresh.value)
    # two misses, and only the int entry is kept
    info = cli._kept_reciprocity.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 1)


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


def test_verify_all_error_is_a_failed_check(capsys, monkeypatch):
    # verify-all draws its own instances, so an error raised on one is a
    # fault of the program: one failed check names the trial and the family,
    # and the other families and the next trial still run
    draw = cli.random_rational_box

    def wrong_period(rng):
        draw(rng)  # the later families draw what they drew before
        return box([(0, Fraction(1, 2))]), 1, 1  # the vertex 1/2 needs period 2
    monkeypatch.setattr(cli, "random_rational_box", wrong_period)
    rc, payload, err = invoke(capsys, "verify-all", "--seed", "3", "--trials", "2")
    assert (rc, err) == (1, "")
    message = ("constituent for residue 0 disagrees with the count at t=3; "
               "declared degree 1 / period 1 is wrong")
    failed = [c for c in payload["checks"] if not c["pass"]]
    assert failed == [{"label": f"trial {trial}: dilation counts, box: error",
                       "lhs": message, "rhs": "no error", "pass": False}
                      for trial in (1, 2)]
    golden = json.loads((GOLDEN / "verify_all_seed_3.out").read_text())
    assert [c for c in payload["checks"] if c["pass"]] == [
        c for c in golden["checks"] if ": dilation counts, box " not in c["label"]]


def test_verify_all_budget_refusal_in_a_trial_exit_2(capsys, monkeypatch):
    # a budget refusal is a limit, not a fault: no report, exit 2
    monkeypatch.setattr(errors, "WORK_BUDGET", 0)
    rc, payload, err = invoke(capsys, "verify-all", "--seed", "3", "--trials", "2")
    assert (rc, payload) == (2, None)
    assert err.startswith("error:") and "exceed the budget of 0" in err


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
    assert err.startswith("error:") and f"exceed the budget of {errors.LOOP_BUDGET}" in err


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


@pytest.mark.parametrize("name, most, run", cli.FAMILIES,
                         ids=[name for name, _most, _run in cli.FAMILIES])
def test_verify_all_family_check_bound(name, most, run):
    # each row's bound on its own: no draw makes more checks, and one makes
    # exactly that many
    counts = set()
    for seed in range(30):
        report = Report()
        run(random.Random(seed), report, "trial 1")
        counts.add(len(report.entries))
    assert max(counts) == most
