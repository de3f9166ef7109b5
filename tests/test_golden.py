"""Golden reports: the stdout of `faces`, of `chi --k k` at every k, and of
`hg-reciprocity`, `hg-chromatic --m 3` and `hg-headings` on three fixed
inputs in `tests/golden/` (pi_4, a seeded non-integer set function with
d = 4, and a 5-node hypergraph), of the fitted
quasipolynomials of `ehrhart` on a period-6 rational box, a period-3
rational simplex and a period-2 triangle in 3-space written with fractional,
non-primitive rows and an opposite pair, of `pruned` on the unit 3-cube
against the normal fan of pi_3 and on a period-2 rectangle against a fan
document of four cones, both written with fractional, non-primitive rows,
and of `verify-all --seed 3 --trials 2`, compared byte for byte with
the committed fixtures there apart from the `timing` value.  Each report
must also equal `json.dumps(json.loads(report), indent=2)`, which pins the
CLI's own JSON writer to the stdlib format.  Two larger `faces` reports, on
pi_5 and on a seeded set function with d = 6, are pinned by the sha256 of
their bytes without the `timing` line, too large to commit as fixtures.

A refactor must leave these reports unchanged.  To record an intended
report change, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from gpcount import cli
from gpcount.cli import run
from gpcount.generators import random_hypergraphic_setfn
from gpcount.permutahedron import GPerm
from gpcount.setfn import standard_perm_setfn
from oracles import setfn_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"
TIMING = re.compile(r'"timing": [-+0-9.e]+')


def _cases() -> dict:
    cases = {}
    for name, d in (("pi_4", 4), ("nonint_4", 4)):
        doc = str(GOLDEN / f"{name}.json")
        cases[f"faces_{name}"] = ["faces", "--setfn", doc]
        for k in range(d):
            cases[f"chi_{name}_k{k}"] = ["chi", "--setfn", doc, "--k", str(k)]
    hg_5 = str(GOLDEN / "hg_5.json")
    cases["hg_reciprocity_hg_5"] = ["hg-reciprocity", "--hg", hg_5]
    cases["hg_chromatic_hg_5"] = ["hg-chromatic", "--hg", hg_5, "--m", "3"]
    cases["hg_headings_hg_5"] = ["hg-headings", "--hg", hg_5]
    for name, period in (("box_q6", 6), ("simplex_q3", 3)):
        cases[f"ehrhart_{name}"] = ["ehrhart", "--poly", str(GOLDEN / f"{name}.json"),
                                    "--degree", "3", "--period", str(period), "--t-max", "4"]
    cases["pruned_cube_3_pi_3"] = ["pruned", "--poly", str(GOLDEN / "cube_3.json"),
                                   "--setfn", str(GOLDEN / "pi_3.json"), "--degree", "3",
                                   "--period", "1", "--t-max", "3"]
    cases["ehrhart_triangle_q2"] = ["ehrhart", "--poly", str(GOLDEN / "triangle_q2.json"),
                                    "--degree", "2", "--period", "2", "--t-max", "4"]
    cases["pruned_rect_q2_fan_diag_q"] = ["pruned", "--poly", str(GOLDEN / "rect_q2.json"),
                                          "--fan", str(GOLDEN / "fan_diag_q.json"),
                                          "--degree", "2", "--period", "2", "--t-max", "4"]
    cases["verify_all_seed_3"] = ["verify-all", "--seed", "3", "--trials", "2"]
    return cases


CASES = _cases()


def report(argv) -> str:
    """The stdout of one CLI call with its timing value set to 0; the call
    must exit 0 and write nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert (rc, err.getvalue()) == (0, ""), (argv, rc, err.getvalue())
    return TIMING.sub('"timing": 0', out.getvalue())


def test_every_command_has_a_golden_case():
    assert {argv[0] for argv in CASES.values()} == set(cli.COMMANDS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    out = report(CASES[case])
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# The sha256 of each `faces` report, its `timing` line taken out; seed 383
# draws d = 6 with 38 vertices and 303 faces.
LARGE_FACES = {
    "pi_5": (lambda: standard_perm_setfn(5),
             "53dd2f3300f269767f0a4001b9b6b992be9a50edd90d74e335c52da595266232"),
    "seeded_6": (lambda: random_hypergraphic_setfn(random.Random(383), max_d=6),
                 "a1c6176ea3a7bba0713e342d9105b68cf10b9cde67ffd81fd82cea68bda055ca"),
}


@pytest.mark.parametrize("name", sorted(LARGE_FACES))
def test_large_faces_report_bytes(name, tmp_path):
    make, digest = LARGE_FACES[name]
    z = make()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(setfn_to_json(z)))
    out = report(["faces", "--setfn", str(path)])
    lines = out.splitlines(keepends=True)
    assert sum(line.startswith('  "timing": ') for line in lines) == 1
    kept = "".join(line for line in lines if not line.startswith('  "timing": '))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
    faces = sorted((face.dim, face.vertex_ids) for face in GPerm(z).face_lattice())
    assert json.loads(out)["faces"] == [{"dim": dim, "vertices": list(ids)}
                                        for dim, ids in faces]


if __name__ == "__main__":
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_text(report(argv), encoding="utf-8")
