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
their bytes without the `timing` line, too large to commit as fixtures, and
so are the `verify-all` reports of seeds 1 to 15 at two trials and of seeds
1, 7 and 20 at five, with their timing value set to 0.

A refactor must leave these reports unchanged.  To record an intended
report change, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

which also rewrites the `verify-all` digests in this file, and say in
CHANGES.md which reports changed and why.
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


# The sha256 of each `verify-all` report, its timing value set to 0: seeds 1
# to 15 at two trials are the seed block the benchmark's `verify` workload
# sends, and seeds 1, 7 and 20 at five trials draw deeper.  Regenerated by
# this file's `__main__`.
VERIFY_ALL = {
    (1, 2): "4e84489ec2a51f854fb718b61f0d47d2d058778586fec2560ec047ae741aaa55",
    (2, 2): "eb356b1cd2395389b47c60fcd7a145150a032851424c40745eaf441963a1b9bd",
    (3, 2): "cc22ad830ece690d2e44ff743924c9ed6cd87692cadd0328c004fdaf963d19b5",
    (4, 2): "4f48da06e3205b2a6f88728e77aadfd0179ec7c89eb2ad473c0acd1c64bf7933",
    (5, 2): "de716e7c6177801a8fc12129adba996eb548a12dab68f20af1010e78da21007a",
    (6, 2): "489116e92949dff52f70bc7949cc6438f2f678d5bd9052609f80af3202091d83",
    (7, 2): "575f2f529d7df30a54007e5714e30acc251f3a283026f14de78fd5bf07aa3f13",
    (8, 2): "0b51742a3f2a7cb3ed4e04068849c1d1e6519f6f9b456508e258effd3b43befe",
    (9, 2): "3b39c088ca6fe501c110221d5fc234b516dbfda591476f79f2726c852555b76b",
    (10, 2): "25f238f0aada8eec87fba060bbe528ed76e8c3687cbdd3d58dd81b3e159b83ce",
    (11, 2): "84a88bcb90b793bc93bf784999d8d843be93852a2e7329320c893c86ee281458",
    (12, 2): "2c56d40e96176b9ac94752178880cb43fe048d7a4f08468318b713aca23275d4",
    (13, 2): "d63b744cab8dabcfc320f3d7996266754c69739956ec580ec89735ea1b85a24a",
    (14, 2): "5c239b815be8b9b22f0d882b2cb9912831eb82b9fced1a8b30803c5de0f7eeec",
    (15, 2): "9ae34ff934dadad7508566f3275e262cf0e0b4f30bf50e6b495220f740371bb9",
    (1, 5): "7988768ffd69e3102a9dae0f7e90cf0bd4836c732923a9ab736ab8f3ab1dc6b6",
    (7, 5): "e882dbf6ccd2eff640b59acc66575cdee5f99056ac6f056caf0000d7e4a33459",
    (20, 5): "9af075785cb028caa5d8b9285839afbf3f142261f614c467d6fc8fc64be3a6d1",
}


@pytest.mark.parametrize("seed, trials", sorted(VERIFY_ALL))
def test_verify_all_report_bytes(seed, trials):
    out = report(["verify-all", "--seed", str(seed), "--trials", str(trials)])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL[seed, trials]


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


def _verify_all_digests() -> str:
    """The `VERIFY_ALL` table as source, one line per report."""
    keys = [(seed, 2) for seed in range(1, 16)] + [(seed, 5) for seed in (1, 7, 20)]
    lines = []
    for seed, trials in keys:
        out = report(["verify-all", "--seed", str(seed), "--trials", str(trials)])
        lines.append(f'    ({seed}, {trials}): "{hashlib.sha256(out.encode()).hexdigest()}",')
    return "VERIFY_ALL = {\n" + "\n".join(lines) + "\n}"


if __name__ == "__main__":
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_text(report(argv), encoding="utf-8")
    here = Path(__file__)
    here.write_text(re.sub(r"VERIFY_ALL = \{.*?\n\}", lambda _: _verify_all_digests(),
                           here.read_text(encoding="utf-8"), count=1, flags=re.S),
                    encoding="utf-8")
