"""The four workloads: request sequences and the output check for each request.

A workload builds the one pass of requests that a run repeats from a
`random.Random` seeded by the workload seed.  Each request is the argv of one `gpcount` CLI call plus a
check that compares the report's mathematical content with expected values: committed ones
(`expected.json`) for the named documents, and values computed by
`oracles` for the seeded ones.  Only content fields are compared, never the
report bytes, so an added report field does not break the check.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import gen
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
DOCS = os.path.join(HERE, "docs")

Check = Callable[[dict], list]


@dataclass
class Request:
    label: str          # request kind, e.g. "faces pi_6" or "chi seeded d=5"
    argv: list
    check: Check
    named: bool = False  # content is compared with expected.json under `label`


@dataclass
class Pass:
    requests: list = field(default_factory=list)
    docs: dict = field(default_factory=dict)   # file name -> document to write
    setup: list = field(default_factory=list)  # (kind, file name) objects to build in setup_s


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def content(payload: dict) -> dict:
    """The mathematical content of a report, by command."""
    cmd = payload["command"]
    out = {"command": cmd}
    for key in ("polynomial", "quasipolynomial", "inner_quasipolynomial", "count",
                "acyclic_count", "degree", "d", "k", "m"):
        if key in payload:
            out[key] = payload[key]
    if "checks" in payload:
        out["checks"] = [[c["label"], c["lhs"], c["rhs"]] for c in payload["checks"]]
    if cmd == "faces":
        dims: dict = {}
        for f in payload["faces"]:
            dims[f["dim"]] = dims.get(f["dim"], 0) + 1
        out["f_vector"] = [dims.get(k, 0) for k in range(max(dims) + 1)]
        out["vertices"] = digest(payload["vertices"])
        out["faces"] = digest(payload["faces"])
    if cmd == "hg-headings":
        out["headings"] = digest(payload["headings"])
        out["indegree_vectors"] = digest(payload["indegree_vectors"])
    return out


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    return Fraction(text)


def checks_pass(payload: dict) -> list:
    """Every check holds when lhs and rhs are re-read, and the summary agrees."""
    errors = []
    checks = payload.get("checks", [])
    for c in checks:
        if _value(c["lhs"]) != _value(c["rhs"]) or c["pass"] is not True:
            errors.append(f"check {c['label']!r}: {c['lhs']} vs {c['rhs']}")
    summary = payload.get("summary", {})
    if summary != {"checks": len(checks), "failures": 0}:
        errors.append(f"summary {summary} for {len(checks)} checks")
    return errors


def rhs_of(payload: dict) -> dict:
    return {c["label"]: Fraction(c["rhs"]) for c in payload.get("checks", [])}


def expect_poly(coefficients, points, what: str) -> list:
    """The constant-first polynomial takes the value y at each (x, y)."""
    return [f"{what} at {x}: {oracles.poly_eval(coefficients, x)} != {y}"
            for x, y in points if oracles.poly_eval(coefficients, x) != y]


@functools.cache
def expected() -> dict:
    """Committed report content of the named requests, by label."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def named_check(label: str, extra: Check | None = None) -> Check:
    def check(payload):
        errors = []
        if content(payload) != expected().get(label):
            errors.append(f"content differs from expected.json[{label!r}]")
        if extra is not None:
            errors += extra(payload)
        return errors
    return check


# --- per-command checks against oracles ------------------------------------

def chi_perm_check(d: int, k: int, m_max: int) -> Check:
    def check(payload):
        errors = checks_pass(payload)
        errors += expect_poly(payload["polynomial"],
                              [(m, oracles.perm_chi(d, k, m)) for m in range(1, d - k + 2)],
                              f"chi_{k}")
        return errors
    return check


def faces_perm_check(d: int) -> Check:
    def check(payload):
        c = content(payload)
        if c["f_vector"] != oracles.perm_f_vector(d):
            return [f"f-vector {c['f_vector']}"]
        return []
    return check


def chromatic_points(d: int, edges) -> list:
    return [(m, oracles.chromatic_count(d, edges, m)) for m in range(1, d + 2)]


def faces_hg_check(inst: dict) -> Check:
    d, edges, weights = inst["d"], inst["edges"], inst["weights"]
    want = oracles.hypergraphic_vertices(d, edges, weights)

    def check(payload):
        errors = []
        got = {tuple(Fraction(c) for c in v) for v in payload["vertices"]}
        if got != want or len(payload["vertices"]) != len(want):
            errors.append(f"vertices: {len(payload['vertices'])} vs {len(want)} expected")
        c = content(payload)
        euler = sum((-1) ** k * n for k, n in enumerate(c["f_vector"]))
        if euler != 1 or c["f_vector"][0] != len(want) or c["f_vector"][-1] != 1:
            errors.append(f"f-vector {c['f_vector']}")
        return errors
    return check


def chi_hg_check(inst: dict, k: int, family: dict) -> Check:
    """k = 0 is the hypergraph's chromatic polynomial; the direction counts of
    all k of one polytope sum to m^d, checked when the last k is in."""
    d, edges = inst["d"], inst["edges"]
    chrom = chromatic_points(d, edges) if k == 0 else None

    def check(payload):
        errors = checks_pass(payload)
        if chrom is not None:
            errors += expect_poly(payload["polynomial"], chrom, "chi_0")
        family[k] = payload["polynomial"]
        if len(family) == d:
            for m in range(1, d + 2):
                total = sum(oracles.poly_eval(p, m) for p in family.values())
                if total != m ** d:
                    errors.append(f"sum of chi_k at m={m} is {total}, not {m ** d}")
        return errors
    return check


def hg_chromatic_check(inst: dict, m: int) -> Check:
    points = chromatic_points(inst["d"], inst["edges"])

    def check(payload):
        errors = expect_poly(payload["polynomial"], points, "chromatic")
        want = oracles.chromatic_count(inst["d"], inst["edges"], m)
        if Fraction(payload["count"]) != want:
            errors.append(f"count at m={m}: {payload['count']} != {want}")
        return errors
    return check


def hg_reciprocity_check(inst: dict, m_max: int) -> Check:
    points = chromatic_points(inst["d"], inst["edges"])

    def check(payload):
        errors = checks_pass(payload)
        errors += expect_poly(payload["polynomial"], points, "chromatic")
        if len(payload["checks"]) != 3 * m_max + 1:
            errors.append(f"{len(payload['checks'])} checks, expected {3 * m_max + 1}")
        return errors
    return check


def hg_headings_check(inst: dict) -> Check:
    """Acyclic headings number (-1)^d chi(-1); each listed one is acyclic and
    distinct, and the in-degree vectors are exactly theirs."""
    d, edges = inst["d"], inst["edges"]
    want = (-1) ** d * oracles.lagrange_at(chromatic_points(d, edges), -1)
    names = gen.NODE_NAMES[:d]

    def check(payload):
        errors = []
        heads = [tuple(names.index(n) + 1 for n in h) for h in payload["headings"]]
        if payload["acyclic_count"] != want or len(heads) != want:
            errors.append(f"{payload['acyclic_count']} acyclic headings, expected {want}")
        if len(set(heads)) != len(heads):
            errors.append("repeated heading")
        for h in heads:
            if not all(x in e for x, e in zip(h, edges)) or not oracles.is_acyclic(d, edges, h):
                errors.append(f"heading {h} is not an acyclic heading")
                break
        vectors = set()
        for h in heads:
            v = [0] * d
            for x in h:
                v[x - 1] += 1
            vectors.add(tuple(v))
        if sorted(vectors) != [tuple(v) for v in payload["indegree_vectors"]]:
            errors.append("in-degree vectors differ from the headings'")
        return errors
    return check


def ehrhart_check(closed: Callable, open_: Callable, degree: int, period: int,
                  t_max: int) -> Check:
    """The quasipolynomial matches the closed counts on degree+2 nodes of every
    residue class, and each check's rhs is the open count."""
    def check(payload):
        errors = checks_pass(payload)
        qp = payload["quasipolynomial"]
        if qp["period"] != period:
            errors.append(f"period {qp['period']}")
            return errors
        for r in range(period):
            for i in range(degree + 2):
                t = (r or period) + i * period
                if oracles.quasi_eval(qp, t) != closed(t):
                    errors.append(f"count at t={t}: {oracles.quasi_eval(qp, t)} != {closed(t)}")
        rhs = rhs_of(payload)
        for t in range(1, t_max + 1):
            if rhs.get(f"t={t}") != open_(t):
                errors.append(f"open count at t={t}: {rhs.get(f't={t}')} != {open_(t)}")
        return errors
    return check


def pruned_cube_check(vertices, d: int, t_max: int) -> Check:
    counts = {t: oracles.cube_pruned(vertices, d, t) for t in range(1, max(t_max, d + 1) + 1)}

    def check(payload):
        errors = checks_pass(payload)
        inner = payload["inner_quasipolynomial"]
        for t in range(1, d + 2):
            if oracles.quasi_eval(inner, t) != counts[t][0]:
                errors.append(f"inner count at t={t}")
        rhs = rhs_of(payload)
        for t in range(1, t_max + 1):
            if rhs.get(f"t={t}") != counts[t][1]:
                errors.append(f"cumulative count at t={t}: {rhs.get(f't={t}')} != {counts[t][1]}")
        return errors
    return check


def verify_check(seed: int) -> Check:
    def check(payload):
        errors = checks_pass(payload)
        if (payload.get("seed") != seed or payload.get("trials") != VERIFY_TRIALS
                or not payload["checks"]):
            errors.append("verify-all report does not echo its seed and trials")
        return errors
    return check


# --- workloads --------------------------------------------------------------
#
# A run repeats one pass, each time in a fresh interpreter, and reports the
# best time of each request over the passes, so a pass is kept near two
# seconds and every request in it is small enough to be sent many times in
# one run.  Seeded documents are relabelled templates (see `gen`), so their
# cost does not depend on the seed.

def _doc(name: str) -> str:
    return os.path.join(DOCS, name + ".json")


def _perm_vertices(d: int):
    return {tuple(Fraction(c) for c in p) for p in itertools.permutations(range(1, d + 1))}


def _named(p: Pass, label: str, argv: list, extra: Check | None = None) -> None:
    p.requests.append(Request(label, argv, named_check(label, extra), named=True))


def _template(name: str, d: int, sizes) -> list:
    return gen.template_edges(name, d, sizes)


def gperm(rng: random.Random, tiny: bool) -> Pass:
    """faces on pi_5 and chi on it at every k, faces and chi at every k on a
    seeded hypergraphic set function with d = 5, faces on three with d = 6: the
    face lattice, greedy vertices and affine ranks do the work.  pi_6 is only
    built in set-up: any request on it builds its 4683-face lattice (about 4 s),
    too long to repeat in a pass."""
    p = Pass()
    small = 3 if tiny else 5
    _named(p, f"faces pi_{small}", ["faces", "--setfn", _doc(f"pi_{small}")],
           faces_perm_check(small))
    # Twice as many pi_5 requests as seeded d=5 ones, so the median rank
    # falls well inside this committed group.
    for k in range(small):
        for m_max in (2, 3):
            _named(p, f"chi pi_{small} k={k} m-max {m_max}",
                   ["chi", "--setfn", _doc(f"pi_{small}"), "--k", str(k),
                    "--m-max", str(m_max)],
                   chi_perm_check(small, k, m_max))
    # Three faces requests on seeded d = 6 set functions (relabellings of one
    # template, so of equal cost) are the costliest of the pass: with about
    # eight passes the ten requests beyond request_tail_s all fall among
    # them, and the tail rank sits inside that group, not at its edge.
    sizes5, sizes6 = ((2, 3, 2), (2, 3, 4, 2)) if tiny else ((2, 3, 4, 2), (2, 3, 3, 4, 2))
    inst = gen.random_hypergraphic_setfn(rng, small, _template(f"gperm/d{small}", small, sizes5))
    name = f"setfn{small}.json"
    p.docs[name] = inst["doc"]
    p.setup.append(("gperm", name))
    p.requests.append(Request(f"faces seeded d={small}", ["faces", "--setfn", name],
                              faces_hg_check(inst)))
    family: dict = {}
    for k in range(small):
        p.requests.append(Request(
            f"chi seeded d={small} k={k}",
            ["chi", "--setfn", name, "--k", str(k), "--m-max", "3"],
            chi_hg_check(inst, k, family)))
    big = small + 1
    for i in range(3):
        inst = gen.random_hypergraphic_setfn(rng, big, _template(f"gperm/d{big}", big, sizes6))
        name = f"setfn{big}_{i}.json"
        p.docs[name] = inst["doc"]
        p.setup.append(("gperm", name))
        p.requests.append(Request(f"faces seeded d={big}", ["faces", "--setfn", name],
                                  faces_hg_check(inst)))
    p.setup += [("gperm", _doc(f"pi_{small + 1}")), ("gperm", _doc(f"pi_{small}"))]
    return p


def dilation(rng: random.Random, tiny: bool) -> Pass:
    """ehrhart and pruned: lattice scans, cone multiplicity and quasipolynomial
    fits; the face lattice is never built."""
    p = Pass()
    # simplex_4 at t-max 20, box_q6 and simplex_q3 are the costliest requests
    # (0.5 to 0.7 s): with seven passes their 21 requests hold the tail rank
    # in the middle, not at the edge of a group.
    for t_simplex in (6,) if tiny else (16, 20):
        _named(p, f"ehrhart simplex_4 t-max {t_simplex}",
               ["ehrhart", "--poly", _doc("simplex_4"), "--degree", "4", "--period", "1",
                "--t-max", str(t_simplex)],
               ehrhart_check(lambda t: oracles.simplex_count(4, 1, t),
                             lambda t: oracles.simplex_count(4, 1, t, open_=True),
                             4, 1, t_simplex))
    for name, meta in ([] if tiny else NAMED_RATIONAL.items()):
        _named(p, f"ehrhart {name}",
               ["ehrhart", "--poly", _doc(name), "--degree", str(meta["degree"]),
                "--period", str(meta["period"]), "--t-max", str(meta["t_max"])],
               _rational_check(meta, meta["t_max"]))
        p.setup.append(("poly", _doc(name)))
    for i in range(1 if tiny else 2):
        inst = gen.random_rational_box(rng, (2, 3), (2, 3))
        _seeded_rational(p, f"box{i}.json", "ehrhart seeded box d=2", inst,
                         {"kind": "box", "bounds": inst["bounds"]})
    for i in range(0 if tiny else 2):
        inst = gen.random_rational_simplex(rng, 3, 2, (1, 2))
        _seeded_rational(p, f"simplex{i}.json", "ehrhart seeded simplex d=3", inst,
                         {"kind": "simplex", "d": 3, "scale": inst["scale"]})
    # The braid fan of pi_4 has 24 cones: pruned cube_4 against it takes 3 to
    # 8 s, so the braid fan here is pi_3's and the d = 4 fan is a seeded
    # graphical one (a relabelled path, 8 cones).
    _named(p, "pruned cube_3 pi_3",
           ["pruned", "--poly", _doc("cube_3"), "--setfn", _doc("pi_3"), "--degree", "3",
            "--period", "1", "--t-max", "3"],
           pruned_cube_check(_perm_vertices(3), 3, 3))
    p.setup += [("poly", _doc("cube_3")), ("fan", _doc("pi_3")), ("fan", _doc("pi_4")),
                ("poly", _doc("simplex_4"))]
    fans = [(3, (2, 3, 2), "cube_3", 4), (3, (3, 2, 2), "cube_3", 4)]
    if not tiny:
        fans.append((4, [(1, 2), (2, 3), (3, 4)], "cube_4", 2))
    for i, (d, shape, cube, t_max) in enumerate(fans):
        edges = shape if isinstance(shape[0], tuple) else _template(f"dilation/fan{i}", d, shape)
        inst = gen.random_hypergraphic_setfn(rng, d, edges)
        name = f"fan{i}.json"
        p.docs[name] = inst["doc"]
        p.setup.append(("fan", name))
        verts = oracles.hypergraphic_vertices(d, inst["edges"], inst["weights"])
        p.requests.append(Request(
            f"pruned {cube} seeded fan d={d}",
            ["pruned", "--poly", _doc(cube), "--setfn", name, "--degree", str(d),
             "--period", "1", "--t-max", str(t_max)],
            pruned_cube_check(verts, d, t_max)))
    return p


def _seeded_rational(p: Pass, name: str, label: str, inst: dict, meta: dict) -> None:
    p.docs[name] = inst["doc"]
    p.setup.append(("poly", name))
    meta.update(degree=inst["degree"], period=inst["period"])
    p.requests.append(Request(
        label, ["ehrhart", "--poly", name, "--degree", str(inst["degree"]),
                "--period", str(inst["period"]), "--t-max", "4"], _rational_check(meta, 4)))


def _rational_check(meta: dict, t_max: int) -> Check:
    if meta["kind"] == "box":
        bounds = [(Fraction(lo), Fraction(hi)) for lo, hi in meta["bounds"]]
        closed = lambda t: oracles.box_count(bounds, t)
        open_ = lambda t: oracles.box_count(bounds, t, open_=True)
    else:
        d, scale = meta["d"], Fraction(meta["scale"])
        closed = lambda t: oracles.simplex_count(d, scale, t)
        open_ = lambda t: oracles.simplex_count(d, scale, t, open_=True)
    return ehrhart_check(closed, open_, meta["degree"], meta["period"], t_max)


# The committed rational documents, what they are, and the
# --t-max their ehrhart request uses.
NAMED_RATIONAL = {
    "box_q6": {"kind": "box", "bounds": [["-1/2", "7/3"], ["1/3", "5/2"], ["0", "3/2"]],
               "degree": 3, "period": 6, "t_max": 4},
    "box_q2": {"kind": "box", "bounds": [["-1/2", "5/2"], ["1/2", "3"], ["-1", "3/2"],
                                         ["0", "1/2"]],
               "degree": 4, "period": 2, "t_max": 4},
    "box_q4": {"kind": "box", "bounds": [["-3/4", "9/4"], ["1/4", "7/2"], ["0", "5/4"]],
               "degree": 3, "period": 4, "t_max": 4},
    "simplex_q3": {"kind": "simplex", "d": 3, "scale": "7/3", "degree": 3, "period": 3,
                   "t_max": 4},
    "simplex_q2": {"kind": "simplex", "d": 3, "scale": "5/2", "degree": 3, "period": 2,
                   "t_max": 4},
    "simplex_q4": {"kind": "simplex", "d": 2, "scale": "9/4", "degree": 2, "period": 4,
                   "t_max": 50},
}


def hypergraph(rng: random.Random, tiny: bool) -> Pass:
    """hg-chromatic and hg-headings on two seeded 6-node hypergraphs, hg-headings
    on one with 9 edges, hg-reciprocity and hg-chromatic on a 5-node one: the
    coloring and heading scans do the work, plus a small-vertex face lattice.
    (hg-reciprocity on 6 nodes takes about 3 s, too long to repeat in a pass.)

    The two 6-node hypergraphs relabel one template, so their hg-chromatic
    requests cost the same and are the costliest of the pass: with about ten
    passes request_tail_s falls inside that group.  The 9-edge hg-headings
    request sits in the middle of the pass's costs, so request_p50_s falls
    inside its group."""
    p = Pass()
    d = 4 if tiny else 6
    sizes = (3, 2, 2, 3) if tiny else (3, 3, 2, 2, 4, 2, 3)
    for i in range(2):
        inst = gen.random_hypergraph(rng, d, _template("hypergraph/hg", d, sizes))
        name = f"hg{i}.json"
        p.docs[name] = inst["doc"]
        p.setup.append(("hg", name))
        p.requests.append(Request(f"hg-chromatic d={d}",
                                  ["hg-chromatic", "--hg", name, "--m", "3"],
                                  hg_chromatic_check(inst, 3)))
        p.requests.append(Request(f"hg-headings d={d}", ["hg-headings", "--hg", name],
                                  hg_headings_check(inst)))
    many = (3, 3, 2, 3) if tiny else (3, 3, 3, 2, 3, 3, 2, 3, 3)
    inst = gen.random_hypergraph(rng, d, _template("hypergraph/many", d, many))
    p.docs["hgmany.json"] = inst["doc"]
    p.setup.append(("hg", "hgmany.json"))
    p.requests.append(Request(f"hg-headings d={d} edges={len(many)}",
                              ["hg-headings", "--hg", "hgmany.json"], hg_headings_check(inst)))
    d5 = d - 1
    sizes = (2, 3, 2) if tiny else (3, 3, 2, 2, 4, 2)
    inst = gen.random_hypergraph(rng, d5, _template("hypergraph/recip", d5, sizes))
    p.docs["hgrecip.json"] = inst["doc"]
    p.setup.append(("hg", "hgrecip.json"))
    p.requests.append(Request(f"hg-reciprocity d={d5}",
                              ["hg-reciprocity", "--hg", "hgrecip.json", "--m-max", "2"],
                              hg_reciprocity_check(inst, 2)))
    p.requests.append(Request(f"hg-chromatic d={d5}",
                              ["hg-chromatic", "--hg", "hgrecip.json", "--m", "3"],
                              hg_chromatic_check(inst, 3)))
    return p


# verify-all seeds: every pass sends seeds 1 .. 15, two trials each, in an
# order drawn from the workload seed; a pass runs in a fresh interpreter, so
# no pass reuses what an earlier one cached.  One trial's cost depends on the
# ground-set sizes its seed draws and spans two orders of magnitude
# (coefficient of variation about 1.1), so seeds drawn afresh per run made
# wall_s, request_p50_s and request_tail_s spread by 14 to 19% between runs;
# a fixed block keeps the work the same for every workload seed.
VERIFY_BLOCK = 15
VERIFY_TRIALS = 2


def verify(rng: random.Random, tiny: bool) -> Pass:
    """Many small verify-all requests on distinct seeds: every layer does
    a little on small instances, so per-request fixed costs dominate.
    verify-all reads no documents; the ones drawn here are only built by the
    set-up probe, one of each kind of object a trial builds."""
    p = Pass()
    seeds = list(range(1, 1 + (3 if tiny else VERIFY_BLOCK)))
    rng.shuffle(seeds)
    for seed in seeds:
        p.requests.append(Request("verify-all", ["verify-all", "--seed", str(seed),
                                                 "--trials", str(VERIFY_TRIALS)],
                                  verify_check(seed)))
    box = gen.random_rational_box(rng, (2, 3), (1, 1))
    simplex = gen.random_rational_simplex(rng, 3, 3, (1, 3))
    setfn = gen.random_hypergraphic_setfn(rng, 5, _template("verify/setfn", 5, (2, 3, 4, 2)))
    fan = gen.random_hypergraphic_setfn(rng, 3, _template("verify/fan", 3, (2, 3)))
    hg = gen.random_hypergraph(rng, 5, _template("verify/hg", 5, (2, 3, 4, 2, 3)))
    for kind, name, inst in (("poly", "box", box), ("poly", "simplex", simplex),
                             ("gperm", "setfn", setfn), ("fan", "fan", fan), ("hg", "hg", hg)):
        p.docs[f"{name}.json"] = inst["doc"]
        p.setup.append((kind, f"{name}.json"))
    return p


WORKLOADS = {"gperm": gperm, "dilation": dilation, "hypergraph": hypergraph,
             "verify": verify}
