"""Acceptance scorecard.

Each test exercises one end-to-end guarantee of the package and prints a
single ``[criterion N] PASS/FAIL`` line with its runtime, so

    pytest tests/test_acceptance.py -v -s

reads as a checklist.  Every comparison is exact (integer or rational);
the runtime limits are generous for commodity hardware.
"""

import json
import math
import random
import subprocess
import sys
import time

from oracles import all_pass, chromatic_poly_deletion_contraction

from gpcount.ehrhart import (
    Cone,
    FullDimFan,
    cumulative_pruned_count,
    em_reciprocity_check,
    count_lattice,
    inner_pruned_count,
    normal_fan_of,
    pruned_reciprocity_check,
    unit_cube,
)
from gpcount.generators import (
    random_hypergraph,
    random_hypergraphic_setfn,
    random_rational_box,
    random_rational_simplex,
)
from gpcount.hypergraph import (
    Hypergraph,
    acyclic_headings,
    chromatic_count,
    chromatic_polynomial,
    compatible_pairs_count,
    hypergraphic_setfn,
    vertices_via_headings,
)
from gpcount.permutahedron import GPerm, vertices
from gpcount.polynomial import Polynomial
from gpcount.rational import affine_rank
from gpcount.setfn import setfn_from_vertices, standard_perm_setfn

RUNNING_HG = Hypergraph(3, ({1, 2, 3}, {1, 2}, {2, 3}, {1}, {2}, {3}))

DIAGONAL_FAN = FullDimFan(2, (
    Cone((((1, -1), "<=", 0),)),
    Cone((((-1, 1), "<=", 0),)),
))


def _hypergraph_corpus():
    rng = random.Random(23)
    return [random_hypergraph(rng, max_d=5, max_edges=5) for _ in range(50)]


def _finish(num, ok, elapsed, limit, detail):
    timing = f"{elapsed:.2f}s" if limit is None else f"{elapsed:.2f}s, limit {limit}s"
    in_time = limit is None or elapsed < limit
    status = "PASS" if ok and in_time else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({timing})")
    assert ok, detail
    assert in_time, f"criterion {num} exceeded {limit}s"


def test_criterion_1_standard_permutahedra():
    start = time.perf_counter()
    ok = True
    for d in range(2, 6):
        verts = vertices(standard_perm_setfn(d))
        ok = ok and len(verts) == math.factorial(d)
        ok = ok and affine_rank(verts) == d - 1
    _finish(1, ok, time.perf_counter() - start, 1,
            "standard permutahedra d=2..5 have d! vertices of affine rank d-1")


def test_criterion_2_vertex_count_reciprocity():
    start = time.perf_counter()
    P = GPerm(standard_perm_setfn(3))
    ok = P.chi_polynomial(0) == Polynomial((0, 2, -3, 1))
    ok = ok and all_pass(P.verify_reciprocity(0, 4)[1])
    rng = random.Random(11)
    for _ in range(25):
        Q = GPerm(random_hypergraphic_setfn(rng, max_d=5))
        ok = ok and all_pass(Q.verify_reciprocity(0, 3)[1])
    _finish(2, ok, time.perf_counter() - start, 30,
            "vertex-count reciprocity at k=0 for pi_3 (m=1..4) "
            "and 25 random polytopes (m=1..3)")


def test_criterion_3_all_face_dimensions():
    start = time.perf_counter()
    targets = [GPerm(standard_perm_setfn(3)), GPerm(standard_perm_setfn(4))]
    rng = random.Random(29)
    targets += [GPerm(random_hypergraphic_setfn(rng, max_d=4)) for _ in range(10)]
    ok = True
    for P in targets:
        for k in range(P.d):
            p = P.chi_polynomial(k)
            for m in (P.d - k + 2, P.d - k + 3):
                ok = ok and p(m) == P.chi_count(k, m)
            ok = ok and all_pass(P.verify_reciprocity(k, 3)[1])
    _finish(3, ok, time.perf_counter() - start, 60,
            "interpolation at two extra points and reciprocity for every "
            "face dimension of pi_3, pi_4 and 10 random polytopes")


def test_criterion_4_setfn_round_trip():
    start = time.perf_counter()
    rng = random.Random(37)
    fns = [random_hypergraphic_setfn(rng, max_d=6) for _ in range(50)]
    fns += [standard_perm_setfn(d) for d in range(1, 7)]
    ok = all(setfn_from_vertices(vertices(z)) == z for z in fns)
    _finish(4, ok, time.perf_counter() - start, 20,
            "set function recovered from its vertex set for 56 polytopes up to d=6")


def test_criterion_5_heading_vertex_description():
    start = time.perf_counter()
    ok = True
    for h in _hypergraph_corpus() + [RUNNING_HG]:
        ok = ok and (vertices_via_headings(h, acyclic_headings(h))
                     == set(vertices(hypergraphic_setfn(h))))
    _finish(5, ok, time.perf_counter() - start, 20,
            "acyclic-heading in-degree vectors equal polytope vertices "
            "for 51 hypergraphs")


def test_criterion_6_chromatic_identities():
    start = time.perf_counter()
    ok = True
    for h in _hypergraph_corpus() + [RUNNING_HG]:
        P = GPerm(hypergraphic_setfn(h))
        poly = chromatic_polynomial(h)
        sign = (-1) ** h.d
        for m in (1, 2, 3):
            ok = ok and chromatic_count(h, m) == P.chi_count(0, m)
        for m in (1, 2):
            ok = ok and sign * poly(-m) == compatible_pairs_count(h, m)
        ok = ok and sign * poly(-1) == len(acyclic_headings(h))
    rng = random.Random(41)
    for _ in range(15):
        d = rng.randint(2, 5)
        edges = [tuple(rng.sample(range(1, d + 1), 2)) for _ in range(rng.randint(1, 6))]
        h = Hypergraph(d, tuple(frozenset(e) for e in edges))
        ok = ok and chromatic_polynomial(h) == chromatic_poly_deletion_contraction(d, edges)
    _finish(6, ok, time.perf_counter() - start, 60,
            "coloring counts, compatible pairs and acyclic headings line up; "
            "graphs match deletion-contraction")


def test_criterion_7_dilation_counts():
    start = time.perf_counter()
    square = unit_cube(2)
    ok = True
    for t in range(1, 7):
        ok = ok and count_lattice(square, t) == (t + 1) ** 2
        ok = ok and count_lattice(square.interior(), t) == (t - 1) ** 2
    rng = random.Random(43)
    for _ in range(10):
        poly, degree, period = random_rational_box(rng)
        ok = ok and all_pass(em_reciprocity_check(poly, degree, period, 5)[1])
    for _ in range(10):
        poly, degree, period = random_rational_simplex(rng)
        ok = ok and all_pass(em_reciprocity_check(poly, degree, period, 5)[1])
    _finish(7, ok, time.perf_counter() - start, 10,
            "unit-square dilation counts and open/closed reciprocity "
            "for 20 rational boxes and simplices")


def test_criterion_8_pruned_counts():
    start = time.perf_counter()
    square = unit_cube(2)
    ok = all_pass(pruned_reciprocity_check(square, DIAGONAL_FAN, 2, 1, 5)[1])
    for t in range(1, 6):
        ok = ok and inner_pruned_count(square.interior(), DIAGONAL_FAN, t) == (t - 1) * (t - 2)
        ok = ok and cumulative_pruned_count(square, DIAGONAL_FAN, t) == (t + 1) * (t + 2)
    for d in (2, 3):
        fan = normal_fan_of(GPerm(standard_perm_setfn(d)))
        ok = ok and all_pass(pruned_reciprocity_check(unit_cube(d), fan, d, 1, 4)[1])
    rng = random.Random(53)
    for _ in range(10):
        P = GPerm(random_hypergraphic_setfn(rng, max_d=3))
        _, report = pruned_reciprocity_check(unit_cube(P.d), normal_fan_of(P), P.d, 1, 4)
        ok = ok and all_pass(report)
    _finish(8, ok, time.perf_counter() - start, 30,
            "pruned dilation counts against normal fans: unit square with the "
            "diagonal fan (closed forms), cubes d=2,3, 10 random fans (period 1)")


def test_criterion_9_cli_determinism():
    start = time.perf_counter()
    payloads = []
    ok = True
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "gpcount", "verify-all", "--seed", "1",
             "--trials", "5"],
            capture_output=True, text=True)
        ok = ok and proc.returncode == 0
        payload = json.loads(proc.stdout)
        payload.pop("timing", None)
        payloads.append(payload)
    ok = ok and payloads[0] == payloads[1]
    _finish(9, ok, time.perf_counter() - start, None,
            "verify-all --seed 1 --trials 5 run twice is identical apart "
            "from timing and exits 0")
