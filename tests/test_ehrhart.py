import itertools
import json
import random
import re
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcount import ehrhart, errors
from gpcount.errors import (
    BudgetExceededError,
    IncompleteFanError,
    InputFormatError,
    InterpolationMismatchError,
)
from gpcount.ehrhart import (
    Cone,
    FullDimFan,
    HPolytope,
    box,
    count_lattice,
    cumulative_pruned_count,
    ehrhart_quasipoly,
    em_reciprocity_check,
    fan_from_json,
    hpolytope_from_json,
    inner_pruned_count,
    multiplicity,
    normal_fan_of,
    pruned_reciprocity_check,
    standard_simplex,
    unit_cube,
)
from gpcount.generators import (
    random_hypergraph,
    random_hypergraphic_setfn,
    random_rational_box,
    random_rational_simplex,
)
from gpcount.hypergraph import chromatic_count, compatible_pairs_count, hypergraphic_setfn
from gpcount.permutahedron import GPerm
from gpcount.polynomial import interpolate_quasipoly
from gpcount.setfn import standard_perm_setfn
from oracles import (
    all_pass,
    brute_fan_check,
    brute_lattice_points,
    brute_multiplicity,
    brute_normal_fan,
    chain_walk_normal_fan,
    dilate_frame,
    fan_to_json,
    hpolytope_to_json,
    primitive_cone,
    single_point,
    with_rows,
)
from test_permutahedron import non_integer_setfn

SQUARE = unit_cube(2)
SEGMENT_HALF = box([(0, Fraction(1, 2))])
DIAGONAL_FAN = FullDimFan(2, (
    Cone(((1, -1),)),
    Cone(((-1, 1),)),
))
WHOLE_PLANE = FullDimFan(2, (Cone(()),))
# a half-plane, the whole plane and the opposite half-plane: they cover the
# plane, but every point with x1 != 0 lies strictly inside two of them
OVERLAPPING = FullDimFan(2, (
    Cone(((1, 0),)),
    Cone(()),
    Cone(((-1, 0),)),
))
# one diagonal row, so nothing folds: (10^5 + 1)^2 prefixes at t = 1
HUGE_SIMPLEX = HPolytope(3, (((1, 1, 1), "<=", 300000),), ((0, 10 ** 5),) * 3)


def perm_gp(d):
    return GPerm(standard_perm_setfn(d))


def test_constructors():
    assert SQUARE.bbox == ((0, 1), (0, 1))
    assert len(SQUARE.rows) == 4
    for d in range(1, 7):
        assert unit_cube(d) == box([(0, 1)] * d)
    assert box([(Fraction(-1, 2), Fraction(3, 2))]).bbox == ((-1, 2),)
    assert standard_simplex(2).rows[-1][2] == 1
    assert single_point((Fraction(1, 2),)).bbox == ((0, 1),)


def test_hpolytope_validation():
    with pytest.raises(ValueError):
        HPolytope(2, (((1, 0), "<<", 0),), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        HPolytope(2, (((1,), "<=", 0),), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        HPolytope(1, (), ((3, 0),))
    with pytest.raises(ValueError):
        box([(1, 0)])


def test_bbox_bounds_must_be_integers():
    # truncating 3/2 to 1 would lose x = 3 at t = 2 and count [2, 3, 4, 5]
    rows = (((1,), "<=", Fraction(3, 2)), ((-1,), "<=", 0))
    # a bool is an int to int(), so True would pass for 1; int() refuses an
    # infinite float with OverflowError and NaN with its own ValueError
    for bad in (Fraction(3, 2), 2.7, float("inf"), float("-inf"), float("nan"), True, False):
        with pytest.raises(ValueError, match="bbox bounds must be integers"):
            HPolytope(1, rows, ((0, bad),))
    segment = HPolytope(1, rows, ((0, 2),))
    assert [count_lattice(segment, t) for t in range(1, 5)] == [2, 4, 5, 7]
    assert HPolytope(1, rows, ((Fraction(0), 2.0),)).bbox == ((0, 2),)


def test_interior():
    inner = SQUARE.interior()
    assert all(rel == "<" for _a, rel, _b in inner.rows)
    assert inner.bbox == SQUARE.bbox
    pinned = single_point((0,)).interior()
    assert all(rel == "=" for _a, rel, _b in pinned.rows)


def test_count_lattice_square():
    for t in range(1, 7):
        assert count_lattice(SQUARE, t) == (t + 1) ** 2
        assert count_lattice(SQUARE.interior(), t) == (t - 1) ** 2


def test_count_lattice_segment():
    assert [count_lattice(SEGMENT_HALF, t) for t in range(1, 5)] == [1, 2, 2, 3]


def test_count_lattice_point():
    half = single_point((Fraction(1, 2),))
    assert [count_lattice(half, t) for t in range(1, 5)] == [0, 1, 0, 1]
    origin = single_point((0, 0))
    assert all(count_lattice(origin, t) == 1 for t in range(1, 4))
    with pytest.raises(ValueError):
        count_lattice(SQUARE, 0)
    with pytest.raises(ValueError):
        count_lattice(HPolytope(1, (((1,), "<=", 1),), None), 1)


def random_hpolytope(rng, d=None):
    """Up to 5 rows over d <= 3 (or the given d), each `<=`, `<` or `=`, with
    zero, single-coordinate, multi-coordinate or all-but-last-coordinate
    Fraction coefficients of both signs; each bound passes near an integer
    point of the box, so `=` rows are not always empty.  Boxes in d = 4 have
    sides of at most 2, so the oracle scan stays small."""
    d = rng.randint(1, 3) if d is None else d
    side = 2 if d < 4 else 1
    bbox = tuple(sorted((rng.randint(-side, side), rng.randint(-side, side)))
                 for _ in range(d))
    point = [rng.randint(lo, hi) for lo, hi in bbox]
    rows = []
    for _ in range(rng.randint(1, 5)):
        support = rng.choice([[], [rng.randrange(d)], [rng.randrange(d)], range(d), range(d),
                              range(d - 1)])
        a = [Fraction(0)] * d
        for i in support:
            a[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        shift = Fraction(rng.randint(-1, 3), rng.randint(1, 2)) if rng.random() < 0.7 else 0
        b = sum(c * x for c, x in zip(a, point)) + shift
        rows.append((tuple(a), rng.choice(ehrhart.RELATIONS), b))
    return HPolytope(d, tuple(rows), bbox)


def last_coordinate_cases(poly):
    """Which kinds of row the interval scan reads `x_d` from: rows in two
    coordinates or more (single-coordinate rows fold into the box), keyed by
    the sign of the integer coefficient of `x_d`, by `=`, and by a strict row
    whose `x_d` coefficient is not +-1 (so its floor division rounds)."""
    cases = set()
    for a, rel, _b in poly.rows:
        if sum(1 for c in a if c) < 2:
            continue
        c = a[-1]
        cases.add("zero" if c == 0 else "positive" if c > 0 else "negative")
        if rel == "=" and c:
            cases.add("equality")
        if rel == "<" and abs(c) > 1:
            cases.add("strict, |c| > 1")
    return cases


def random_sparse_hpolytope(rng, d):
    """Up to 4 `<=` or `<` rows, each on a random set of at least two of the
    coordinates, drawn among the first d - 1 for about half of the polytopes
    (so the last coordinates are free), through an integer point of a box
    with sides of at most 2 (1 in d = 4, so the oracle scan stays small)."""
    side = 2 if d < 4 else 1
    bbox = tuple((lo, lo + rng.randint(0, side)) for lo in (rng.randint(-1, 1) for _ in range(d)))
    point = [rng.randint(lo, hi) for lo, hi in bbox]
    coords = range(d - 1) if d > 2 and rng.random() < 0.5 else range(d)
    rows = []
    for _ in range(rng.randint(1, 4)):
        a = [Fraction(0)] * d
        for i in rng.sample(coords, rng.randint(2, len(coords))):
            a[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        b = sum(c * x for c, x in zip(a, point)) + Fraction(rng.randint(-1, 2), rng.randint(1, 2))
        rows.append((tuple(a), rng.choice(("<=", "<")), b))
    return HPolytope(d, tuple(rows), bbox)


def random_folded_hpolytope(rng, d):
    """A `random_hpolytope` with 2 or 3 more rows bounding one coordinate
    from above and as many from below, all in that coordinate alone, with
    coefficients of 1 to 3 in size, each `<=`, `<` or `=`."""
    P = random_hpolytope(rng, d)
    i = rng.randrange(d)
    lo, hi = P.bbox[i]
    rows = list(P.rows)
    for sign in (1, -1) * rng.randint(2, 3):
        c = sign * rng.randint(1, 3)
        b = Fraction(c * rng.randint(lo, hi) + rng.randint(-1, 2), rng.randint(1, 2))
        rel = rng.choice(("<=", "<=", "<", "="))
        rows.append((tuple(c if j == i else 0 for j in range(d)), rel, b))
    return HPolytope(d, tuple(rows), P.bbox)


def several_folds(poly):
    """Whether some coordinate has at least two rows in it alone bounding it
    from above and two from below (an `=` row bounds it both ways), among
    them a coefficient of size above 1, a `<` row and an `=` row."""
    for i in range(poly.d):
        folds = [(a[i], rel) for a, rel, _b in poly.rows
                 if a[i] and not any(c for j, c in enumerate(a) if j != i)]
        upper = sum(c > 0 or rel == "=" for c, rel in folds)
        lower = sum(c < 0 or rel == "=" for c, rel in folds)
        rels = {rel for _c, rel in folds}
        if (upper >= 2 and lower >= 2 and any(abs(c) > 1 for c, _rel in folds)
                and {"<", "="} <= rels):
            return True
    return False


def scan_cases(poly, t):
    """Which shortcuts of the coordinate scan the t-dilate offers, read off
    its folded ranges and rows: no row left after folding (a count is one
    product), free trailing coordinates (after the last one any row
    involves), and an inner prefix `(x_1..x_j)`, j < d - 1, of the ranges
    that some row rules out for every completion in the ranges."""
    ranges, rows = ehrhart._scan_frame(poly, t)[:2]
    if ranges is None:
        return set()
    if not rows:
        return {"no row left"}
    cases = set()
    if all(a[-1] == 0 for a, _bound in rows):
        cases.add("free trailing")
    for j in range(1, poly.d):
        for a, bound in rows:
            least = sum(min(c * lo, c * hi) for c, (lo, hi) in zip(a[j:], ranges[j:]))
            for prefix in itertools.product(*[range(lo, hi + 1) for lo, hi in ranges[:j]]):
                if sum(c * x for c, x in zip(a, prefix)) + least > bound:
                    cases.add("inner prefix pruned")
                    return cases
    return cases


def empty_run_reached(ranges, rows):
    """Whether the scan of a frame in two or more coordinates reaches a
    prefix `(x_1..x_{d-1})` over which the run of x_d is empty.  The scan
    reaches a prefix when, at each x_j with a_j != 0, a row leaves room for
    the least the later coordinates can add over their ranges."""
    def least(a, j):
        return sum(min(c * lo, c * hi) for c, (lo, hi) in zip(a[j:], ranges[j:]))

    def dot(a, x):
        return sum(c * xi for c, xi in zip(a, x))

    lo_d, hi_d = ranges[-1]
    for prefix in itertools.product(*[range(lo, hi + 1) for lo, hi in ranges[:-1]]):
        reached = all(dot(a[:j + 1], prefix) + least(a, j + 1) <= bound
                      for a, bound in rows for j in range(len(prefix)) if a[j])
        if reached and not any(all(dot(a, prefix + (y,)) <= bound for a, bound in rows)
                               for y in range(lo_d, hi_d + 1)):
            return True
    return False


def scanned_points(poly, t):
    """The scan's count of the t-dilate, and its points expanded from the
    runs the scan hands its callback."""
    ranges, rows = ehrhart._scan_frame(poly, t)[:2]
    points = []
    if ranges is None:
        return 0, points

    def expand(point, lo, hi):
        for x in range(lo, hi + 1):
            point[-1] = x
            points.append(tuple(point))

    return ehrhart._scan(ranges, rows, expand), points


def test_count_lattice_against_brute_force():
    rng = random.Random(53)
    polys = [(random_rational_box(rng) if rng.random() < 0.5
              else random_rational_simplex(rng))[0] for _ in range(12)]
    polys += [random_hpolytope(rng) for _ in range(60)]
    polys += [random_hpolytope(rng, 4) for _ in range(12)]
    sparse = [random_sparse_hpolytope(rng, rng.randint(2, 4)) for _ in range(30)]
    cases, dims, shortcuts, branches = set(), set(), set(), set()
    for poly in polys + sparse:
        dims.add(poly.d)
        for P in (poly, poly.interior()):
            cases |= last_coordinate_cases(P)
            for t in range(1, 5):
                points = list(brute_lattice_points(P, t))
                assert count_lattice(P, t) == len(points)
                assert scanned_points(P, t) == (len(points), points)
                if not points:
                    cases.add("empty")
                shortcuts |= scan_cases(P, t)
                ranges, rows = ehrhart._scan_frame(P, t)[:2]
                if ranges is not None:
                    branches.add("one coordinate" if len(ranges) == 1 else "inline last coordinate")
                    if "empty run" not in branches and len(ranges) > 1 \
                            and empty_run_reached(ranges, rows):
                        branches.add("empty run")
    # the draws reach every branch of the interval scan, every shortcut of
    # the coordinate scan, and both ways `_scan` reads a run: a scan of one
    # coordinate, and the inline loop over the second-to-last coordinate,
    # empty runs included
    assert dims == {1, 2, 3, 4}
    assert cases == {"zero", "positive", "negative", "equality", "strict, |c| > 1", "empty"}
    assert shortcuts == {"no row left", "free trailing", "inner prefix pruned"}
    assert branches == {"one coordinate", "inline last coordinate", "empty run"}


def test_dilate_frame_matches_per_t_reference():
    # the frame, compiled once per polytope and scaled per t, gives the
    # ranges and rows of the per-t row analysis of the oracle; an interior
    # shares its parent's integer coefficients
    rng = random.Random(29)
    polys = [random_hpolytope(rng) for _ in range(60)]
    polys += [random_hpolytope(rng, 4) for _ in range(12)]
    polys += [random_sparse_hpolytope(rng, rng.randint(2, 4)) for _ in range(30)]
    polys += [random_folded_hpolytope(rng, rng.randint(1, 3)) for _ in range(30)]
    cases = set()
    for poly in polys:
        for P in (poly, poly.interior()):
            assert P.rows == HPolytope(P.d, P.rows, P.bbox).rows
            if several_folds(P):
                cases.add("several folds")
            for a, rel, b in P.rows:
                if rel == "=":
                    cases.add("equality")
                if not any(a):
                    cases.add("zero row")
                    if b < 0 or b == 0 and rel == "<" or b != 0 and rel == "=":
                        cases.add("zero row empties")
            for t in range(1, 7):
                expected = dilate_frame(P, t)
                assert ehrhart._scan_frame(P, t)[:2] == expected
                if expected[0] is None:
                    cases.add("empty")
    assert cases == {"equality", "zero row", "zero row empties", "empty", "several folds"}


def test_polytope_compiled_once(monkeypatch):
    # a row with a Fraction entry is rescaled once, when its polytope is
    # built; integer rows, the interior's and those of every dilate, fitted
    # or checked, are never rescaled.  The 4-simplex is written in integers,
    # and the same simplex written at scale 1/2 rescales each of its 5 rows
    calls = []
    real = ehrhart.to_integers
    monkeypatch.setattr(ehrhart, "to_integers", lambda values: calls.append(values) or real(values))
    simplex = standard_simplex(4)
    assert all_pass(em_reciprocity_check(simplex, 4, 1, 20)[1])
    assert calls == []
    halved = HPolytope(4, [(tuple(Fraction(c, 2) for c in a), rel, Fraction(b, 2))
                           for a, rel, b in simplex.rows], simplex.bbox)
    assert halved == simplex
    assert all_pass(em_reciprocity_check(halved, 4, 1, 20)[1])
    assert len(calls) == len(simplex.rows) == 5


def test_simplex_4_closed_forms():
    # the closed 4-simplex has binom(t + 4, 4) points in its t-dilate and its
    # interior binom(t - 1, 4)
    simplex = standard_simplex(4)
    open_simplex = simplex.interior()
    for t in range(1, 41):
        assert count_lattice(simplex, t) == comb(t + 4, 4)
        assert count_lattice(open_simplex, t) == comb(t - 1, 4)


def test_ehrhart_quasipoly():
    sq = ehrhart_quasipoly(SQUARE, 2, 1)
    assert sq.constituents[0].coefficients == (1, 2, 1)
    seg = ehrhart_quasipoly(SEGMENT_HALF, 1, 2)
    assert seg.to_json() == {"period": 2, "constituents": [["1", "1/2"], ["1/2", "1/2"]]}
    origin = ehrhart_quasipoly(single_point((0, 0)), 0, 1)
    assert origin.constituents[0].coefficients == (1,)


def test_quasipoly_wrong_declaration():
    with pytest.raises(InterpolationMismatchError):
        ehrhart_quasipoly(SQUARE, 1, 1)        # degree too small
    for degree in (3, 4):                      # degree too large
        with pytest.raises(InterpolationMismatchError, match=f"declared degree {degree} "):
            ehrhart_quasipoly(SQUARE, degree, 1)
    with pytest.raises(InterpolationMismatchError):
        ehrhart_quasipoly(SEGMENT_HALF, 1, 1)  # true period is 2


def test_em_reciprocity():
    assert all_pass(em_reciprocity_check(SQUARE, 2, 1, 6)[1])
    simplex = standard_simplex(2)
    fit, report = em_reciprocity_check(simplex, 2, 1, 3)
    assert all_pass(report)
    assert fit == ehrhart_quasipoly(simplex, 2, 1)
    assert report.entries[-1].lhs == 1  # 3-dilate of the open simplex
    assert all_pass(em_reciprocity_check(single_point((0, 0)), 0, 1, 4)[1])
    # no point at any t: the fit is 0 at any declared degree
    empty = with_rows(SQUARE, [((1, 0), "<=", -1)])
    fit, report = em_reciprocity_check(empty, 2, 1, 3)
    assert all_pass(report) and fit.to_json() == {"period": 1, "constituents": [["0"]]}


def test_em_reciprocity_scaled_simplex():
    poly = standard_simplex(2, Fraction(3, 2))
    assert [count_lattice(poly, t) for t in range(1, 7)] == [3, 10, 15, 28, 36, 55]
    assert all_pass(em_reciprocity_check(poly, 2, 2, 5)[1])


def test_em_random_instances():
    rng = random.Random(59)
    for _ in range(8):
        poly, degree, period = (random_rational_box(rng) if rng.random() < 0.5
                                else random_rational_simplex(rng))
        assert all_pass(em_reciprocity_check(poly, degree, period, 4)[1])


def test_em_needs_irredundant_rows():
    # -x <= 0, -y <= 0 and x + y <= 0 pin x = y = 0 with no pair of opposite
    # rows; flipping all three strict empties the segment, so the reciprocity
    # check reports failures (documented caller contract)
    pinched = HPolytope(
        3,
        (((-1, 0, 0), "<=", 0), ((0, -1, 0), "<=", 0), ((1, 1, 0), "<=", 0),
         ((0, 0, -1), "<=", 0), ((0, 0, 1), "<=", 1)),
        ((0, 0), (0, 0), (0, 1)))
    _, report = em_reciprocity_check(pinched, 1, 1, 3)
    assert report.failures > 0


def test_em_accepts_redundant_and_repeated_rows():
    # a valid row tight at a relative-interior point is constant on P, so
    # only implicit equalities need care: rows that cut nothing, repeat a
    # row or touch P only at a vertex leave both counts unchanged
    square = with_rows(SQUARE, [((1, 1), "<=", 2), ((2, 0), "<=", 2), ((1, 0), "<=", 5),
                                ((-1, -1), "<=", 0)])
    assert all_pass(em_reciprocity_check(square, 2, 1, 4)[1])
    assert all_pass(pruned_reciprocity_check(square, normal_fan_of(perm_gp(2)), 2, 1, 4)[1])
    simplex = with_rows(standard_simplex(3), [((1, 1, 0), "<=", 1), ((3, 3, 3), "<=", 3)])
    assert all_pass(em_reciprocity_check(simplex, 3, 1, 4)[1])
    # x = y written as an opposite pair plus a scaled copy of one of them
    diagonal = HPolytope(
        2,
        (((1, -1), "<=", 0), ((-1, 1), "<=", 0), ((2, -2), "<=", 0), ((-1, 0), "<=", 0),
         ((1, 0), "<=", 1)),
        ((0, 1), (0, 1)))
    assert all_pass(em_reciprocity_check(diagonal, 1, 1, 4)[1])


def test_interior_keeps_opposite_rows():
    # x <= 0 and -2x <= 0 describe a segment; its interior keeps x = 0
    segment = HPolytope(
        2,
        (((1, 0), "<=", 0), ((-2, 0), "<=", 0), ((0, -1), "<=", 0), ((0, 1), "<=", 1)),
        ((0, 0), (0, 1)))
    open_rels = [rel for _a, rel, _b in segment.interior().rows]
    assert open_rels == ["=", "=", "<", "<"]
    assert [count_lattice(segment.interior(), t) for t in range(1, 6)] == [0, 1, 2, 3, 4]
    _, report = em_reciprocity_check(segment, 1, 1, 5)
    assert all_pass(report)
    # parallel rows that are not opposite (a slab) turn strict; a zero row
    # bounds nothing and stays as written
    slab = HPolytope(1, (((1,), "<=", 1), ((-1,), "<=", 0), ((0,), "<=", 1)), ((0, 1),))
    assert [rel for _a, rel, _b in slab.interior().rows] == ["<", "<", "<="]


def positive_ratio(stored, written):
    """The r > 0 with stored == r * written, entry by entry, or None."""
    pivot = next((k for k, w in enumerate(written) if w), None)
    if pivot is None:
        return 1 if not any(stored) else None
    r = Fraction(stored[pivot]) / written[pivot]
    return r if r > 0 and all(c == r * w for c, w in zip(stored, written)) else None


def test_rows_are_primitive_integer_rows():
    # every row of a seeded polytope, written again at a random positive
    # rational scale in Fractions, is stored as a positive multiple of
    # itself with coprime integer entries, its relation and its place
    rng = random.Random(31)
    polys = [random_hpolytope(rng) for _ in range(40)]
    polys += [random_sparse_hpolytope(rng, rng.randint(2, 4)) for _ in range(20)]
    cases = set()
    for P in polys:
        written = []
        for a, rel, b in P.rows:
            s = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            written.append((tuple(s * c for c in a), rel, s * b))
        Q = HPolytope(P.d, tuple(written), P.bbox)
        assert len(Q.rows) == len(written)
        for (a, rel, b), (wa, wrel, wb) in zip(Q.rows, written):
            assert rel == wrel
            assert all(type(c) is int for c in (*a, b))
            assert positive_ratio((*a, b), (*wa, wb)) is not None
            assert gcd(*a, b) == (1 if any(a) or b else 0)
            cases.add("zero" if not any(a) else rel)
        assert Q == P
        assert HPolytope(Q.d, Q.rows, Q.bbox) == Q
    assert cases == {"zero", "<=", "<", "="}
    # an opposite pair written at two fractional scales is one primitive row
    # and its negation, so the interior keeps both as equalities
    pair = HPolytope(1, (((Fraction(1, 2),), "<=", 1), ((-1,), "<=", -2)), ((0, 3),))
    assert pair.rows == (((1,), "<=", 2), ((-1,), "<=", -2))
    assert [rel for _a, rel, _b in pair.interior().rows] == ["=", "="]
    plane = HPolytope(2, (((Fraction(1, 2), Fraction(1, 3)), "<=", 1),
                          ((-3, -2), "<=", -6), ((-1, 0), "<=", 0)), ((0, 2), (0, 3)))
    assert [rel for _a, rel, _b in plane.interior().rows] == ["=", "=", "<"]


def test_float_rows_rejected():
    # 0.1 would be its binary fraction 3602879701896397/36028797018963968 and
    # count [3, 6, 9, 12]; the rational row x/10 <= 3/10 counts [4, 7, 10, 13]
    for row in (((0.1,), "<=", 0.3), ((Fraction(1, 10),), "<=", 0.3),
                ((float("inf"),), "<=", 1)):
        with pytest.raises(ValueError, match="non-integral float"):
            HPolytope(1, (row, ((-1,), "<=", 0)), ((0, 5),))
    exact = HPolytope(1, (((Fraction(1, 10),), "<=", Fraction(3, 10)), ((-1,), "<=", 0)),
                      ((0, 5),))
    assert [count_lattice(exact, t) for t in range(1, 5)] == [4, 7, 10, 13]
    # an integral float is its integer
    whole = HPolytope(1, (((2.0,), "<=", 6.0), ((-1.0,), "<=", 0)), ((0, 5),))
    assert whole.rows == (((1,), "<=", 3), ((-1,), "<=", 0))
    with pytest.raises(ValueError, match="non-integral float"):
        box([(0, 0.5)])
    with pytest.raises(ValueError, match="non-integral float"):
        standard_simplex(2, 1.5)


def test_str_and_bool_entries_refused():
    # box([("0.5", "1e1")]) would read Fraction's wider grammar as the rows
    # -2x <= -1 and x <= 10, and a bool would be 0 or 1
    for row in ((("1/2",), "<=", 1), ((1,), "<=", "0.5"), ((True,), "<=", 1), ((1,), "<=", False)):
        with pytest.raises(ValueError, match="not an exact rational"):
            HPolytope(1, (row, ((-1,), "<=", 0)), ((0, 5),))
    for bounds in ([("0.5", "1e1")], [(0, "1")], [(False, 1)], [(0, True)]):
        with pytest.raises(ValueError, match="not an exact rational"):
            box(bounds)
    for scale in ("3/2", "1", True):
        with pytest.raises(ValueError, match="not an exact rational"):
            standard_simplex(2, scale)
    # an int, a Fraction and an integral float are still taken
    assert box([(0, 1.0)]) == box([(Fraction(0), 1)]) == unit_cube(1)
    assert standard_simplex(2, 2.0) == standard_simplex(2, Fraction(4, 2))


def test_fan_rows_stay_integers(monkeypatch):
    # the normal fan writes primitive integer rows straight into its cones:
    # it builds no polytope, no cone rescales its rows, and neither does the
    # fan's sweep index
    calls = []
    real = ehrhart.to_integers
    monkeypatch.setattr(ehrhart, "to_integers", lambda values: calls.append(values) or real(values))

    def no_polytope(*args):
        raise AssertionError("the normal fan built an HPolytope")

    monkeypatch.setattr(ehrhart.HPolytope, "__init__", no_polytope)
    P = perm_gp(4)
    fan = normal_fan_of(P)
    assert fan == chain_walk_normal_fan(P)
    rows, cones = fan.run_rows
    assert calls == []
    assert all(type(a) is tuple and len(a) == 4 and all(type(c) is int for c in a)
               for cone in fan.cones for a in cone.rows)
    assert len(cones) == 24 and len(rows) == 12


def test_normal_fan_structure():
    fan2 = normal_fan_of(perm_gp(2))
    assert len(fan2.cones) == 2
    assert all(len(c.rows) == 1 for c in fan2.cones)
    point = GPerm(standard_perm_setfn(1))
    assert len(normal_fan_of(point).cones) == 1
    assert normal_fan_of(point).cones[0].rows == ()
    # one root row per edge at the vertex: the hexagon has 2 edges at each
    # vertex, the 3-dimensional pi_4 has 3
    fan3 = normal_fan_of(perm_gp(3))
    assert len(fan3.cones) == 6
    assert all(len(c.rows) == 2 for c in fan3.cones)
    fan4 = normal_fan_of(perm_gp(4))
    assert len(fan4.cones) == 24
    assert all(len(c.rows) == 3 for c in fan4.cones)


def test_normal_fan_needs_no_face_map():
    # the root rows are read off the tight sets, with no face map and no
    # face-map budget, so d = 7 is in reach
    P = perm_gp(7)
    fan = normal_fan_of(P)
    assert len(fan.cones) == 5040
    assert all(len(c.rows) == 6 for c in fan.cones)
    assert "_face_map" not in P.__dict__ and "tight" in P.__dict__


def seeded_setfns(seed, count, max_d):
    rng = random.Random(seed)
    return [random_hypergraphic_setfn(rng, max_d=max_d) for _ in range(count)]


def cone_membership(fan, y):
    """Per cone, whether its integer rows hold at y, and hold strictly
    (every nonzero row negative)."""
    out = []
    for cone in fan.cones:
        top = max((sum(c * x for c, x in zip(a, y)) for a in cone.rows if any(a)),
                  default=-1)
        out.append((top <= 0, top < 0))
    return out


def test_normal_fan_matches_all_vertex_fan():
    # same closed cones and same interiors as the cones cut out by every
    # other vertex, cone by cone in vertex order, on [-2, 2]^d; the rational
    # z have scaled values that differ from their values
    setfns = [standard_perm_setfn(d) for d in range(1, 5)]
    setfns += seeded_setfns(83, 100, 4)
    rng = random.Random(97)
    setfns += [non_integer_setfn(rng, max_d=4) for _ in range(12)]
    assert any(z.scaled[0] > 1 for z in setfns)
    for z in setfns:
        P = GPerm(z)
        fan, brute = normal_fan_of(P), brute_normal_fan(P)
        assert len(fan.cones) == len(brute.cones) == len(P.vertices)
        for y in itertools.product(range(-2, 3), repeat=P.d):
            assert cone_membership(fan, y) == cone_membership(brute, y)


def test_normal_fan_matches_chain_walk_oracle():
    # the edge rule read off the tight sets against the d! chain walk, cone
    # for cone and row for row, on pi_1..pi_7, rational z and seeded z
    rng = random.Random(101)
    setfns = [standard_perm_setfn(d) for d in range(1, 8)]
    setfns += [non_integer_setfn(rng, max_d=6) for _ in range(20)]
    setfns += seeded_setfns(103, 200, 7)
    assert any(z.scaled[0] > 1 for z in setfns)
    for z in setfns:
        P = GPerm(z)
        assert normal_fan_of(P) == chain_walk_normal_fan(P)


def test_normal_fan_rows_are_edges():
    # the rows of the cone at v are the directions u - v to the other end
    # of each edge of the face map at v, scaled to e_b - e_a
    setfns = [standard_perm_setfn(d) for d in range(1, 6)]
    setfns += seeded_setfns(89, 12, 5)
    for z in setfns:
        P = GPerm(z)
        fan = normal_fan_of(P)
        edges = [f.vertex_ids for f in P.face_lattice() if f.dim == 1]
        for vid, cone in enumerate(fan.cones):
            expected = set()
            for ids in edges:
                if vid in ids:
                    other = ids[1] if ids[0] == vid else ids[0]
                    step = [u - v for u, v in zip(P.vertices[other], P.vertices[vid])]
                    root = tuple((c > 0) - (c < 0) for c in step)
                    assert sorted(root) == [-1] + [0] * (P.d - 2) + [1]
                    expected.add(root)
            assert set(cone.rows) == expected
            assert len(cone.rows) == len(expected)


def test_multiplicity():
    fan = normal_fan_of(perm_gp(3))
    assert multiplicity(fan, (1, 1, 1)) == 6
    assert multiplicity(fan, (3, 2, 1)) == 1
    assert multiplicity(fan, (2, 2, 1)) == 2
    with pytest.raises(ValueError):
        multiplicity(fan, (1, 1))
    for point in ((Fraction(1, 2), Fraction(1, 2), 0), (1, 1, 1.0), (1, 1, Fraction(1))):
        with pytest.raises(ValueError, match="integer point"):
            multiplicity(fan, point)


def test_multiplicity_diagonal_translation():
    rng = random.Random(61)
    fans = [normal_fan_of(perm_gp(3)),
            normal_fan_of(GPerm(random_hypergraphic_setfn(rng, max_d=3)))]
    for fan in fans:
        ones = (1,) * fan.d
        for _ in range(20):
            y = tuple(rng.randint(-3, 3) for _ in range(fan.d))
            for lam in (-3, 1, 7):
                shifted = tuple(c + lam for c in y)
                assert multiplicity(fan, shifted) == multiplicity(fan, y)
        assert multiplicity(fan, ones) == len(fan.cones)


def test_pruned_counts_diagonal():
    open_sq = SQUARE.interior()
    assert inner_pruned_count(open_sq, DIAGONAL_FAN, 2) == 0
    assert inner_pruned_count(open_sq, DIAGONAL_FAN, 3) == 2
    assert inner_pruned_count(SQUARE, DIAGONAL_FAN, 2) == 6
    assert cumulative_pruned_count(SQUARE, DIAGONAL_FAN, 1) == 6
    assert cumulative_pruned_count(SQUARE, DIAGONAL_FAN, 2) == 12
    assert cumulative_pruned_count(SQUARE, WHOLE_PLANE, 1) == 4


def test_incomplete_fan():
    half = FullDimFan(2, (Cone(((1, 0),)),))
    with pytest.raises(IncompleteFanError):
        inner_pruned_count(SQUARE, half, 1)
    with pytest.raises(IncompleteFanError):
        cumulative_pruned_count(SQUARE, half, 1)


def test_fan_rows_of_wrong_length_refused(monkeypatch):
    # a fan built in code whose rows are not of its length is refused before
    # any budget or sweep, instead of being swept with each row's last entry
    # read as the coefficient of x_d; a row still written as (a, rel, b) is
    # one such row
    monkeypatch.setattr(errors, "WORK_BUDGET", 0)
    short = FullDimFan(3, (Cone(((1, 0),)), Cone(((-1, 0),))))
    written = FullDimFan(2, (Cone((((1, 0), "<", 5),)), Cone((((-1, 0), "<=", 0),))))
    for poly, fan in ((unit_cube(3), short), (SQUARE, written)):
        for count in (inner_pruned_count, cumulative_pruned_count):
            with pytest.raises(ValueError, match="^cone row length mismatch$"):
                count(poly, fan, 2)
    with pytest.raises(ValueError, match="^cone row length mismatch$"):
        multiplicity(short, (0, 0, 1))


@pytest.mark.parametrize("fan, message", [
    (FullDimFan(2, (Cone(((0, 0, 0),)),)), "cone row length mismatch"),
    (FullDimFan(2, (Cone(((1, 0), (0, 0, 0))), Cone(((-1, 0),)))), "cone row length mismatch"),
    (FullDimFan(2, (Cone(([1, 0],)), Cone(([-1, 0],)))), "cone rows must be tuples of ints"),
    (FullDimFan(2, (Cone(((0, 0.0),)),)), "cone rows must be tuples of ints"),
    (FullDimFan(2, (Cone(((1, 0),)), Cone(((-1, False),)))), "cone rows must be tuples of ints"),
    (FullDimFan(2, (Cone(((1, 0),)), Cone(((Fraction(-1), 0),)))),
     "cone rows must be tuples of ints"),
], ids=["zero-row-length", "zero-row-beside-rows", "list-rows", "float-zero-row", "bool-entry",
        "fraction-entry"])
def test_fan_rows_are_int_tuples_of_the_fan_length(fan, message):
    # every row is checked, zero rows included, before it is indexed: a zero
    # row of the wrong length was left out and the fan swept, and a list row
    # failed with a TypeError when it was hashed
    for count in (inner_pruned_count, cumulative_pruned_count):
        with pytest.raises(ValueError, match=f"^{message}$"):
            count(unit_cube(2), fan, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        multiplicity(fan, (0, 1))


def test_overlapping_cones_rejected():
    assert multiplicity(OVERLAPPING, (1, 0)) == 2
    # the pruned counts visit points in lexicographic order, so the error
    # names the first offending point: (1, 1) is the only point of the open
    # 2-dilate, and (0, 0), (0, 1) lie on x1 = 0, strictly inside one cone
    with pytest.raises(IncompleteFanError,
                       match=re.escape("point (1, 1) lies strictly inside 2 cones")):
        inner_pruned_count(SQUARE.interior(), OVERLAPPING, 2)
    with pytest.raises(IncompleteFanError,
                       match=re.escape("point (1, 0) lies strictly inside 2 cones")):
        cumulative_pruned_count(SQUARE, OVERLAPPING, 1)


def test_pruned_counts_against_brute_multiplicity():
    rng = random.Random(71)
    for _ in range(6):
        fan = normal_fan_of(GPerm(random_hypergraphic_setfn(rng, max_d=3)))
        polys = [unit_cube(fan.d), unit_cube(fan.d).interior()]
        while len(polys) < 4:
            poly, _deg, _per = random_rational_box(rng)
            if poly.d == fan.d:
                polys += [poly, poly.interior()]
        for poly in polys:
            for t in range(1, 4):
                mults = [brute_multiplicity(fan, x) for x in brute_lattice_points(poly, t)]
                assert inner_pruned_count(poly, fan, t) == mults.count(1)
                assert cumulative_pruned_count(poly, fan, t) == sum(mults)


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))


@st.composite
def fans(draw):
    """The normal fan of a seeded hypergraphic set function with d <= 4, or
    up to 4 hand-made cones of up to 3 rows with small coefficients in
    d <= 3, which may leave points uncovered or overlap."""
    if draw(st.booleans()):
        z = random_hypergraphic_setfn(random.Random(draw(st.integers(0, 10 ** 6))), max_d=4)
        return normal_fan_of(GPerm(z))
    d = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-2, 2)] * d).map(lambda a: (a, "<=", 0))
    cone = st.lists(row, max_size=3).map(lambda rows: primitive_cone(d, rows))
    return FullDimFan(d, tuple(draw(st.lists(cone, min_size=1, max_size=4))))


@st.composite
def polytopes(draw, d):
    """A box in [-1, 1]^d or a standard simplex of scale up to 3/2 in d, with
    bounds of denominator up to 2, closed or its interior."""
    if draw(st.booleans()):
        bounds = []
        for _ in range(d):
            lo = draw(small_fractions.filter(lambda x: -1 <= x <= 1))
            hi = draw(small_fractions.filter(lambda x, lo=lo: lo <= x <= 1))
            bounds.append((lo, hi))
        poly = box(bounds)
    else:
        poly = standard_simplex(d, draw(small_fractions.filter(lambda x: 0 < x <= Fraction(3, 2))))
    return poly.interior() if draw(st.booleans()) else poly


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_against_point_oracles(data):
    # the sweep along each run gives the per-point multiplicities of the
    # Fraction oracle, and refuses a fan at the first point, in
    # lexicographic order, that the per-point check refuses
    fan = data.draw(fans())
    poly = data.draw(polytopes(fan.d))
    t = data.draw(st.integers(1, 3))
    points = list(brute_lattice_points(poly, t))
    message = brute_fan_check(fan, points)
    for count in (inner_pruned_count, cumulative_pruned_count):
        if message is None:
            mults = [brute_multiplicity(fan, x) for x in points]
            expected = mults.count(1) if count is inner_pruned_count else sum(mults)
            assert count(poly, fan, t) == expected
        else:
            with pytest.raises(IncompleteFanError, match=re.escape(message) + "$"):
                count(poly, fan, t)


def test_scan_budget(monkeypatch):
    # the first box point (1, 1, 1) lies in no cone, so reaching the scan
    # would raise IncompleteFanError instead
    no_origin = HPolytope(3, HUGE_SIMPLEX.rows, ((1, 10 ** 5),) * 3)
    half = FullDimFan(3, (Cone(((1, 0, 0),)),))
    with pytest.raises(BudgetExceededError):
        inner_pruned_count(no_origin, half, 1)
    with pytest.raises(BudgetExceededError):
        count_lattice(HUGE_SIMPLEX, 1)
    # single-coordinate rows fold into the ranges before the budget applies
    folded = with_rows(HUGE_SIMPLEX, [(a, "<=", 1) for a, _rel, _b in unit_cube(3).rows[1::2]])
    assert count_lattice(folded, 1) == 8
    # the budget bounds the prefixes (x1, x2) of the last coordinate: 16 at t = 3
    monkeypatch.setattr(errors, "WORK_BUDGET", 16)
    assert count_lattice(standard_simplex(3), 3) == 20
    monkeypatch.setattr(errors, "WORK_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="16 prefixes of the last coordinate"):
        count_lattice(standard_simplex(3), 3)
    # a box folds every row, so nothing is scanned and no budget applies
    assert count_lattice(unit_cube(3), 3) == 64


def test_scan_budget_counts_scanned_prefixes():
    # only x1 and x2 are scanned, over 2 prefixes of x2; x3 and x4 are free
    # and multiply, so the long trailing sides cost nothing
    poly = HPolytope(4, (((1, 1, 0, 0), "<=", 1),), ((0, 1), (0, 1), (0, 10 ** 7), (0, 10 ** 7)))
    assert count_lattice(poly, 1) == 3 * (10 ** 7 + 1) ** 2 == 300000060000003


def test_pruned_scan_budget_bounds_box_points(monkeypatch):
    # the pruned counts visit every point, and each run reads every distinct
    # fan row and every cone's row list, so their budget bounds the folded box
    # plus the runs times those reads even where the prefixes of the last
    # coordinate fit: the 3-dilated cube has 64 box points and 16 runs, and
    # pi_3's fan 6 distinct rows and 6 cones of 2 rows, 64 + 16 * 18 = 352
    fan = normal_fan_of(perm_gp(3))
    monkeypatch.setattr(errors, "WORK_BUDGET", 352)
    assert cumulative_pruned_count(unit_cube(3), fan, 3) == 120
    monkeypatch.setattr(errors, "WORK_BUDGET", 351)
    with pytest.raises(BudgetExceededError, match=re.escape(
            "352 steps (64 box points and 16 runs of 18 fan row reads) at t=3")):
        cumulative_pruned_count(unit_cube(3), fan, 3)
    # at the default budget: 1 and 2 prefixes, 10^12 + 1 and 2 (10^7 + 1) points
    monkeypatch.undo()
    long_segment = box([(0, 10 ** 12)])
    line = FullDimFan(1, (Cone(((1,),)), Cone(((-1,),))))
    assert count_lattice(long_segment, 1) == 10 ** 12 + 1
    with pytest.raises(BudgetExceededError, match=re.escape("1000000000001 box points")):
        inner_pruned_count(long_segment, line, 1)
    with pytest.raises(BudgetExceededError):
        cumulative_pruned_count(long_segment, line, 1)
    wide = box([(0, 1), (0, 10 ** 7)])
    assert count_lattice(wide, 1) == 2 * (10 ** 7 + 1)
    with pytest.raises(BudgetExceededError, match="box points"):
        inner_pruned_count(wide, WHOLE_PLANE, 1)


def test_pruned_dimensions_checked_before_sizing():
    # against the fan of pi_6 the 3-cube's sweep would be sized past the
    # work budget; the mismatch is refused first, also where the dilate is
    # empty and no sweep is sized at all
    fan = normal_fan_of(perm_gp(6))
    message = "^polytope and fan live in different dimensions$"
    with pytest.raises(ValueError, match=message):
        pruned_reciprocity_check(unit_cube(3), fan, 3, 1, 100)
    empty = HPolytope(3, (((0, 0, 0), "<=", -1),), ((0, 1),) * 3)
    for count in (inner_pruned_count, cumulative_pruned_count):
        for poly in (unit_cube(3), empty):
            with pytest.raises(ValueError, match=message):
                count(poly, fan, 1)


def test_reciprocity_checks_refuse_before_counting(monkeypatch):
    # each check holds its largest dilates to the budget before its first
    # count, so an over-budget t_max or fit node is refused with nothing counted
    counted = []
    real_count, real_mults = ehrhart.count_lattice, ehrhart._multiplicities
    monkeypatch.setattr(ehrhart, "count_lattice",
                        lambda poly, t: counted.append(t) or real_count(poly, t))
    monkeypatch.setattr(ehrhart, "_multiplicities",
                        lambda poly, fan, t: counted.append(t) or real_mults(poly, fan, t))
    # the open 2-simplex has 30 prefixes at t = 30, the closed one 5 at the
    # fit's last node t = 4
    simplex = standard_simplex(2)
    monkeypatch.setattr(errors, "WORK_BUDGET", 29)
    with pytest.raises(BudgetExceededError, match="30 prefixes of the last coordinate at t=30"):
        em_reciprocity_check(simplex, 2, 1, 30)
    assert counted == []
    # the fit's last node (2 + 2) * 3 = 12: 13 prefixes of the closed simplex
    monkeypatch.setattr(errors, "WORK_BUDGET", 12)
    with pytest.raises(BudgetExceededError, match="13 prefixes of the last coordinate at t=12"):
        em_reciprocity_check(simplex, 2, 3, 1)
    assert counted == []
    # the pruned check sweeps every point of the closed square at t = 20,
    # 441, and its 21 runs read the diagonal fan's 2 rows and 2 row lists
    monkeypatch.setattr(errors, "WORK_BUDGET", 524)
    with pytest.raises(BudgetExceededError, match=re.escape(
            "525 steps (441 box points and 21 runs of 4 fan row reads) at t=20")):
        pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 20)
    assert counted == []
    # at the budget every count runs
    monkeypatch.setattr(errors, "WORK_BUDGET", 30)
    assert all_pass(em_reciprocity_check(simplex, 2, 1, 30)[1])
    assert max(counted) == 30
    monkeypatch.setattr(errors, "WORK_BUDGET", 525)
    assert all_pass(pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 20)[1])


def test_region_decomposition():
    # inner = sum over open regions, cumulative = sum over closed regions
    cases = [
        (SQUARE, DIAGONAL_FAN),
        (unit_cube(3), normal_fan_of(perm_gp(3))),
    ]
    for poly, fan in cases:
        open_poly = poly.interior()
        for t in range(1, 4):
            open_total = sum(
                count_lattice(with_rows(
                    open_poly, [(a, "<", 0) for a in cone.rows]), t)
                for cone in fan.cones)
            assert inner_pruned_count(open_poly, fan, t) == open_total
            closed_total = sum(
                count_lattice(with_rows(poly, [(a, "<=", 0) for a in cone.rows]), t)
                for cone in fan.cones)
            assert cumulative_pruned_count(poly, fan, t) == closed_total


def test_pruned_reciprocity_square():
    fit, report = pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 5)
    assert all_pass(report)
    # closed forms: O(t) = (t-1)(t-2) on the open square, Ex(t) = (t+1)(t+2)
    inner = interpolate_quasipoly(
        lambda t: inner_pruned_count(SQUARE.interior(), DIAGONAL_FAN, t), 2, 1)
    assert inner.constituents[0].coefficients == (2, -3, 1)
    assert fit == inner
    assert [cumulative_pruned_count(SQUARE, DIAGONAL_FAN, t) for t in range(1, 6)] \
        == [(t + 1) * (t + 2) for t in range(1, 6)]


def test_pruned_reciprocity_cube_braid():
    # braid-fan regions of the cube are integral, so period 1 suffices
    for d in (2, 3, 4):
        fan = normal_fan_of(perm_gp(d))
        assert all_pass(pruned_reciprocity_check(unit_cube(d), fan, d, 1, 4)[1])


def test_pruned_single_cone_is_plain_ehrhart():
    for t in range(1, 5):
        assert inner_pruned_count(SQUARE, WHOLE_PLANE, t) == count_lattice(SQUARE, t)
        assert cumulative_pruned_count(SQUARE, WHOLE_PLANE, t) == count_lattice(SQUARE, t)
    assert all_pass(pruned_reciprocity_check(SQUARE, WHOLE_PLANE, 2, 1, 4)[1])


def test_direction_count_bridge():
    # vertex-direction counts equal inner pruned counts of the open cube
    rng = random.Random(67)
    cases = [perm_gp(2), perm_gp(3), GPerm(random_hypergraphic_setfn(rng, max_d=3))]
    for P in cases:
        fan = normal_fan_of(P)
        cube = unit_cube(P.d).interior()
        for m in range(1, 4):
            assert P.chi_count(0, m) == inner_pruned_count(cube, fan, m + 1)
    # the paper's link across three codes that share no algorithm (the run
    # sweep against the root-row fan, the tight-mask face DP and the
    # tie-table coloring DP; the fan is read off the tight masks too, so it
    # is pinned to the chain-walk oracle's): on a hypergraphic polytope, the
    # open cube's inner pruned count is the vertex-direction count and the
    # proper coloring count one color down, and the closed cube's cumulative
    # count is the weighted face count and the compatible pair count two
    # colors up
    rng = random.Random(4)
    draws = (random_hypergraph(rng, max_d=5) for _ in itertools.count())
    hypergraphs = list(itertools.islice((h for h in draws if h.d >= 4), 20))
    assert [h.d for h in hypergraphs].count(4) == 8
    for h in hypergraphs:
        P = GPerm(hypergraphic_setfn(h))
        fan = normal_fan_of(P)
        assert fan == chain_walk_normal_fan(P)
        closed = unit_cube(h.d)
        assert inner_pruned_count(closed.interior(), fan, 1) == 0
        for t in range(1, 5):
            if t > 1:
                assert inner_pruned_count(closed.interior(), fan, t) == \
                    P.chi_count(0, t - 1) == chromatic_count(h, t - 1)
            assert cumulative_pruned_count(closed, fan, t) == \
                P.reciprocity_rhs(0, t + 1) == compatible_pairs_count(h, t + 1)


def test_polytope_json_round_trip():
    doc = hpolytope_to_json(SQUARE)
    assert doc["d"] == 2
    assert doc["bbox"] == [[0, 1], [0, 1]]
    assert hpolytope_from_json(doc) == SQUARE
    # a cone document has no box, so it is no polytope document
    cone_doc = fan_to_json(DIAGONAL_FAN)["cones"][0]
    assert "bbox" not in cone_doc
    with pytest.raises(InputFormatError, match="^polytope document needs a 'bbox'$"):
        hpolytope_from_json(cone_doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"d": 2},
        {"d": 2, "rows": [{"a": ["1", "0"], "rel": ">=", "b": "0"}],
         "bbox": [[0, 1], [0, 1]]},
        {"d": 2, "rows": [{"a": ["1", "0"], "rel": "<=", "b": "0.5"}],
         "bbox": [[0, 1], [0, 1]]},
        {"d": 2, "rows": [{"a": [1.5, "0"], "rel": "<=", "b": "0"}],
         "bbox": [[0, 1], [0, 1]]},
        {"d": 2, "rows": [{"a": ["1", "0"], "rel": "<=", "b": True}],
         "bbox": [[0, 1], [0, 1]]},
        {"d": 2, "rows": [], "bbox": [[0, 1]]},
        {"d": 2, "rows": [], "bbox": [[0.5, 1], [0, 1]]},
        {"d": 2, "rows": []},  # bbox required by default
    ],
)
def test_polytope_json_rejects(doc):
    with pytest.raises(InputFormatError):
        hpolytope_from_json(doc)


def test_fan_json_round_trip():
    # pi_1's one cone has no rows: the document's d is the fan's
    fans = [normal_fan_of(perm_gp(1)), normal_fan_of(perm_gp(2)), DIAGONAL_FAN, WHOLE_PLANE]
    fans += [normal_fan_of(GPerm(z)) for z in seeded_setfns(107, 20, 4)]
    assert {fan.d for fan in fans} == {1, 2, 3, 4}
    for fan in fans:
        assert fan_from_json(fan_to_json(fan)) == fan


def test_fan_json_reads_primitive_integer_rows():
    # the golden four-cone fan is written with fractional and scaled rows
    doc = json.loads((Path(__file__).parent / "golden" / "fan_diag_q.json").read_text())
    fan = fan_from_json(doc)
    assert fan.d == 2
    assert [cone.rows for cone in fan.cones] == [
        ((1, -1), (-1, -1)),
        ((-1, 1), (-1, -1)),
        ((1, 1), (-1, 1)),
        ((1, 1), (1, -1)),
    ]
    assert all(type(a) is tuple and len(a) == 2 and all(type(c) is int for c in a)
               for cone in fan.cones for a in cone.rows)


def _cone_doc(d, *rows, **extra):
    return {"d": d, "rows": [{"a": a, "rel": rel, "b": b} for a, rel, b in rows], **extra}


FAN_REJECTS = [
    ({}, "fan document needs a 'cones' list"),
    ({"cones": []}, "a fan needs at least one cone"),
    ({"cones": [_cone_doc(2, (["1", "0"], "<=", "1"))]},
     "cone rows must be homogeneous non-strict inequalities"),
    ({"cones": [_cone_doc(2, (["1", "0"], "<", "0"))]},
     "cone rows must be homogeneous non-strict inequalities"),
    ({"cones": [_cone_doc(2, (["1", "0"], "<=", "0")), _cone_doc(3)]},
     "cones of mixed ambient dimension"),
    ({"cones": [_cone_doc(2, (["1"], "<=", "0"))]}, "row length mismatch"),
    ({"cones": [_cone_doc(2, (["1", "0"], ">=", "0"))]}, "unknown relation '>='"),
    ({"cones": [[]]}, "polytope document needs 'd' and 'rows'"),
    ({"cones": [_cone_doc(2, bbox=[[0, 1], [0, 1]])]}, "a cone document takes no 'bbox'"),
]


# one fault per document, each refused with its own message
@pytest.mark.parametrize("doc, message", FAN_REJECTS,
                         ids=[f"doc{i}" for i in range(len(FAN_REJECTS))])
def test_fan_json_rejects(doc, message):
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        fan_from_json(doc)
