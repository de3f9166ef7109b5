import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest

from gpcount import ehrhart
from gpcount.errors import (
    BudgetExceededError,
    IncompleteFanError,
    InputFormatError,
    InterpolationMismatchError,
)
from gpcount.ehrhart import (
    FullDimFan,
    HPolytope,
    _lattice_points,
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
    random_hypergraphic_setfn,
    random_rational_box,
    random_rational_simplex,
)
from gpcount.permutahedron import GPerm
from gpcount.polynomial import interpolate_quasipoly
from gpcount.setfn import standard_perm_setfn
from oracles import (
    brute_lattice_points,
    brute_multiplicity,
    fan_to_json,
    hpolytope_to_json,
    single_point,
    with_rows,
)

SQUARE = unit_cube(2)
SEGMENT_HALF = box([(0, Fraction(1, 2))])
DIAGONAL_FAN = FullDimFan((
    HPolytope(2, (((1, -1), "<=", 0),), None),
    HPolytope(2, (((-1, 1), "<=", 0),), None),
))
WHOLE_PLANE = FullDimFan((HPolytope(2, (), None),))
# a half-plane, the whole plane and the opposite half-plane: they cover the
# plane, but every point with x1 != 0 lies strictly inside two of them
OVERLAPPING = FullDimFan((
    HPolytope(2, (((1, 0), "<=", 0),), None),
    HPolytope(2, (), None),
    HPolytope(2, (((-1, 0), "<=", 0),), None),
))
# one diagonal row, so nothing folds: (10^5 + 1)^2 prefixes at t = 1
HUGE_SIMPLEX = HPolytope(3, (((1, 1, 1), "<=", 300000),), ((0, 10 ** 5),) * 3)


def perm_gp(d):
    return GPerm(standard_perm_setfn(d))


def test_constructors():
    assert SQUARE.bbox == ((0, 1), (0, 1))
    assert len(SQUARE.rows) == 4
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
    for a, rel, _b in poly.int_rows:
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


def scan_cases(poly, t):
    """Which shortcuts of the coordinate scan the t-dilate offers, read off
    its folded ranges and rows: no row left after folding (a count is one
    product), free trailing coordinates (after the last one any row
    involves), and an inner prefix `(x_1..x_j)`, j < d - 1, of the ranges
    that some row rules out for every completion in the ranges."""
    ranges, rows = ehrhart._dilate_frame(poly, t)
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


def test_count_lattice_against_brute_force():
    rng = random.Random(53)
    polys = [(random_rational_box(rng) if rng.random() < 0.5
              else random_rational_simplex(rng))[0] for _ in range(12)]
    polys += [random_hpolytope(rng) for _ in range(60)]
    polys += [random_hpolytope(rng, 4) for _ in range(12)]
    sparse = [random_sparse_hpolytope(rng, rng.randint(2, 4)) for _ in range(30)]
    cases, dims, shortcuts = set(), set(), set()
    for poly in polys + sparse:
        dims.add(poly.d)
        for P in (poly, poly.interior()):
            cases |= last_coordinate_cases(P)
            for t in range(1, 5):
                points = list(brute_lattice_points(P, t))
                assert count_lattice(P, t) == len(points)
                assert list(_lattice_points(P, t)) == points
                if not points:
                    cases.add("empty")
                shortcuts |= scan_cases(P, t)
    # the draws reach every branch of the interval scan and every shortcut
    # of the coordinate scan
    assert dims == {1, 2, 3, 4}
    assert cases == {"zero", "positive", "negative", "equality", "strict, |c| > 1", "empty"}
    assert shortcuts == {"no row left", "free trailing", "inner prefix pruned"}


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
    with pytest.raises(InterpolationMismatchError):
        ehrhart_quasipoly(SEGMENT_HALF, 1, 1)  # true period is 2


def test_em_reciprocity():
    assert em_reciprocity_check(SQUARE, 2, 1, 6)[1].all_pass
    simplex = standard_simplex(2)
    fit, report = em_reciprocity_check(simplex, 2, 1, 3)
    assert report.all_pass
    assert fit == ehrhart_quasipoly(simplex, 2, 1)
    assert report.entries[-1].lhs == 1  # 3-dilate of the open simplex
    assert em_reciprocity_check(single_point((0, 0)), 0, 1, 4)[1].all_pass


def test_em_reciprocity_scaled_simplex():
    poly = standard_simplex(2, Fraction(3, 2))
    assert [count_lattice(poly, t) for t in range(1, 7)] == [3, 10, 15, 28, 36, 55]
    assert em_reciprocity_check(poly, 2, 2, 5)[1].all_pass


def test_em_random_instances():
    rng = random.Random(59)
    for _ in range(8):
        poly, degree, period = (random_rational_box(rng) if rng.random() < 0.5
                                else random_rational_simplex(rng))
        assert em_reciprocity_check(poly, degree, period, 4)[1].all_pass


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
    assert report.all_pass
    # parallel rows that are not opposite (a slab) turn strict; a zero row
    # bounds nothing and stays as written
    slab = HPolytope(1, (((1,), "<=", 1), ((-1,), "<=", 0), ((0,), "<=", 1)), ((0, 1),))
    assert [rel for _a, rel, _b in slab.interior().rows] == ["<", "<", "<="]


def test_normal_fan_structure():
    fan2 = normal_fan_of(perm_gp(2))
    assert len(fan2.cones) == 2
    assert all(len(c.rows) == 1 for c in fan2.cones)
    point = GPerm(standard_perm_setfn(1))
    assert len(normal_fan_of(point).cones) == 1
    assert normal_fan_of(point).cones[0].rows == ()
    fan3 = normal_fan_of(perm_gp(3))
    assert len(fan3.cones) == 6
    assert all(len(c.rows) == 5 for c in fan3.cones)


def test_multiplicity():
    fan = normal_fan_of(perm_gp(3))
    assert multiplicity(fan, (1, 1, 1)) == 6
    assert multiplicity(fan, (3, 2, 1)) == 1
    assert multiplicity(fan, (2, 2, 1)) == 2
    with pytest.raises(ValueError):
        multiplicity(fan, (1, 1))


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
    half = FullDimFan((HPolytope(2, (((1, 0), "<=", 0),), None),))
    with pytest.raises(IncompleteFanError):
        inner_pruned_count(SQUARE, half, 1)
    with pytest.raises(IncompleteFanError):
        cumulative_pruned_count(SQUARE, half, 1)


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


def test_scan_budget(monkeypatch):
    # the first box point (1, 1, 1) lies in no cone, so reaching the scan
    # would raise IncompleteFanError instead
    no_origin = HPolytope(3, HUGE_SIMPLEX.rows, ((1, 10 ** 5),) * 3)
    half = FullDimFan((HPolytope(3, (((1, 0, 0), "<=", 0),), None),))
    with pytest.raises(BudgetExceededError):
        inner_pruned_count(no_origin, half, 1)
    with pytest.raises(BudgetExceededError):
        count_lattice(HUGE_SIMPLEX, 1)
    # single-coordinate rows fold into the ranges before the budget applies
    folded = with_rows(HUGE_SIMPLEX, [(a, "<=", 1) for a, _rel, _b in unit_cube(3).rows[1::2]])
    assert count_lattice(folded, 1) == 8
    # the budget bounds the prefixes (x1, x2) of the last coordinate: 16 at t = 3
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 16)
    assert count_lattice(unit_cube(3), 3) == 64
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="16 prefixes of the last coordinate"):
        count_lattice(unit_cube(3), 3)


def test_pruned_scan_budget_bounds_box_points(monkeypatch):
    # the pruned counts visit every point, so their budget bounds the folded
    # box even where the prefixes of the last coordinate fit: the 3-dilated
    # cube has 16 prefixes and 64 box points
    fan = normal_fan_of(perm_gp(3))
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 64)
    assert cumulative_pruned_count(unit_cube(3), fan, 3) == 120
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 63)
    with pytest.raises(BudgetExceededError, match="64 box points"):
        cumulative_pruned_count(unit_cube(3), fan, 3)
    # at the default budget: 1 and 2 prefixes, 10^12 + 1 and 2 (10^7 + 1) points
    monkeypatch.undo()
    long_segment = box([(0, 10 ** 12)])
    line = FullDimFan((HPolytope(1, (((1,), "<=", 0),), None),
                       HPolytope(1, (((-1,), "<=", 0),), None)))
    assert count_lattice(long_segment, 1) == 10 ** 12 + 1
    with pytest.raises(BudgetExceededError, match=re.escape("1000000000001 box points")):
        inner_pruned_count(long_segment, line, 1)
    with pytest.raises(BudgetExceededError):
        cumulative_pruned_count(long_segment, line, 1)
    wide = box([(0, 1), (0, 10 ** 7)])
    assert count_lattice(wide, 1) == 2 * (10 ** 7 + 1)
    with pytest.raises(BudgetExceededError, match="box points"):
        inner_pruned_count(wide, WHOLE_PLANE, 1)


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
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 29)
    with pytest.raises(BudgetExceededError, match="30 prefixes of the last coordinate at t=30"):
        em_reciprocity_check(simplex, 2, 1, 30)
    assert counted == []
    # the fit's last node (2 + 2) * 3 = 12: 13 prefixes of the closed square
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 12)
    with pytest.raises(BudgetExceededError, match="13 prefixes of the last coordinate at t=12"):
        em_reciprocity_check(SQUARE, 2, 3, 1)
    assert counted == []
    # the pruned check scans every point: 441 of the closed square at t = 20
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 440)
    with pytest.raises(BudgetExceededError, match="441 box points at t=20"):
        pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 20)
    assert counted == []
    # at the budget every count runs
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 30)
    assert em_reciprocity_check(simplex, 2, 1, 30)[1].all_pass
    assert max(counted) == 30
    monkeypatch.setattr(ehrhart, "SCAN_BUDGET", 441)
    assert pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 20)[1].all_pass


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
                    open_poly, [(a, "<", 0) for a, _rel, _b in cone.rows]), t)
                for cone in fan.cones)
            assert inner_pruned_count(open_poly, fan, t) == open_total
            closed_total = sum(
                count_lattice(with_rows(poly, cone.rows), t)
                for cone in fan.cones)
            assert cumulative_pruned_count(poly, fan, t) == closed_total


def test_pruned_reciprocity_square():
    fit, report = pruned_reciprocity_check(SQUARE, DIAGONAL_FAN, 2, 1, 5)
    assert report.all_pass
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
        assert pruned_reciprocity_check(unit_cube(d), fan, d, 1, 4)[1].all_pass


def test_pruned_single_cone_is_plain_ehrhart():
    for t in range(1, 5):
        assert inner_pruned_count(SQUARE, WHOLE_PLANE, t) == count_lattice(SQUARE, t)
        assert cumulative_pruned_count(SQUARE, WHOLE_PLANE, t) == count_lattice(SQUARE, t)
    assert pruned_reciprocity_check(SQUARE, WHOLE_PLANE, 2, 1, 4)[1].all_pass


def test_direction_count_bridge():
    # vertex-direction counts equal inner pruned counts of the open cube
    rng = random.Random(67)
    cases = [perm_gp(2), perm_gp(3), GPerm(random_hypergraphic_setfn(rng, max_d=3))]
    for P in cases:
        fan = normal_fan_of(P)
        cube = unit_cube(P.d).interior()
        for m in range(1, 4):
            assert P.chi_count(0, m) == inner_pruned_count(cube, fan, m + 1)


def test_polytope_json_round_trip():
    doc = hpolytope_to_json(SQUARE)
    assert doc["d"] == 2
    assert doc["bbox"] == [[0, 1], [0, 1]]
    assert hpolytope_from_json(doc) == SQUARE
    no_box = hpolytope_to_json(DIAGONAL_FAN.cones[0])
    assert "bbox" not in no_box
    assert hpolytope_from_json(no_box, require_bbox=False) == DIAGONAL_FAN.cones[0]


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
    fan = normal_fan_of(perm_gp(2))
    assert fan_from_json(fan_to_json(fan)) == fan
    assert fan_from_json(fan_to_json(DIAGONAL_FAN)) == DIAGONAL_FAN


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"cones": []},
        {"cones": [{"d": 2, "rows": [{"a": ["1", "0"], "rel": "<=", "b": "1"}]}]},
        {"cones": [{"d": 2, "rows": [{"a": ["1", "0"], "rel": "<", "b": "0"}]}]},
    ],
)
def test_fan_json_rejects(doc):
    with pytest.raises(InputFormatError):
        fan_from_json(doc)
