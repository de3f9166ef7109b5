"""Exact lattice-point counting in dilated rational polytopes and in their
intersections with complete fans.

A polytope is a halfspace description (rows may be non-strict, strict, or
equalities) together with a trusted integer bounding box at dilation 1; the
t-th dilate keeps every normal vector and scales the right-hand sides by t.
On integer points the t-th dilate is one integer system of `a . x <= b`
rows: a strict row lowers its bound by one and an equality becomes two
opposite rows.  A polytope stores each row as its primitive integer row,
and its interior has the same rows with other relations.  Each polytope is
compiled once, on its first count, into an integer dilation frame: its rows
with equalities split, sorted into zero rows, rows in a single coordinate
and the rest, together with the number of coordinates a count scans.  A
t-dilate only scales the box and the right-hand sides: a zero row with a
negative bound empties it, and a row in a single coordinate folds into that
coordinate's range.  The scan then fixes one coordinate at a time, in
order.  At coordinate j each row `a . x <= b` bounds `a_j x_j` by what the
fixed prefix leaves of b, less the least the later coordinates can add over
their ranges.  Every point of the dilate meets that bound, so no point is
lost, and a prefix whose range for x_j is empty is dropped there.  At the
last coordinate nothing is left to add, so the points over each prefix form
one integer interval, read off by floor division (Beck-Robins, *Computing the
Continuous Discretely*), inline in the loop over the second-to-last
coordinate.  The coordinates after the last one any row involves are free,
so a count multiplies their widths and scans only the coordinates before
them; a box with no row left after folding is one product.  One
recursive scan returns the count and can hand each run to a callback.  A
count that would scan more than `SCAN_BUDGET` prefixes of the last
coordinate it fixes, or that fixes more than `SCAN_DEPTH` coordinates (one
recursion level each), is refused before it starts, and a reciprocity check
is refused before its first count when its largest dilate would be, or when
it would make more than `LOOP_BUDGET` checks or fit more than `LOOP_BUDGET`
nodes.

A full-dimensional fan is a list of closed cones (homogeneous non-strict
rows), its distinct rows indexed once per fan, on first use.  The
multiplicity of a point is the number of closed cones containing it; the
inner pruned count takes the points of multiplicity exactly one and the
cumulative pruned count the sum of multiplicities.  Each cone meets a run of
the last coordinate in an interval, read off its rows by floor division as
for the run itself, so the scan hands each run to a sweep that adds the
cones' intervals into difference arrays and reads the multiplicity of every
point of the run off their running sums, with no cone test per point.  The
sweep still walks every point, so a folded box of more than `SCAN_BUDGET`
points is refused before it starts.  A counted point in no cone, or strictly
inside two cones, means the cones do not form a complete fan and is a hard
error, raised at the first such point in lexicographic order.  The normal
fan of a generalized permutahedron coarsens the braid fan, so each of its
cones is cut out by root rows `y_b - y_a <= 0`, one per edge at its vertex,
read off the greedy chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, prod
from typing import Sequence

from .errors import BudgetExceededError, IncompleteFanError, InputFormatError
from .permutahedron import GPerm
from .polynomial import QuasiPolynomial, interpolate_quasipoly
from .rational import exact, rat_from_json, to_integers
from .report import Report

RELATIONS = ("<=", "<", "=")
SCAN_BUDGET = 10 ** 7
LOOP_BUDGET = 10 ** 4  # checks one command makes; nodes (degree + 2) * period one fit counts
SCAN_DEPTH = 500  # the scan recurses once per coordinate; Python allows 1000

Row = tuple[tuple[int, ...], str, int]


@dataclass(frozen=True)
class HPolytope:
    """Rows `a . x rel b` with rational entries, each stored as its primitive
    integer row: `(*a, b)` scaled by the lcm of its denominators and divided
    by the gcd of its entries, with its relation, in its place."""
    d: int
    rows: tuple[Row, ...]
    bbox: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        rows = tuple((tuple(a), rel, b) for a, rel, b in self.rows)
        for a, rel, _b in rows:
            if len(a) != self.d:
                raise ValueError("row length mismatch")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if not all(type(c) is int for a, _rel, b in rows for c in (*a, b)) \
                or any(gcd(*a, b) > 1 for a, _rel, b in rows):
            primitive = []
            for a, rel, b in rows:
                *a, b = to_integers(map(exact, (*a, b)))[1]
                g = gcd(*a, b) or 1
                primitive.append((tuple(c // g for c in a), rel, b // g))
            rows = tuple(primitive)
        object.__setattr__(self, "rows", rows)
        if self.bbox is not None:
            try:
                box_ = tuple((int(lo), int(hi)) for lo, hi in self.bbox)
            except OverflowError:  # an infinite float
                raise ValueError("bbox bounds must be integers") from None
            if len(box_) != self.d:
                raise ValueError("bbox length mismatch")
            if any(int(v) != v for pair in self.bbox for v in pair):
                raise ValueError("bbox bounds must be integers")
            if any(lo > hi for lo, hi in box_):
                raise ValueError("bbox bounds out of order")
            object.__setattr__(self, "bbox", box_)

    @cached_property
    def frame(self) -> tuple[tuple, tuple, tuple, int]:
        """The rows compiled for dilation, `(zero, axis, rest,
        scanned)`.  On integer points the t-dilate of a row is
        `a . x <= t b - strict`, where `strict` is 1 for `<` and 0 otherwise,
        and an equality is two opposite such rows, the row first.  `zero`
        holds the zero rows as `(b, strict)`, `axis` the rows in a single
        coordinate i, coefficient c, as `(i, c, b, strict)`, and `rest` the
        others as `(a, b, strict)`, in row order.  A count scans the
        coordinates up to the last one a row of `rest` involves: `scanned`
        of them."""
        rows = []
        for a, rel, b in self.rows:
            rows.append((a, b, int(rel == "<")))
            if rel == "=":
                rows.append((tuple(-c for c in a), -b, 0))
        zero, axis, rest = [], [], []
        for a, b, strict in rows:
            nz = [i for i, c in enumerate(a) if c]
            if not nz:
                zero.append((b, strict))
            elif len(nz) == 1:
                axis.append((nz[0], a[nz[0]], b, strict))
            else:
                rest.append((a, b, strict))
        scanned = max((j + 1 for a, _b, _strict in rest for j, c in enumerate(a) if c), default=0)
        return tuple(zero), tuple(axis), tuple(rest), scanned

    def interior(self) -> "HPolytope":
        """Relative interior: the same rows, with a non-zero `<=` row made
        `=` when its negation is also a `<=` row (two opposite rows
        `a . x <= b` and `-c a . x <= -c b`, c > 0, are one primitive row
        and its negation) and `<` otherwise; equalities, strict rows and zero
        rows, which bound nothing, stay as written."""
        closed = {(a, b) for a, rel, b in self.rows if rel == "<=" and any(a)}
        rows = []
        for a, rel, b in self.rows:
            if rel == "<=" and any(a):
                rel = "=" if (tuple(-c for c in a), -b) in closed else "<"
            rows.append((a, rel, b))
        return HPolytope(self.d, tuple(rows), self.bbox)


def _unit_row(d: int, i: int, c: int) -> tuple[int, ...]:
    return tuple(c if j == i else 0 for j in range(d))


def unit_cube(d: int) -> HPolytope:
    rows = []
    for i in range(d):
        rows.append((_unit_row(d, i, -1), "<=", 0))
        rows.append((_unit_row(d, i, 1), "<=", 1))
    return HPolytope(d, tuple(rows), tuple((0, 1) for _ in range(d)))


def box(bounds: Sequence[tuple[Fraction, Fraction]]) -> HPolytope:
    d = len(bounds)
    rows = []
    bbox = []
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = exact(lo), exact(hi)
        if lo > hi:
            raise ValueError("box bounds out of order")
        rows.append((_unit_row(d, i, -lo.denominator), "<=", -lo.numerator))
        rows.append((_unit_row(d, i, hi.denominator), "<=", hi.numerator))
        bbox.append((floor(lo), ceil(hi)))
    return HPolytope(d, tuple(rows), tuple(bbox))


def standard_simplex(d: int, scale: Fraction = Fraction(1)) -> HPolytope:
    """x_i >= 0 and sum x_i <= scale."""
    scale = exact(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    rows = [(_unit_row(d, i, -1), "<=", 0) for i in range(d)]
    rows.append(((1,) * d, "<=", scale))
    return HPolytope(d, tuple(rows), tuple((0, ceil(scale)) for _ in range(d)))


def _dilate_frame(poly: HPolytope, t: int):
    """Axis ranges of the t-dilate, and its other rows as (coeffs, bound)
    meaning coeffs . x <= bound.  None signals an empty dilate.

    Scales the polytope's `frame`, each right-hand side to `t b - strict`:
    a zero row empties the dilate when its bound is negative, a row in a
    single coordinate folds into that coordinate's range by floor division,
    and the other rows are the scan's."""
    if t < 1:
        raise ValueError("dilation must be a positive integer")
    if poly.bbox is None:
        raise ValueError("counting requires a bounding box")
    zero, axis, rest, _scanned = poly.frame
    for b, strict in zero:
        if t * b < strict:
            return None, None
    ranges = [[lo * t, hi * t] for lo, hi in poly.bbox]
    for i, c, b, strict in axis:
        bound = t * b - strict
        if c > 0:
            ranges[i][1] = min(ranges[i][1], bound // c)
        else:
            ranges[i][0] = max(ranges[i][0], -(bound // -c))
    for lo, hi in ranges:
        if lo > hi:
            return None, None
    return [tuple(r) for r in ranges], [(a, t * b - strict) for a, b, strict in rest]


def _check_budget(ranges, what: str, t: int) -> None:
    """Refuse a scan over the product of `ranges` larger than `SCAN_BUDGET`."""
    size = prod(hi - lo + 1 for lo, hi in ranges)
    if size > SCAN_BUDGET:
        raise BudgetExceededError(
            f"scanning {size} {what} at t={t} exceeds the budget of {SCAN_BUDGET}")


def check_loop_budget(size: int, what: str) -> None:
    """Refuse a loop of more than `LOOP_BUDGET` checks or fit nodes."""
    if size > LOOP_BUDGET:
        raise BudgetExceededError(f"{size} {what} exceed the budget of {LOOP_BUDGET}")


def _scan_frame(poly: HPolytope, t: int, points: bool):
    """`_dilate_frame` of the t-dilate and the number of coordinates the scan
    fixes, refused before any scan when the scan exceeds `SCAN_BUDGET` or
    fixes more than `SCAN_DEPTH`.  A scan of every point (`points`) fixes
    every coordinate and is bounded by the folded box.  A count fixes the
    coordinates up to the last one any row involves, as the frame records,
    and is bounded by the prefixes of the last of those."""
    ranges, rows = _dilate_frame(poly, t)
    if ranges is None:
        return None, None, 0
    if points:
        _check_budget(ranges, "box points", t)
        scanned = len(ranges)
    else:
        scanned = poly.frame[3]
        _check_budget(ranges[:max(scanned - 1, 0)], "prefixes of the last coordinate", t)
    if scanned > SCAN_DEPTH:
        raise BudgetExceededError(
            f"scanning {scanned} coordinates at t={t} exceeds the depth budget of {SCAN_DEPTH}")
    return ranges, rows, scanned


def _scan(ranges, rows, run=None) -> int:
    """Number of integer points of a dilate, given by its `_dilate_frame`.
    Over each prefix `(x_1..x_{d-1})` of the ranges, in lexicographic order,
    the points `prefix + (x_d,)` of the dilate are the run `lo <= x_d <= hi`;
    each nonempty run is handed to `run(point, lo, hi)` when given, where
    `point` is one list, as long as `ranges`, holding the prefix (the
    callback may write its last entry).

    The scan fixes one coordinate at a time.  At coordinate j a row
    `a . x <= bound` with `a_j != 0` leaves
    `a_j x_j <= rest - slack_j`, where `rest = bound - a[:j] . prefix` and
    `slack_j = sum_{k > j} min(a_k lo_k, a_k hi_k)` over the ranges is the
    least the later coordinates can add; this holds at every point of the
    dilate over the prefix, so no point is lost.  It lowers `hi` to
    `floor((rest - slack_j) / a_j)` when `a_j > 0` and raises `lo` to the
    ceiling when `a_j < 0`; an empty range drops the prefix.  A value of x_j
    in range keeps `rest >= slack_j` for the next coordinate, so a row needs
    no test where its coefficient is zero.  Past the last nonzero coefficient
    of a row its slack is 0, so at the last coordinate the bounds are exact
    and `(lo, hi)` is the whole run.  The loop over the second-to-last
    coordinate reads the run over each of its values inline, from the rows
    that bound x_d from above and from below."""
    last = len(ranges) - 1
    bounds = [[] for _ in ranges]  # coordinate j -> (row, a_j, slack_j) where a_j != 0
    for r, (a, _bound) in enumerate(rows):
        slack = 0
        for j in range(last, -1, -1):
            c = a[j]
            if c:
                bounds[j].append((r, c, slack))
                lo, hi = ranges[j]
                slack += min(c * lo, c * hi)
    rest = [bound for _a, bound in rows]
    point = [0] * len(ranges)
    # Over x_{d-1} = x a row leaves `rest - a_{d-1} x` for `a_d x_d`, so the
    # loop over x_{d-1} reads each run from `upper`, the rows bounding x_d
    # from above as (row, a_d, a_{d-1}), and `lower`, those bounding it from
    # below as (row, -a_d, a_{d-1}); with one coordinate neither is read.
    run_lo, run_hi = ranges[last]
    upper = [(r, c, rows[r][0][last - 1]) for r, c, _slack in bounds[last] if c > 0]
    lower = [(r, -c, rows[r][0][last - 1]) for r, c, _slack in bounds[last] if c < 0]

    def scan(j):
        lo, hi = ranges[j]
        touched = bounds[j]
        for r, c, slack in touched:
            room = rest[r] - slack
            if c > 0:
                room //= c
                if room < hi:
                    hi = room
            else:
                room = -(room // -c)
                if room > lo:
                    lo = room
        if lo > hi:
            return 0
        if j == last:  # only when the scan has one coordinate
            if run is not None:
                run(point, lo, hi)
            return hi - lo + 1
        total = 0
        if j + 1 == last:
            for x in range(lo, hi + 1):
                first, final = run_lo, run_hi
                for r, c, a in upper:
                    room = (rest[r] - a * x) // c
                    if room < final:
                        final = room
                for r, c, a in lower:
                    room = -((rest[r] - a * x) // c)
                    if room > first:
                        first = room
                if first <= final:
                    if run is not None:
                        point[j] = x
                        run(point, first, final)
                    total += final - first + 1
            return total
        for r, c, _slack in touched:
            rest[r] -= c * lo
        for x in range(lo, hi + 1):
            point[j] = x
            total += scan(j + 1)
            for r, c, _slack in touched:
                rest[r] -= c
        for r, c, _slack in touched:
            rest[r] += c * (hi + 1)
        return total

    return scan(0)


def count_lattice(poly: HPolytope, t: int) -> int:
    """Number of integer points in the t-th dilate.  More than `SCAN_BUDGET`
    prefixes of the last coordinate scanned are refused before the scan
    starts.

    The coordinates after the last one any row involves are free: each adds
    a factor, its width.  Only the coordinates up to that one are scanned,
    so a box is a product."""
    ranges, rows, stop = _scan_frame(poly, t, points=False)
    if ranges is None:
        return 0
    free = prod(hi - lo + 1 for lo, hi in ranges[stop:])
    if not stop:
        return free
    return free * _scan(ranges[:stop], rows)


def _check_largest_dilates(fitted: HPolytope, degree: int, period: int,
                           checked: HPolytope, t_max: int, points: bool) -> None:
    """Apply the loop budget to the fit's nodes and the t_max checks, then
    the scan budget to the largest dilates a reciprocity check counts:
    `fitted` at the fit's last node `(degree + 2) * period` and `checked` at
    `t_max`, all before any count.  A declaration the fit rejects before
    counting (degree < 0 or period < 1) is left to the fit."""
    last_node = (degree + 2) * period if degree >= 0 and period >= 1 else 0
    check_loop_budget(last_node, "fit nodes")
    check_loop_budget(t_max, "checks")
    if last_node:
        _scan_frame(fitted, last_node, points)
    if t_max >= 1:
        _scan_frame(checked, t_max, points)


def ehrhart_quasipoly(poly: HPolytope, degree: int, period: int) -> QuasiPolynomial:
    """Quasipolynomial fitted to the dilation counts.

    Degree and period are declared by the caller; each constituent is verified
    against a direct count at one extra node, so a wrong declaration raises.
    """
    return interpolate_quasipoly(lambda t: count_lattice(poly, t), degree, period)


def em_reciprocity_check(poly: HPolytope, degree: int, period: int,
                         t_max: int) -> tuple[QuasiPolynomial, Report]:
    """Fit the closed count, then test its sign-alternating value at -t
    against the direct open count at t; returns the fit and the report.

    The closed description must be irredundant and state each implicit
    equality as an equality row or a pair of opposite rows (caller
    responsibility), so the relative interior is exactly `poly.interior()`.
    The largest dilates it counts, the fit's last node and t_max, are held
    to the scan budget before the first count.
    """
    open_poly = poly.interior()
    _check_largest_dilates(poly, degree, period, open_poly, t_max, points=False)
    qp = ehrhart_quasipoly(poly, degree, period)
    sign = (-1) ** degree
    report = Report()
    for t in range(1, t_max + 1):
        report.check(f"t={t}", sign * qp(-t), count_lattice(open_poly, t))
    return qp, report


@dataclass(frozen=True)
class FullDimFan:
    """Closed full-dimensional cones, rows `a . y <= 0`, intended to cover space."""

    cones: tuple[HPolytope, ...]

    def __post_init__(self):
        cones = tuple(self.cones)
        if not cones:
            raise ValueError("a fan needs at least one cone")
        d = cones[0].d
        for cone in cones:
            if cone.d != d:
                raise ValueError("cones of mixed ambient dimension")
            for _a, rel, b in cone.rows:
                if rel != "<=" or b != 0:
                    raise ValueError("cone rows must be homogeneous non-strict inequalities")
        object.__setattr__(self, "cones", cones)

    @property
    def d(self) -> int:
        return self.cones[0].d

    @cached_property
    def run_rows(self) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
        """The fan compiled for sweeps along the last coordinate: its
        distinct nonzero rows, each as `(terms, c)` with `terms` the
        pairs `(i, a_i)` of its nonzero coefficients before the last and `c`
        the last, and per cone the indices of its rows.  A zero row holds
        everywhere and is left out."""
        index: dict[tuple[int, ...], int] = {}
        cones = []
        for cone in self.cones:
            cones.append(tuple(index.setdefault(a, len(index))
                               for a, _rel, _b in cone.rows if any(a)))
        rows = tuple((tuple((i, c) for i, c in enumerate(a[:-1]) if c), a[-1]) for a in index)
        return rows, tuple(cones)


def normal_fan_of(P: GPerm) -> FullDimFan:
    """One closed cone per vertex of P, in `P.vertices` order, cut out by
    root rows `y_b - y_a <= 0`.  The normal fan coarsens the braid fan, so
    the cone of a vertex v is the union of the braid cones of the chains
    whose greedy vertex is v.  Along a chain, with prefix M before the
    adjacent pair (a, b), swapping a and b moves the greedy vertex by
    `z(M+a) + z(M+b) - z(M) - z(M+a+b)` times `e_b - e_a`; where that gap
    is positive the swapped chain's vertex is a neighbour of v across the
    wall `y_a = y_b`, and the rows of v are these edge directions, read off
    every chain of v on the integers `z.scaled` (whose sorted greedy
    vertices are `P.vertices` scaled by one positive factor)."""
    d = P.d
    _scale, values = P.z.scaled
    edges: dict[tuple[int, ...], set[tuple[int, int]]] = {}
    for perm in itertools.permutations(range(d)):
        coords = [0] * d
        pairs = []
        before = mask = 0  # the prefixes before the previous element and after it
        prev = None
        for b in perm:
            grown = mask | 1 << b
            coords[b] = values[grown] - values[mask]
            if prev is not None and values[mask] + values[before | 1 << b] > \
                    values[before] + values[grown]:
                pairs.append((prev, b))
            before, mask, prev = mask, grown, b
        edges.setdefault(tuple(coords), set()).update(pairs)
    cones = []
    for v in sorted(edges):
        rows = tuple((tuple(1 if i == b else -1 if i == a else 0 for i in range(d)), "<=", 0)
                     for a, b in sorted(edges[v]))
        cones.append(HPolytope(d, rows, None))
    return FullDimFan(tuple(cones))


def _run_cover(fan: FullDimFan, point, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Difference arrays of the cones over the run `x_d = lo..hi` above the
    prefix `point[:-1]`: entry `x - lo` of `closed` (of `strict`) adds one
    for each cone whose closed cone (interior) the run enters at x and
    takes one away where it leaves, so their running sums are the numbers
    of cones containing each point and strictly containing it.

    Above the prefix a row `a . y <= 0` reads `c x_d <= r` with `c = a_d`
    and `r = -a[:d-1] . prefix`, an upper bound on x_d when c > 0, a lower
    bound when c < 0, and all or nothing when c = 0; on integers the strict
    row is `c x_d <= r - 1`.  A cone meets the run in the intersection of
    its rows' intervals."""
    rows, cones = fan.run_rows
    bounds = []  # per row: closed lo, closed hi, strict lo, strict hi
    for terms, c in rows:
        r = 0
        for i, a in terms:
            r -= a * point[i]
        if c > 0:
            bounds.append((lo, r // c, lo, (r - 1) // c))
        elif c < 0:
            bounds.append((-(r // -c), hi, -((r - 1) // -c), hi))
        else:
            bounds.append((lo if r >= 0 else hi + 1, hi, lo if r > 0 else hi + 1, hi))
    closed = [0] * (hi - lo + 2)
    strict = [0] * (hi - lo + 2)
    for cone in cones:
        clo, chi, slo, shi = lo, hi, lo, hi
        for k in cone:
            row_clo, row_chi, row_slo, row_shi = bounds[k]
            if row_clo > clo:
                clo = row_clo
            if row_chi < chi:
                chi = row_chi
            if row_slo > slo:
                slo = row_slo
            if row_shi < shi:
                shi = row_shi
        if clo <= chi:
            closed[clo - lo] += 1
            closed[chi - lo + 1] -= 1
            if slo <= shi:
                strict[slo - lo] += 1
                strict[shi - lo + 1] -= 1
    return closed, strict


def multiplicity(fan: FullDimFan, point: Sequence[int]) -> int:
    """Number of closed cones of the fan containing the integer point: the
    cover of the one-point run at it."""
    if len(point) != fan.d:
        raise ValueError("point length mismatch")
    if not all(isinstance(x, int) for x in point):
        raise ValueError(f"multiplicity needs an integer point, got {tuple(point)}")
    return _run_cover(fan, point, point[-1], point[-1])[0][0]


def _multiplicities(poly: HPolytope, fan: FullDimFan, t: int) -> list[int]:
    """Numbers of integer points of the t-dilate by cone multiplicity
    (index m: the points in exactly m closed cones), swept one run of the
    last coordinate at a time; raises at the first point, in lexicographic
    order, that lies in no cone or strictly inside two."""
    if poly.d != fan.d:
        raise ValueError("polytope and fan live in different dimensions")
    hist = [0] * (len(fan.cones) + 1)
    ranges, rows, _scanned = _scan_frame(poly, t, points=True)
    if ranges is None:
        return hist

    def sweep(point, lo, hi):
        closed, strict = _run_cover(fan, point, lo, hi)
        mult = inside = 0
        for k in range(hi - lo + 1):
            mult += closed[k]
            inside += strict[k]
            if mult == 0 or inside > 1:
                point[-1] = lo + k
                x = tuple(point)
                if mult == 0:
                    raise IncompleteFanError(f"point {x} lies in no cone of the fan")
                raise IncompleteFanError(
                    f"point {x} lies strictly inside {inside} cones of the fan")
            hist[mult] += 1

    _scan(ranges, rows, sweep)
    return hist


def inner_pruned_count(poly: HPolytope, fan: FullDimFan, t: int) -> int:
    """Integer points of the t-dilate lying in exactly one closed cone."""
    return _multiplicities(poly, fan, t)[1]


def cumulative_pruned_count(poly: HPolytope, fan: FullDimFan, t: int) -> int:
    """Sum of cone multiplicities over the integer points of the t-dilate."""
    return sum(mult * n for mult, n in enumerate(_multiplicities(poly, fan, t)))


def pruned_reciprocity_check(poly: HPolytope, fan: FullDimFan, degree: int,
                             period: int, t_max: int) -> tuple[QuasiPolynomial, Report]:
    """Fit the inner pruned count of the interior, then test its
    sign-alternating value at -t against the cumulative count of the closed
    polytope, for t = 1..t_max; returns the fit and the report.

    The identity is stated for full-dimensional polytopes, so a polytope
    whose interior keeps an equality row with a nonzero coefficient (written
    as `=` or as two opposite rows) is rejected with a `ValueError` before
    any counting; a zero `=` row constrains no direction.  The largest
    dilates it scans, the fit's last node and t_max, are then held to the
    scan budget before the first count."""
    open_poly = poly.interior()
    if any(rel == "=" and any(a) for a, rel, _ in open_poly.rows):
        raise ValueError("pruned counts need a full-dimensional polytope, "
                         "but this one lies on an equality row")
    _check_largest_dilates(open_poly, degree, period, poly, t_max, points=True)
    inner = interpolate_quasipoly(
        lambda t: inner_pruned_count(open_poly, fan, t), degree, period)
    sign = (-1) ** degree
    report = Report()
    for t in range(1, t_max + 1):
        report.check(f"t={t}", sign * inner(-t), cumulative_pruned_count(poly, fan, t))
    return inner, report


def hpolytope_from_json(doc: object, *, require_bbox: bool = True) -> HPolytope:
    if not isinstance(doc, dict) or "d" not in doc or "rows" not in doc:
        raise InputFormatError("polytope document needs 'd' and 'rows'")
    d, raw_rows = doc["d"], doc["rows"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputFormatError("'d' must be a positive integer")
    if not isinstance(raw_rows, list):
        raise InputFormatError("'rows' must be a list")
    rows = []
    for raw in raw_rows:
        if not isinstance(raw, dict) or not {"a", "rel", "b"} <= set(raw):
            raise InputFormatError("each row needs 'a', 'rel' and 'b'")
        if not isinstance(raw["a"], list):
            raise InputFormatError("row 'a' must be a list")
        a = tuple(rat_from_json(c) for c in raw["a"])
        rows.append((a, raw["rel"], rat_from_json(raw["b"])))
    bbox = None
    if "bbox" in doc and doc["bbox"] is not None:
        raw_box = doc["bbox"]
        if (not isinstance(raw_box, list)
                or not all(isinstance(p, list) and len(p) == 2
                           and all(isinstance(v, int) and not isinstance(v, bool) for v in p)
                           for p in raw_box)):
            raise InputFormatError("'bbox' must be a list of [lo, hi] integer pairs")
        bbox = tuple((p[0], p[1]) for p in raw_box)
    elif require_bbox:
        raise InputFormatError("polytope document needs a 'bbox'")
    try:
        return HPolytope(d, tuple(rows), bbox)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def fan_from_json(doc: object) -> FullDimFan:
    if not isinstance(doc, dict) or "cones" not in doc or not isinstance(doc["cones"], list):
        raise InputFormatError("fan document needs a 'cones' list")
    cones = tuple(hpolytope_from_json(c, require_bbox=False) for c in doc["cones"])
    try:
        return FullDimFan(cones)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
