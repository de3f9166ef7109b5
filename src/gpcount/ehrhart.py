"""Exact lattice-point counting in dilated rational polytopes and in their
intersections with complete fans.

A polytope is a halfspace description (rows may be non-strict, strict, or
equalities) together with a trusted integer bounding box at dilation 1; the
t-th dilate keeps every normal vector and scales the right-hand sides by t.
Rows are rescaled to integer coefficients once per polytope, on first use.
On integer points the t-th dilate is then one integer system of
`a . x <= b` rows: a strict row lowers its bound by one and an equality
becomes two opposite rows.  Rows involving a single coordinate are folded
into the axis ranges.  The scan then fixes one coordinate at a time, in
order.  At coordinate j each row `a . x <= b` bounds `a_j x_j` by what the
fixed prefix leaves of b, less the least the later coordinates can add over
their ranges.  Every point of the dilate meets that bound, so no point is
lost, and a prefix whose range for x_j is empty is dropped there.  At the
last coordinate nothing is left to add, so the points over each prefix form
one integer interval, read off by floor division (Beck-Robins, *Computing the
Continuous Discretely*).  The coordinates after the last one any row involves
are free, so a count multiplies their widths and scans only the coordinates
before them; a box with no row left after folding is one product.  A count
whose folded box has more than `SCAN_BUDGET` prefixes of the last coordinate
is refused before it starts, and a reciprocity check is refused before its
first count when its largest dilate would be.

A full-dimensional fan is a list of closed cones (homogeneous non-strict
rows), compiled to integer rows once per fan, on first use.  The
multiplicity of a point is the number of closed cones containing it; one scan
of the dilate's points gives the histogram of multiplicities, from which the
inner pruned count takes the points of multiplicity exactly one and the
cumulative pruned count the sum of multiplicities.  That scan visits every
point, so a folded box of more than `SCAN_BUDGET` points is refused before
it starts.  A counted point in no cone, or strictly inside two cones, means
the cones do not form a complete fan and is a hard error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, prod
from typing import Iterator, Sequence

from .errors import BudgetExceededError, IncompleteFanError, InputFormatError
from .permutahedron import GPerm
from .polynomial import QuasiPolynomial, interpolate_quasipoly
from .rational import rat_from_json, to_integers
from .report import Report

RELATIONS = ("<=", "<", "=")
SCAN_BUDGET = 10 ** 7

Row = tuple[tuple[Fraction, ...], str, Fraction]


@dataclass(frozen=True)
class HPolytope:
    d: int
    rows: tuple[Row, ...]
    bbox: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        rows = []
        for a, rel, b in self.rows:
            a = tuple(Fraction(c) for c in a)
            if len(a) != self.d:
                raise ValueError("row length mismatch")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((a, rel, Fraction(b)))
        object.__setattr__(self, "rows", tuple(rows))
        if self.bbox is not None:
            box_ = tuple((int(lo), int(hi)) for lo, hi in self.bbox)
            if len(box_) != self.d:
                raise ValueError("bbox length mismatch")
            if any(lo > hi for lo, hi in box_):
                raise ValueError("bbox bounds out of order")
            object.__setattr__(self, "bbox", box_)

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], str, int], ...]:
        """The rows rescaled to integer coefficients."""
        out = []
        for a, rel, b in self.rows:
            *ia, ib = to_integers((*a, b))[1]
            out.append((tuple(ia), rel, ib))
        return tuple(out)

    def interior(self) -> "HPolytope":
        """Relative interior: inequality rows become strict and equalities
        stay, except that two opposite rows `a . x <= b` and
        `-c a . x <= -c b` (c > 0) together stay as the equality `a . x = b`,
        and a zero row, which bounds nothing, stays as written."""
        def primitive(a, b):  # an integer row divided by the gcd of its entries
            g = gcd(*a, b)
            return tuple(c // g for c in a), b // g

        closed = {primitive(a, b) for a, rel, b in self.int_rows if rel == "<=" and any(a)}
        rows = []
        for (a, rel, b), (ia, _, ib) in zip(self.rows, self.int_rows):
            if rel == "<=" and any(ia):
                rel = "=" if primitive([-c for c in ia], -ib) in closed else "<"
            rows.append((a, rel, b))
        return HPolytope(self.d, tuple(rows), self.bbox)


def _unit_row(d: int, i: int, sign: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(sign if j == i else 0) for j in range(d))


def unit_cube(d: int) -> HPolytope:
    rows = []
    for i in range(d):
        rows.append((_unit_row(d, i, -1), "<=", Fraction(0)))
        rows.append((_unit_row(d, i, 1), "<=", Fraction(1)))
    return HPolytope(d, tuple(rows), tuple((0, 1) for _ in range(d)))


def box(bounds: Sequence[tuple[Fraction, Fraction]]) -> HPolytope:
    d = len(bounds)
    rows = []
    bbox = []
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("box bounds out of order")
        rows.append((_unit_row(d, i, -1), "<=", -lo))
        rows.append((_unit_row(d, i, 1), "<=", hi))
        bbox.append((floor(lo), ceil(hi)))
    return HPolytope(d, tuple(rows), tuple(bbox))


def standard_simplex(d: int, scale: Fraction = Fraction(1)) -> HPolytope:
    """x_i >= 0 and sum x_i <= scale."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    rows = [(_unit_row(d, i, -1), "<=", Fraction(0)) for i in range(d)]
    rows.append((tuple(Fraction(1) for _ in range(d)), "<=", scale))
    return HPolytope(d, tuple(rows), tuple((0, ceil(scale)) for _ in range(d)))


def _dilate_frame(poly: HPolytope, t: int):
    """Axis ranges of the t-dilate, and its other rows as (coeffs, bound)
    meaning coeffs . x <= bound.  None signals an empty dilate.

    On integer points, with integer coefficients, `a . x < tb` is
    `a . x <= tb - 1` and `a . x = tb` is the pair `a . x <= tb`,
    `-a . x <= -tb`, so the dilate is one integer `<=` system.  A row in a
    single coordinate folds into that coordinate's range by floor division,
    and a zero row empties the dilate when its bound is negative."""
    if t < 1:
        raise ValueError("dilation must be a positive integer")
    if poly.bbox is None:
        raise ValueError("counting requires a bounding box")
    rows = []
    for a, rel, b in poly.int_rows:
        tb = t * b
        rows.append((a, tb - 1 if rel == "<" else tb))
        if rel == "=":
            rows.append((tuple(-c for c in a), -tb))
    ranges = [[lo * t, hi * t] for lo, hi in poly.bbox]
    rest = []
    for a, bound in rows:
        nz = [i for i, c in enumerate(a) if c]
        if not nz:
            if bound < 0:
                return None, None
        elif len(nz) == 1:
            i = nz[0]
            c = a[i]
            if c > 0:
                ranges[i][1] = min(ranges[i][1], bound // c)
            else:
                ranges[i][0] = max(ranges[i][0], -(bound // -c))
        else:
            rest.append((a, bound))
    if any(lo > hi for lo, hi in ranges):
        return None, None
    return [tuple(r) for r in ranges], rest


def _check_budget(ranges, what: str, t: int) -> None:
    """Refuse a scan over the product of `ranges` larger than `SCAN_BUDGET`."""
    size = prod(hi - lo + 1 for lo, hi in ranges)
    if size > SCAN_BUDGET:
        raise BudgetExceededError(
            f"scanning {size} {what} at t={t} exceeds the budget of {SCAN_BUDGET}")


def _scan_frame(poly: HPolytope, t: int, points: bool):
    """`_dilate_frame` of the t-dilate, refused before any scan when the scan
    exceeds `SCAN_BUDGET`: a scan of every point (`points`) is bounded by the
    folded box, a count by the prefixes of the last coordinate."""
    ranges, rows = _dilate_frame(poly, t)
    if ranges is not None:
        if points:
            _check_budget(ranges, "box points", t)
        else:
            _check_budget(ranges[:-1], "prefixes of the last coordinate", t)
    return ranges, rows


def _intervals(ranges, rows) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The integer points of a dilate, given by its `_dilate_frame`, as runs
    along the last coordinate: `(prefix, lo, hi)` for each prefix
    `(x_1..x_{d-1})` of the ranges, in lexicographic order, whose points
    `prefix + (x_d,)` with `lo <= x_d <= hi` are exactly the dilate's points
    over that prefix.  Prefixes over which the dilate is empty are skipped.

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
    and `(lo, hi)` is the whole run."""
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

    def scan(j, prefix):
        lo, hi = ranges[j]
        touched = bounds[j]
        for r, c, slack in touched:
            room = rest[r] - slack
            if c > 0:
                hi = min(hi, room // c)
            else:
                lo = max(lo, -(room // -c))
        if lo > hi:
            return
        if j == last:
            yield prefix, lo, hi
            return
        for r, c, _slack in touched:
            rest[r] -= c * lo
        for x in range(lo, hi + 1):
            yield from scan(j + 1, prefix + (x,))
            for r, c, _slack in touched:
                rest[r] -= c
        for r, c, _slack in touched:
            rest[r] += c * (hi + 1)

    yield from scan(0, ())


def _lattice_points(poly: HPolytope, t: int) -> Iterator[tuple[int, ...]]:
    """The integer points of the t-dilate in lexicographic order.  Every
    point is visited, so a folded box of more than `SCAN_BUDGET` points is
    refused before the scan starts."""
    ranges, rows = _scan_frame(poly, t, points=True)
    if ranges is None:
        return
    for prefix, lo, hi in _intervals(ranges, rows):
        for x_d in range(lo, hi + 1):
            yield prefix + (x_d,)


def count_lattice(poly: HPolytope, t: int) -> int:
    """Number of integer points in the t-th dilate.  More than `SCAN_BUDGET`
    prefixes of the last coordinate are refused before the scan starts.

    The coordinates after the last one any row involves are free: each adds
    a factor, its width.  Only the coordinates up to that one are scanned,
    so a box is a product."""
    ranges, rows = _scan_frame(poly, t, points=False)
    if ranges is None:
        return 0
    stop = max((j + 1 for a, _bound in rows for j, c in enumerate(a) if c), default=0)
    free = prod(hi - lo + 1 for lo, hi in ranges[stop:])
    if not stop:
        return free
    return free * sum(hi - lo + 1 for _prefix, lo, hi in _intervals(ranges[:stop], rows))


def _check_largest_dilates(fitted: HPolytope, degree: int, period: int,
                           checked: HPolytope, t_max: int, points: bool) -> None:
    """Apply the scan budget, before any count, to the largest dilates a
    reciprocity check counts: `fitted` at the fit's last node
    `(degree + 2) * period` and `checked` at `t_max`.  A declaration the fit
    rejects before counting (degree < 0 or period < 1) is left to the fit."""
    if degree >= 0 and period >= 1:
        _scan_frame(fitted, (degree + 2) * period, points)
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
    def cone_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per cone, the integer coefficient vectors of its nonzero rows."""
        return tuple(tuple(a for a, _rel, _b in cone.int_rows if any(a))
                     for cone in self.cones)


def normal_fan_of(P: GPerm) -> FullDimFan:
    """One closed cone per vertex v, cut out by (u - v) . y <= 0 over the
    other vertices u: the directions maximized at v."""
    cones = []
    for v in P.vertices:
        rows = []
        for u in P.vertices:
            if u == v:
                continue
            rows.append((tuple(uc - vc for uc, vc in zip(u, v)), "<=", Fraction(0)))
        cones.append(HPolytope(P.d, tuple(rows), None))
    return FullDimFan(tuple(cones))


def _cone_hits(cone_rows, point) -> tuple[int, int]:
    """Numbers of cones containing the point, and of those strictly (every row negative)."""
    closed = strict = 0
    for rows in cone_rows:
        interior = True
        for a in rows:
            s = 0
            for c, x in zip(a, point):
                if c:
                    s += c * x
            if s > 0:
                break
            if s == 0:
                interior = False
        else:
            closed += 1
            strict += interior
    return closed, strict


def multiplicity(fan: FullDimFan, point: Sequence[int]) -> int:
    """Number of closed cones of the fan containing the point."""
    if len(point) != fan.d:
        raise ValueError("point length mismatch")
    return _cone_hits(fan.cone_rows, point)[0]


def _multiplicities(poly: HPolytope, fan: FullDimFan, t: int) -> Counter:
    """Histogram of cone multiplicities over the integer points of the t-dilate;
    raises unless each point lies in some cone and strictly inside at most one."""
    if poly.d != fan.d:
        raise ValueError("polytope and fan live in different dimensions")
    hist = Counter()
    for x in _lattice_points(poly, t):
        mult, strict = _cone_hits(fan.cone_rows, x)
        if mult == 0:
            raise IncompleteFanError(f"point {x} lies in no cone of the fan")
        if strict > 1:
            raise IncompleteFanError(f"point {x} lies strictly inside {strict} cones of the fan")
        hist[mult] += 1
    return hist


def inner_pruned_count(poly: HPolytope, fan: FullDimFan, t: int) -> int:
    """Integer points of the t-dilate lying in exactly one closed cone."""
    return _multiplicities(poly, fan, t)[1]


def cumulative_pruned_count(poly: HPolytope, fan: FullDimFan, t: int) -> int:
    """Sum of cone multiplicities over the integer points of the t-dilate."""
    return sum(mult * n for mult, n in _multiplicities(poly, fan, t).items())


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
