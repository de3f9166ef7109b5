"""Exact lattice-point counting in dilated rational polytopes and in their
intersections with complete fans.

A polytope is a halfspace description (rows may be non-strict, strict, or
equalities) together with an integer bounding box at dilation 1, which every
polytope has and whose caller vouches that it holds the polytope; the t-th
dilate keeps every normal vector and scales the right-hand sides by t.
On integer points the t-th dilate is one integer system of `a . x <= b`
rows: a strict row lowers its bound by one and an equality becomes two
opposite rows.  A polytope stores each row as its primitive integer row,
and its interior has the same rows with other relations; a polytope
document's rows are read straight into integers (`rational.rats_from_json`),
and only a row with a non-int entry is rescaled.  Each polytope is compiled
once, on its first count, into an integer dilation frame: its rows with
equalities split, sorted into zero rows, per coordinate its box bounds with
the rows in that coordinate alone bounding it from above and from below,
and the rest, together with the number of coordinates a count scans.  A
t-dilate only scales the box and the right-hand sides: a zero row with a
negative bound empties it, and a row in a single coordinate folds into that
coordinate's range by one floor division.  The scan then fixes one
coordinate at a time, in order.  At coordinate j each row `a . x <= b`
bounds `a_j x_j` by what the fixed prefix leaves of b, less the least the
later coordinates can add over their ranges.  Every point of the dilate meets that bound, so no point is
lost, and a prefix whose range for x_j is empty is dropped there.  At the
last coordinate nothing is left to add, so the points over each prefix form
one integer interval, read off by floor division (Beck-Robins, *Computing the
Continuous Discretely*), inline in the loop over the second-to-last
coordinate.  The coordinates after the last one any row involves are free,
so a count multiplies their widths and scans only the coordinates before
them; a box with no row left after folding is one product.  One
scan returns the count and can hand each run to a callback; it recurses
through a plain function, not a closure that refers to itself, so a count
leaves no reference cycle and what it allocates is freed when it returns.  A
count charges the prefixes of the last coordinate it fixes to
`errors.WORK_BUDGET` and is refused before it starts when they exceed it,
or when it fixes more than `errors.SCAN_DEPTH` coordinates (one recursion
level each).  A reciprocity check is refused before its first count when its
largest dilate would be, or when its checks or its fit's nodes exceed
`errors.LOOP_BUDGET`.  Each refusal is `errors.check_budget`'s
`BudgetExceededError`, its message formatted only then, and each budget is
read when its guard runs.

A full-dimensional fan is its dimension and a list of closed cones, each a
`Cone`: the primitive integer normals `a` of its rows `a . y <= 0`, with no
box, no relation and no offset.  A fan document's rows are checked (each
`<=` with offset 0) and made primitive in `fan_from_json` alone, through the
helpers that parse and normalize a polytope's rows, and only their normals
are kept; the normal fan writes its root normals directly.  A fan's distinct
rows are indexed once per fan, on first use, where every row, zero rows
included, is refused unless it is a tuple of ints in the fan's dimension.
The multiplicity of a point is the number of closed cones containing it;
the inner pruned count takes the points of multiplicity exactly one and
the cumulative pruned count the sum of multiplicities.  Each
cone meets a run of the last coordinate in an interval, read off its rows by
floor division as for the run itself, so the scan hands each run to a sweep
that adds the cones' intervals into difference arrays and reads the
multiplicity of every point of the run off their running sums, with no cone
test per point.  The sweep still walks every point, and each run reads every
distinct fan row and every cone's row list, so a sweep charges its folded
box points plus its prefixes of the last coordinate times those row reads to
`errors.WORK_BUDGET` before it starts.  A counted point in no cone, or
strictly inside two cones, means the cones do not form a complete fan and is
a hard error, raised at the first such point in lexicographic order.  The
normal fan of a generalized permutahedron coarsens the braid fan, so each of
its cones is cut out by root rows `y_b - y_a <= 0`, one per edge at its
vertex, read off the polytope's tight sets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import NamedTuple, Sequence

from . import errors
from .errors import IncompleteFanError, InputFormatError, check_budget, require_integer
from .permutahedron import GPerm
from .polynomial import QuasiPolynomial, interpolate_quasipoly
from .rational import exact, rats_from_json, to_integers
from .report import Report
from .value import Frozen

RELATIONS = ("<=", "<", "=")

Row = tuple[tuple[int, ...], str, int]


def primitive_rows(d: int, rows: Sequence) -> tuple[Row, ...]:
    """Rows `a . x rel b` with rational entries, in `d` coordinates, each as
    its primitive integer row: `(*a, b)` divided by the gcd of its entries,
    after a row with a non-int entry is scaled to integers by the lcm of its
    denominators (`exact` refuses what is not a rational), with its
    relation, in its place."""
    require_integer("d", d, 1)
    rows = tuple((tuple(a), rel, b) for a, rel, b in rows)
    for a, rel, _b in rows:
        if len(a) != d:
            raise ValueError("row length mismatch")
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
    primitive = []
    for a, rel, b in rows:
        if type(b) is not int or not all(type(c) is int for c in a):
            *a, b = to_integers(map(exact, (*a, b)))[1]
            a = tuple(a)
        g = gcd(*a, b)
        if g > 1:
            a, b = tuple(c // g for c in a), b // g
        primitive.append((a, rel, b))
    return tuple(primitive)


class HPolytope(Frozen):
    """Rows `a . x rel b` with rational entries, stored as `primitive_rows`,
    and an integer bounding box at dilation 1."""

    _fields = ("d", "rows", "bbox")
    d: int
    rows: tuple[Row, ...]
    bbox: tuple[tuple[int, int], ...]

    def __init__(self, d: int, rows: Sequence[Row], bbox: Sequence[tuple[int, int]]):
        rows = primitive_rows(d, rows)
        if bbox is None:
            raise ValueError("a polytope needs a bounding box")
        pairs = tuple((lo, hi) for lo, hi in bbox)
        try:
            box_ = tuple((int(lo), int(hi)) for lo, hi in pairs)
        except (OverflowError, ValueError):  # an infinite or NaN float, a str of no integer
            raise ValueError("bbox bounds must be integers") from None
        if len(box_) != d:
            raise ValueError("bbox length mismatch")
        if any(isinstance(v, bool) or int(v) != v for pair in pairs for v in pair):
            raise ValueError("bbox bounds must be integers")
        if any(lo > hi for lo, hi in box_):
            raise ValueError("bbox bounds out of order")
        self._store(d, rows, box_)

    @classmethod
    def _from_rows(cls, d: int, rows: tuple[Row, ...],
                   bbox: tuple[tuple[int, int], ...]) -> "HPolytope":
        """The polytope of rows that are already `primitive_rows` in d >= 1
        coordinates and a bbox of d int pairs `lo <= hi`, as the package's
        own constructors build them; nothing is checked again."""
        poly = cls.__new__(cls)
        poly._store(d, rows, bbox)
        return poly

    def _store(self, d: int, rows: tuple[Row, ...], bbox: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "bbox", bbox)

    @cached_property
    def frame(self) -> tuple[tuple, tuple, tuple, int]:
        """The rows compiled for dilation, `(zero, folds, rest, scanned)`.
        On integer points the t-dilate of a row is `a . x <= t b - strict`,
        where `strict` is 1 for `<` and 0 otherwise, and an equality is two
        opposite such rows, the row first.  `zero` holds the zero rows as
        `(b, strict)`.  `folds` holds per coordinate i its box bounds and
        the rows in that coordinate alone, coefficient c, in row order:
        `(lo, hi, upper, lower)`, with `upper` the rows with c > 0 and
        `lower` those with c < 0, each as `(|c|, b, strict)`.  `rest` holds
        the other rows as `(a, b, strict)`, in row order.  A count scans the
        coordinates up to the last one a row of `rest` involves: `scanned`
        of them."""
        rows = []
        for a, rel, b in self.rows:
            rows.append((a, b, int(rel == "<")))
            if rel == "=":
                rows.append((tuple(-c for c in a), -b, 0))
        zero, rest = [], []
        upper, lower = [[] for _ in self.bbox], [[] for _ in self.bbox]
        for a, b, strict in rows:
            nz = [i for i, c in enumerate(a) if c]
            if not nz:
                zero.append((b, strict))
            elif len(nz) == 1:
                c = a[nz[0]]
                (upper if c > 0 else lower)[nz[0]].append((abs(c), b, strict))
            else:
                rest.append((a, b, strict))
        folds = tuple((lo, hi, tuple(up), tuple(down))
                      for (lo, hi), up, down in zip(self.bbox, upper, lower))
        scanned = max((j + 1 for a, _b, _strict in rest for j, c in enumerate(a) if c), default=0)
        return tuple(zero), folds, tuple(rest), scanned

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
        return HPolytope._from_rows(self.d, tuple(rows), self.bbox)


def unit_cube(d: int) -> HPolytope:
    """`box([(0, 1)] * d)`: per coordinate the rows `-x_i <= 0` and
    `x_i <= 1`, and the bbox (0, 1)."""
    require_integer("d", d, 1)
    zeros = (0,) * d
    rows = []
    for i in range(d):
        before, after = zeros[:i], zeros[i + 1:]
        rows.append((before + (-1,) + after, "<=", 0))
        rows.append((before + (1,) + after, "<=", 1))
    return HPolytope._from_rows(d, tuple(rows), ((0, 1),) * d)


def box(bounds: Sequence[tuple[Fraction, Fraction]]) -> HPolytope:
    """lo_i <= x_i <= hi_i, each bound an `exact` rational: per coordinate
    the primitive rows `-q x_i <= -p` for lo = p/q and `q x_i <= p` for
    hi = p/q, and the bbox (floor lo, ceil hi)."""
    d = len(bounds)
    require_integer("d", d, 1)
    zeros = (0,) * d
    rows = []
    bbox = []
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = exact(lo), exact(hi)
        if lo > hi:
            raise ValueError("box bounds out of order")
        before, after = zeros[:i], zeros[i + 1:]
        rows.append((before + (-lo.denominator,) + after, "<=", -lo.numerator))
        rows.append((before + (hi.denominator,) + after, "<=", hi.numerator))
        bbox.append((lo.numerator // lo.denominator, -(-hi.numerator // hi.denominator)))
    return HPolytope._from_rows(d, tuple(rows), tuple(bbox))


def standard_simplex(d: int, scale: Fraction = Fraction(1)) -> HPolytope:
    """x_i >= 0 and sum x_i <= scale: the primitive rows `-x_i <= 0` and
    `q (x_1 + ... + x_d) <= p` for scale = p/q, and the bbox (0, ceil
    scale) in every coordinate."""
    require_integer("d", d, 1)
    scale = exact(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    zeros = (0,) * d
    rows = [(zeros[:i] + (-1,) + zeros[i + 1:], "<=", 0) for i in range(d)]
    rows.append(((scale.denominator,) * d, "<=", scale.numerator))
    top = -(-scale.numerator // scale.denominator)
    return HPolytope._from_rows(d, tuple(rows), ((0, top),) * d)


def _scan_frame(poly: HPolytope, t: int, fan: FullDimFan | None = None):
    """Axis ranges of the t-dilate, its other rows as (coeffs, bound)
    meaning coeffs . x <= bound, and the number of coordinates the scan
    fixes; (None, None, 0) for an empty dilate.

    Scales the polytope's `frame`, each right-hand side to `t b - strict`:
    a zero row empties the dilate when its bound is negative, each
    coordinate's range is its box bounds times t, lowered by its upper and
    raised by its lower rows by floor division, and an empty range empties
    the dilate there; the other rows are the scan's.  The scan is refused
    before it starts when it exceeds `errors.WORK_BUDGET` or fixes more than
    `errors.SCAN_DEPTH` coordinates.  A count fixes the coordinates up to
    the last one any row involves, as the frame records, and is charged the
    prefixes of the last of those.  A sweep against `fan` fixes every
    coordinate and walks every point of the folded box, and each of its runs
    reads every distinct row of the fan and every cone's row list once
    (`_run_cover`); it is charged the box points plus the prefixes of the
    last coordinate, each counted as a run, times those row reads.  Each
    guard is handed its message as a template and its fields, formatted
    only when it refuses.  A polytope and a fan in different dimensions are
    refused first, then a fan row that is not a tuple of ints in that
    dimension (`FullDimFan.run_rows`)."""
    require_integer("t", t, 1)
    if fan is not None:
        if poly.d != fan.d:
            raise ValueError("polytope and fan live in different dimensions")
        fan_rows, cones = fan.run_rows
    zero, folds, rest, scanned = poly.frame
    if any(t * b < strict for b, strict in zero):
        return None, None, 0
    ranges = []
    for lo, hi, upper, lower in folds:
        lo, hi = lo * t, hi * t
        for c, b, strict in upper:
            top = (t * b - strict) // c
            if top < hi:
                hi = top
        for c, b, strict in lower:
            bottom = -((t * b - strict) // c)
            if bottom > lo:
                lo = bottom
        if lo > hi:
            return None, None, 0
        ranges.append((lo, hi))
    widths = [hi - lo + 1 for lo, hi in ranges]
    if fan is None:
        size = prod(widths[:max(scanned - 1, 0)])
        check_budget(size, errors.WORK_BUDGET, "prefixes of the last coordinate at t={}", t)
    else:
        scanned = len(ranges)
        reads = len(fan_rows) + sum(map(len, cones))
        runs = prod(widths[:-1])
        points = runs * widths[-1]
        size = points + runs * reads
        check_budget(size, errors.WORK_BUDGET,
                     "steps ({} box points and {} runs of {} fan row reads) at t={}",
                     points, runs, reads, t)
    check_budget(scanned, errors.SCAN_DEPTH, "coordinates scanned at t={}", t)
    return ranges, [(a, t * b - strict) for a, b, strict in rest], scanned


def _scan(ranges, rows, run=None) -> int:
    """Number of integer points of a dilate, given by its `_scan_frame`.
    Over each prefix `(x_1..x_{d-1})` of the ranges, in lexicographic order,
    the points `prefix + (x_d,)` of the dilate are the run `lo <= x_d <= hi`;
    each nonempty run is handed to `run(point, lo, hi)` when given, where
    `point` is one list, as long as `ranges`, holding the prefix (the
    callback may write its last entry).

    The scan fixes one coordinate at a time.  At coordinate j a row
    `a . x <= bound` with `a_j != 0` leaves
    `a_j x_j <= rest - slack_j`, where `rest = bound - a[:j] . prefix` and
    `slack_j = sum_{k > j} a_k lo_k` (`a_k hi_k` where `a_k < 0`) over the
    ranges is the least the later coordinates can add; this holds at every
    point of the dilate over the prefix, so no point is lost.  It lowers `hi` to
    `floor((rest - slack_j) / a_j)` when `a_j > 0` and raises `lo` to the
    ceiling when `a_j < 0`; an empty range drops the prefix.  A value of x_j
    in range keeps `rest >= slack_j` for the next coordinate, so a row needs
    no test where its coefficient is zero.  Past the last nonzero coefficient
    of a row its slack is 0, so at the last coordinate the bounds are exact
    and `(lo, hi)` is the whole run.  The loop over the second-to-last
    coordinate reads the run over each of its values inline, from the rows
    that bound x_d from above and from below.

    Only what depends on the ranges is built per call, in one pass each:
    each row's slack at each of its coordinates, and the split of the rows
    of x_d into those bounding it from above and from below.  The scan
    itself is `_scan_level`."""
    last = len(ranges) - 1
    bounds = [[] for _ in ranges]  # coordinate j -> (row, a_j, slack_j) where a_j != 0
    for r, (a, _bound) in enumerate(rows):
        slack = 0
        for j in range(last, -1, -1):
            c = a[j]
            if c:
                bounds[j].append((r, c, slack))
                lo, hi = ranges[j]
                slack += c * (lo if c > 0 else hi)
    rest = [bound for _a, bound in rows]
    point = [0] * len(ranges)
    # Over x_{d-1} = x a row leaves `rest - a_{d-1} x` for `a_d x_d`, so the
    # loop over x_{d-1} reads each run from `upper`, the rows bounding x_d
    # from above as (row, a_d, a_{d-1}), and `lower`, those bounding it from
    # below as (row, -a_d, a_{d-1}); with one coordinate neither is read.
    upper, lower = [], []
    for r, c, _slack in bounds[last]:
        if c > 0:
            upper.append((r, c, rows[r][0][last - 1]))
        else:
            lower.append((r, -c, rows[r][0][last - 1]))
    return _scan_level(0, ranges, bounds, rest, point, run, last, upper, lower)


def _scan_level(j, ranges, bounds, rest, point, run, last, upper, lower) -> int:
    """Number of points of the dilate over the fixed prefix `point[:j]`,
    where `rest[r]` is what the prefix leaves of row r's bound; `_scan`
    builds the other arguments.  A plain function, not a closure over
    `_scan`'s lists, so that its recursion leaves no reference cycle to
    outlive the scan."""
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
        run_lo, run_hi = ranges[last]
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
        total += _scan_level(j + 1, ranges, bounds, rest, point, run, last, upper, lower)
        for r, c, _slack in touched:
            rest[r] -= c
    for r, c, _slack in touched:
        rest[r] += c * (hi + 1)
    return total


def count_lattice(poly: HPolytope, t: int) -> int:
    """Number of integer points in the t-th dilate.  More than
    `errors.WORK_BUDGET` prefixes of the last coordinate scanned are refused
    before the scan starts.

    The coordinates after the last one any row involves are free: each adds
    a factor, its width.  Only the coordinates up to that one are scanned,
    so a box is a product."""
    ranges, rows, stop = _scan_frame(poly, t)
    if ranges is None:
        return 0
    if stop == len(ranges):
        return _scan(ranges, rows)
    free = prod(hi - lo + 1 for lo, hi in ranges[stop:])
    if not stop:
        return free
    return free * _scan(ranges[:stop], rows)


def _check_largest_dilates(fitted: HPolytope, degree: int, period: int, checked: HPolytope,
                           t_max: int, fan: FullDimFan | None = None) -> None:
    """Refuse a degree below 0 and a period or t_max below 1, then apply the
    loop budget to the fit's nodes and the t_max checks, and the work budget
    to the largest dilates a reciprocity check counts: `fitted` at the fit's
    last node `(degree + 2) * period` and `checked` at `t_max`, swept against
    `fan` when given, all before any count."""
    require_integer("degree", degree, 0)
    require_integer("period", period, 1)
    require_integer("t_max", t_max, 1)
    last_node = (degree + 2) * period
    check_budget(last_node, errors.LOOP_BUDGET, "fit nodes")
    check_budget(t_max, errors.LOOP_BUDGET, "checks")
    _scan_frame(fitted, last_node, fan)
    _scan_frame(checked, t_max, fan)


def ehrhart_quasipoly(poly: HPolytope, degree: int, period: int) -> QuasiPolynomial:
    """Quasipolynomial fitted to the dilation counts.

    Degree and period are declared by the caller; each constituent is verified
    against a direct count at one extra node, so a wrong declaration raises.
    """
    return interpolate_quasipoly(lambda t: count_lattice(poly, t), degree, period)


def em_reciprocity_check(poly: HPolytope, degree: int, period: int,
                         t_max: int) -> tuple[QuasiPolynomial, Report]:
    """Fit the closed count, then check its reflection (-1)^degree qp(-t)
    against the direct open count at t for t = 1..t_max, through
    `Report.reflections`, each labelled "t=<t>"; returns the fit and the
    report.

    The closed description must state each implicit equality as an
    equality row or a pair of opposite rows (caller responsibility), so the
    relative interior is exactly `poly.interior()`.  Redundant and repeated
    rows are fine: a valid row tight at a relative-interior point is
    constant on the polytope, so it is one of those equalities.
    The largest dilates it counts, the fit's last node and t_max, are held
    to the work budget before the first count.
    """
    open_poly = poly.interior()
    _check_largest_dilates(poly, degree, period, open_poly, t_max)
    qp = ehrhart_quasipoly(poly, degree, period)
    return qp, Report().reflections("t=", qp, degree, lambda t: count_lattice(open_poly, t), t_max)


class Cone(NamedTuple):
    """A closed cone: the primitive integer normals `a` of its rows
    `a . y <= 0`."""

    rows: tuple[tuple[int, ...], ...]


class FullDimFan(Frozen):
    """Closed full-dimensional cones in `d` coordinates, intended to cover
    space."""

    _fields = ("d", "cones")
    d: int
    cones: tuple[Cone, ...]

    def __init__(self, d: int, cones: Sequence[Cone]):
        cones = tuple(cones)
        if not cones:
            raise ValueError("a fan needs at least one cone")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cones", cones)

    @cached_property
    def run_rows(self) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
        """The fan compiled for sweeps along the last coordinate: its
        distinct nonzero rows, each as `(terms, c)` with `terms` the
        pairs `(i, a_i)` of its nonzero coefficients before the last and `c`
        the last, and per cone the indices of its rows.  A zero row holds
        everywhere and is left out.  Every row, zero rows included, is
        checked first: one that is not a tuple of ints raises ValueError,
        as does one not of length d."""
        every = [a for cone in self.cones for a in cone.rows]
        tuples = set(map(type, every)) <= {tuple}
        if tuples and not set(map(len, every)) <= {self.d}:
            raise ValueError("cone row length mismatch")
        if not tuples or not set(map(type, itertools.chain.from_iterable(every))) <= {int}:
            raise ValueError("cone rows must be tuples of ints")
        index: dict[tuple[int, ...], int] = {}
        cones = tuple(tuple(index.setdefault(a, len(index)) for a in cone.rows if any(a))
                      for cone in self.cones)
        rows = tuple((tuple((i, c) for i, c in enumerate(a[:-1]) if c), a[-1]) for a in index)
        return rows, cones


def normal_fan_of(P: GPerm) -> FullDimFan:
    """One closed cone per vertex of P, in `P.vertices` order, cut out by
    root rows `y_b - y_a <= 0`, each as its normal `e_b - e_a`, in sorted
    (a, b) order.  The normal fan coarsens the braid fan, so the cone of a
    vertex v is the union of the braid cones of its greedy chains, and its
    rows are the directions `e_b - e_a` of its edges.  A vertex's tight sets form a distributive
    lattice whose maximal chains are its greedy chains, so a tight triple
    M < M+a < M+a+b lies on one, where swapping a and b moves the greedy
    vertex by `z(M+a) + z(M+b) - z(M) - z(M+a+b)` times `e_b - e_a`.  That
    gap is z(M+b) - v(M+b), so v has the edge `e_b - e_a` exactly when it
    is tight on M, M+a and M+a+b but not on M+b for some M avoiding a and
    b: one OR of mask ANDs over `P.tight`, with no face map."""
    d, tight, n = P.d, P.tight, len(P.vertices)
    rows: list[list[tuple[int, ...]]] = [[] for _ in P.vertices]
    for a, b in itertools.permutations(range(d), 2):
        ea, eb = 1 << a, 1 << b
        with_edge = 0  # the ids of the vertices with the edge e_b - e_a
        for m in range(1 << d):
            if not m & (ea | eb):
                with_edge |= tight[m] & tight[m | ea] & tight[m | ea | eb] & ~tight[m | eb]
        root = tuple(1 if i == b else -1 if i == a else 0 for i in range(d))
        # one pass over the digits, vertex id v at place v from the left,
        # where peeling one bit at a time off a mask as wide as the vertex
        # count costs that width per set bit; ~tight clears the sentinel
        for vid, bit in enumerate(format(with_edge, f"0{n}b")):
            if bit == "1":
                rows[vid].append(root)
    return FullDimFan(d, (Cone(tuple(cone)) for cone in rows))


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
    for x in point:
        require_integer("coordinate of the integer point", x)
    return _run_cover(fan, point, point[-1], point[-1])[0][0]


def _multiplicities(poly: HPolytope, fan: FullDimFan, t: int) -> list[int]:
    """Numbers of integer points of the t-dilate by cone multiplicity
    (index m: the points in exactly m closed cones), swept one run of the
    last coordinate at a time; raises at the first point, in lexicographic
    order, that lies in no cone or strictly inside two."""
    hist = [0] * (len(fan.cones) + 1)
    ranges, rows, _scanned = _scan_frame(poly, t, fan)
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
    """Fit the inner pruned count of the interior, then check its
    reflection (-1)^degree inner(-t) against the cumulative count of the
    closed polytope for t = 1..t_max, through `Report.reflections`, each
    labelled "t=<t>"; returns the fit and the report.

    The identity is stated for full-dimensional polytopes, so a polytope
    whose interior keeps an equality row with a nonzero coefficient (written
    as `=` or as two opposite rows) is rejected with a `ValueError` before
    any counting; a zero `=` row constrains no direction.  The largest
    dilates it scans, the fit's last node and t_max, are then held to the
    work budget before the first count."""
    open_poly = poly.interior()
    if any(rel == "=" and any(a) for a, rel, _ in open_poly.rows):
        raise ValueError("pruned counts need a full-dimensional polytope, "
                         "but this one lies on an equality row")
    _check_largest_dilates(open_poly, degree, period, poly, t_max, fan)
    inner = interpolate_quasipoly(
        lambda t: inner_pruned_count(open_poly, fan, t), degree, period)
    return inner, Report().reflections(
        "t=", inner, degree, lambda t: cumulative_pruned_count(poly, fan, t), t_max)


def _rows_from_json(doc: object) -> tuple[object, list, object]:
    """The `d`, the rows and the `bbox` (None when absent) of a polytope or
    cone document, each row's entries read as rationals and scaled to
    integers by the lcm of their denominators (`rats_from_json`), and
    nothing else checked."""
    if not isinstance(doc, dict) or "d" not in doc or "rows" not in doc:
        raise InputFormatError("polytope document needs 'd' and 'rows'")
    if not isinstance(doc["rows"], list):
        raise InputFormatError("'rows' must be a list")
    rows = []
    for raw in doc["rows"]:
        if not isinstance(raw, dict) or not {"a", "rel", "b"} <= set(raw):
            raise InputFormatError("each row needs 'a', 'rel' and 'b'")
        if not isinstance(raw["a"], list):
            raise InputFormatError("row 'a' must be a list")
        *a, b = rats_from_json((*raw["a"], raw["b"]))[1]
        rows.append((tuple(a), raw["rel"], b))
    return doc["d"], rows, doc.get("bbox")


def hpolytope_from_json(doc: object) -> HPolytope:
    d, rows, raw_box = _rows_from_json(doc)
    if raw_box is None:
        raise InputFormatError("polytope document needs a 'bbox'")
    if (not isinstance(raw_box, list)
            or not all(isinstance(p, list) and len(p) == 2
                       and all(isinstance(v, int) and not isinstance(v, bool) for v in p)
                       for p in raw_box)):
        raise InputFormatError("'bbox' must be a list of [lo, hi] integer pairs")
    try:
        return HPolytope(d, rows, raw_box)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def fan_from_json(doc: object) -> FullDimFan:
    """The fan of a `{"cones": [{"d", "rows"}]}` document, the one place a
    fan's rows are checked: every cone in one dimension, with no `bbox`, its
    rows `primitive_rows` that are homogeneous and non-strict, of which each
    cone keeps the normals."""
    if not isinstance(doc, dict) or "cones" not in doc or not isinstance(doc["cones"], list):
        raise InputFormatError("fan document needs a 'cones' list")
    dims, cones = set(), []
    try:
        for raw in doc["cones"]:
            d, rows, bbox = _rows_from_json(raw)
            if bbox is not None:
                raise InputFormatError("a cone document takes no 'bbox'")
            cones.append(primitive_rows(d, rows))
            dims.add(d)
        if len(dims) > 1:
            raise ValueError("cones of mixed ambient dimension")
        if any(rel != "<=" or b != 0 for rows in cones for _a, rel, b in rows):
            raise ValueError("cone rows must be homogeneous non-strict inequalities")
        return FullDimFan(dims.pop() if dims else None,
                          [Cone(tuple(a for a, _rel, _b in rows)) for rows in cones])
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
