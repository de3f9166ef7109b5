"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: direct definitions, exhaustive
searches, textbook recursions. Slow is fine, these only run on small
instances.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from math import ceil, floor, lcm
from operator import mul

from gpcount.ehrhart import Cone, FullDimFan, HPolytope, primitive_rows
from gpcount.errors import InputFormatError, NotSubmodularError
from gpcount.hypergraph import check_heading
from gpcount.permutahedron import Face
from gpcount.polynomial import Polynomial
from gpcount.setfn import SetFn


def lagrange(points) -> list[Fraction]:
    """Coefficients, constant first and untrimmed, of the polynomial of
    degree < len(points) through the points: each Lagrange basis polynomial
    is multiplied out one node at a time in `Fraction` arithmetic."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(points)
    total = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xs[j]
                nxt[k + 1] += c
            basis = nxt
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, c in enumerate(basis):
            total[k] += scale * c
    return total


def horner(coefficients, x) -> Fraction:
    """The constant-first polynomial at x, by Horner's rule in `Fraction`
    arithmetic."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def submodular_by_definition(z) -> bool:
    """Check z(A) + z(B) >= z(A|B) + z(A&B) over every pair of subsets."""
    n = 1 << z.d
    for a in range(n):
        for b in range(a, n):
            if z.values[a] + z.values[b] < z.values[a | b] + z.values[a & b]:
                return False
    return True


def has_cycle_by_definition(h, heads) -> bool:
    """Search for a cyclic sequence of distinct edges straight from the
    definition: the head of each edge is a non-head node of the next.  A
    sequence is extended one edge at a time, only while each edge links to
    the next, and closes when its last edge links back to its first."""
    def links(p, q):
        return heads[p] in h.edges[q] and heads[p] != heads[q]

    def closes(seq):
        return links(seq[-1], seq[0]) or any(
            closes(seq + (q,)) for q in range(len(h.edges))
            if q not in seq and links(seq[-1], q))

    return any(closes((p,)) for p in range(len(h.edges)))


def brute_acyclic_headings(h) -> list:
    """Every heading in the product of the sorted edges, in that order,
    kept when `has_cycle_by_definition` finds no cycle."""
    return [heads for heads in itertools.product(*[sorted(e) for e in h.edges])
            if not has_cycle_by_definition(h, heads)]


def is_proper(h, colors) -> bool:
    """Every edge has exactly one node of maximal color."""
    if len(colors) != h.d:
        raise ValueError("one color per node required")
    for e in h.edges:
        mx = max(colors[i - 1] for i in e)
        if sum(1 for i in e if colors[i - 1] == mx) != 1:
            return False
    return True


def is_compatible(h, heads, colors) -> bool:
    """The head of every edge carries that edge's maximal color."""
    check_heading(h, heads)
    if len(colors) != h.d:
        raise ValueError("one color per node required")
    for e, head in zip(h.edges, heads):
        if colors[head - 1] != max(colors[i - 1] for i in e):
            return False
    return True


def brute_compatible_pairs(h, m: int) -> int:
    """Compatible (acyclic heading, coloring) pairs, by testing every
    acyclic heading of `brute_acyclic_headings` against all of [m]^d."""
    acyclic = brute_acyclic_headings(h)
    return sum(1 for colors in itertools.product(range(1, m + 1), repeat=h.d)
               for heads in acyclic if is_compatible(h, heads, colors))


def brute_chromatic_count(h, m: int) -> int:
    """Proper colorings of h with colors 1..m, by scanning all of [m]^d."""
    return sum(1 for colors in itertools.product(range(1, m + 1), repeat=h.d)
               if is_proper(h, colors))


def chromatic_poly_deletion_contraction(num_nodes: int, edge_list) -> Polynomial:
    """Classical chromatic polynomial of a multigraph.

    Edges are 2-element pairs; a loop forces the zero polynomial. Used only
    to check the hypergraph polynomial on graphs.
    """

    def rec(nodes, edges) -> list[int]:  # coefficients, constant first
        if not edges:
            return [0] * len(nodes) + [1]
        (u, v), rest = edges[0], edges[1:]
        if u == v:
            return []
        merged = tuple((u if a == v else a, u if b == v else b) for a, b in rest)
        return [a - b for a, b in itertools.zip_longest(
            rec(nodes, rest), rec(nodes - {v}, merged), fillvalue=0)]

    edges = tuple(tuple(sorted(e)) for e in edge_list)
    return Polynomial(tuple(rec(frozenset(range(1, num_nodes + 1)), edges)))


def _check_perm(d: int, perm) -> None:
    if sorted(perm) != list(range(1, d + 1)):
        raise ValueError(f"not a permutation of 1..{d}: {tuple(perm)}")


def greedy_vertex(z, perm) -> tuple:
    """Vertex selected by the chain {perm[0]} c {perm[0], perm[1]} c ...

    Coordinate perm[j] receives the marginal value of adding perm[j] to the
    chain prefix, in `Fraction` arithmetic.  Submodularity is required: only
    then is the resulting point guaranteed to lie in the polytope and
    maximize the chain's directions.
    """
    _check_perm(z.d, perm)
    if not z.is_submodular:
        raise NotSubmodularError("set function is not submodular")
    coords = [Fraction(0)] * z.d
    mask = 0
    for i in perm:
        prev = z.values[mask]
        mask |= 1 << (i - 1)
        coords[i - 1] = z.values[mask] - prev
    return tuple(coords)


def chain_cut_faces(P) -> dict:
    """Composition blocks -> sorted ids of the greedy vertices of the chains
    that refine the composition.  Every chain adds its `greedy_vertex` to
    each of its 2^(d-1) cuts into consecutive blocks."""
    vertex_id = {v: i for i, v in enumerate(P.vertices)}
    cuts = [tuple(zip((0,) + c, c + (P.d,)))
            for r in range(P.d) for c in itertools.combinations(range(1, P.d), r)]
    members: dict = {}
    for perm in itertools.permutations(range(1, P.d + 1)):
        vid = vertex_id[greedy_vertex(P.z, perm)]
        for cut in cuts:
            key = tuple(tuple(sorted(perm[lo:hi])) for lo, hi in cut)
            members.setdefault(key, set()).add(vid)
    return {key: tuple(sorted(ids)) for key, ids in members.items()}


def compositions(d: int) -> list:
    """Every ordered set composition of {1, ..., d}, as a tuple of sorted
    blocks listed from the largest direction value down."""
    def split(ground):
        if not ground:
            yield ()
            return
        for r in range(1, len(ground) + 1):
            for block in itertools.combinations(ground, r):
                rest = tuple(i for i in ground if i not in block)
                for tail in split(rest):
                    yield (block,) + tail

    return list(split(tuple(range(1, d + 1))))


def representative_direction(blocks) -> tuple[int, ...]:
    """An integer direction whose level sets, from the largest value down,
    are these blocks: block number l (0-based) gets #blocks - l."""
    y = [0] * sum(len(block) for block in blocks)
    for level, block in enumerate(blocks):
        for i in block:
            y[i - 1] = len(blocks) - level
    return tuple(y)


def perm_refines(perm, blocks) -> bool:
    """True when the chain of perm runs through the prefixes of blocks."""
    start = 0
    for block in blocks:
        stop = start + len(block)
        if set(perm[start:stop]) != set(block):
            return False
        start = stop
    return start == len(perm)


def comp_coarsens(coarse, fine) -> bool:
    """True when the blocks coarse arise from the blocks fine by merging
    consecutive ones."""
    pieces = iter(fine)
    for block in coarse:
        remaining = set(block)
        while remaining:
            piece = next(pieces, None)
            if piece is None or not set(piece) <= remaining:
                return False
            remaining -= set(piece)
    return next(pieces, None) is None


def integer_vertices(P) -> list[tuple[int, ...]]:
    """The vertices of P times the lcm of all their denominators, a positive
    scale, so every dot product keeps its order and its ties."""
    points = [tuple(map(Fraction, v)) for v in P.vertices]
    scale = lcm(*(c.denominator for v in points for c in v))
    return [tuple(c.numerator * (scale // c.denominator) for c in v) for v in points]


def argmax_ids(points, y) -> tuple[int, ...]:
    """Indices of the points with the largest dot product with y."""
    values = [sum(map(mul, v, y)) for v in points]
    best = max(values)
    return tuple(i for i, value in enumerate(values) if value == best)


def argmax_face(P, blocks) -> tuple[tuple[int, ...], int]:
    """Vertex ids and dimension of the face of P maximizing a direction
    whose level sets are these blocks."""
    ids = argmax_ids(integer_vertices(P), representative_direction(blocks))
    return ids, face_rank(P, ids)


def face_of_direction(P, y) -> Face:
    """The face of P maximizing the direction y, read off P's face map one
    direction at a time: the AND of ``tight`` over the upper level sets of
    y, from the largest value down."""
    if len(y) != P.d:
        raise ValueError("direction length mismatch")
    levels: dict = {}
    for i, v in enumerate(y):
        levels[v] = levels.get(v, 0) | 1 << i
    f = -1
    prefix = 0
    for v in sorted(levels, reverse=True):
        prefix |= levels[v]
        f &= P.tight[prefix]
    return Face(f, P._face_map.dims[f])


def face_rank(P, ids) -> int:
    """Dimension of the convex hull of the vertices of P with these ids: the
    rank of their differences from the first one."""
    base = P.vertices[ids[0]]
    return _rank([[c - b for c, b in zip(P.vertices[i], base)] for i in ids])


def _rank(vectors) -> int:
    """Rank by Gaussian elimination, one vector at a time against an echelon
    basis whose rows vanish at the pivot columns of the rows before them."""
    basis = []
    for v in vectors:
        v = [Fraction(c) for c in v]
        for col, row in basis:
            if v[col]:
                f = v[col] / row[col]
                v = [x - f * r for x, r in zip(v, row)]
        col = next((j for j, c in enumerate(v) if c), None)
        if col is not None:
            basis.append((col, v))
    return len(basis)


def direction_face_visits(P, m: int) -> Counter:
    """Scan every direction y in [m]^d and count, per vertex-id tuple of its
    maximal face (found by `argmax_ids`), the directions it maximizes."""
    points = integer_vertices(P)
    visits = Counter()
    for y in itertools.product(range(1, m + 1), repeat=P.d):
        visits[argmax_ids(points, y)] += 1
    return visits


def brute_lattice_points(poly, t: int):
    """Scan the whole dilated bbox with plain Fraction arithmetic, ignoring
    the library's row preprocessing."""
    ranges = [range(lo * t, hi * t + 1) for lo, hi in poly.bbox]
    for x in itertools.product(*ranges):
        if all(_row_holds(a, rel, b, x, t) for a, rel, b in poly.rows):
            yield x


def dilate_frame(poly, t: int):
    """The t-dilate as the first two items of `_scan_frame` give it, its
    rows analysed anew at this t: each row is rescaled to integers by the
    lcm of its denominators, a strict row lowers its bound t b by one and an
    equality adds the opposite row; then a zero row with a negative bound
    empties the dilate, a row in one coordinate folds into that coordinate's
    range by floor division, and the others stay as (coeffs, bound), in row
    order.  (None, None) for an empty dilate."""
    rows = []
    for a, rel, b in poly.rows:
        scale = lcm(*(v.denominator for v in (*a, b)))
        a, tb = tuple(int(c * scale) for c in a), int(b * scale) * t
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


def brute_multiplicity(fan, x) -> int:
    """Number of cones whose Fraction rows `a . x <= 0` all hold at x, their
    normals `a` read from `cone.rows` without the library's integer
    compilation."""
    return sum(1 for cone in fan.cones
               if all(_row_holds(a, "<=", 0, x, 1) for a in cone.rows))


def brute_strict_count(fan, x) -> int:
    """Number of cones whose nonzero Fraction rows `a . x <= 0` all hold
    strictly at x, read from `cone.rows`; a zero row constrains nothing."""
    return sum(1 for cone in fan.cones
               if all(_row_holds(a, "<", 0, x, 1) for a in cone.rows if any(a)))


def brute_fan_check(fan, points):
    """The message `IncompleteFanError` carries for the first of the points
    that lies in no cone or strictly inside two, tested one point at a time
    with `brute_multiplicity` and `brute_strict_count`; None if there is none."""
    for x in points:
        if brute_multiplicity(fan, x) == 0:
            return f"point {x} lies in no cone of the fan"
        strict = brute_strict_count(fan, x)
        if strict > 1:
            return f"point {x} lies strictly inside {strict} cones of the fan"
    return None


def primitive_cone(d: int, rows) -> Cone:
    """The cone of the rows `a . y <= 0` in `d` coordinates: the normals of
    their `primitive_rows`."""
    return Cone(tuple(a for a, _rel, _b in primitive_rows(d, rows)))


def brute_normal_fan(P) -> FullDimFan:
    """One closed cone per vertex v, cut out by (u - v) . y <= 0 over the
    other vertices u: the directions maximized at v, each made primitive by
    `primitive_rows` and kept as its normal."""
    cones = []
    for v in P.vertices:
        rows = tuple((tuple(uc - vc for uc, vc in zip(u, v)), "<=", Fraction(0))
                     for u in P.vertices if u != v)
        cones.append(primitive_cone(P.d, rows))
    return FullDimFan(P.d, tuple(cones))


def chain_walk_normal_fan(P) -> FullDimFan:
    """The normal fan of P read off its d! greedy chains on the integers
    `z.scaled`: along a chain, with prefix M before the adjacent pair
    (a, b), swapping a and b moves the greedy vertex by
    `z(M+a) + z(M+b) - z(M) - z(M+a+b)` times `e_b - e_a`, so where that gap
    is positive the chain's vertex gets the root row `y_b - y_a <= 0`, as its
    normal `e_b - e_a`.  One cone per vertex in sorted order, its rows in
    sorted (a, b) order."""
    d = P.d
    values = P.z.scaled[1]
    edges: dict = {}
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
        rows = tuple(tuple(1 if i == b else -1 if i == a else 0 for i in range(d))
                     for a, b in sorted(edges[v]))
        cones.append(Cone(rows))
    return FullDimFan(d, tuple(cones))


def _row_holds(a, rel, b, x, t) -> bool:
    s = sum(Fraction(c) * xi for c, xi in zip(a, x))
    bound = t * b
    if rel == "<=":
        return s <= bound
    if rel == "<":
        return s < bound
    return s == bound


def tight_sets_by_subset_sums(P) -> list[frozenset[int]]:
    """tight[S]: the set of the vertex ids v of P with v(S) = z(S), by
    summing each vertex's coordinates over every subset S in Fraction
    arithmetic."""
    tight = [set() for _ in range(1 << P.d)]
    for vid, v in enumerate(P.vertices):
        for s in range(1 << P.d):
            if sum(c for i, c in enumerate(v) if s >> i & 1) == P.z.values[s]:
                tight[s].add(vid)
    return list(map(frozenset, tight))


def with_rows(poly, extra) -> HPolytope:
    """poly with the rows of extra appended, on the same bbox."""
    return HPolytope(poly.d, poly.rows + tuple(extra), poly.bbox)


def single_point(coords) -> HPolytope:
    """The point as one equality row per coordinate."""
    coords = tuple(Fraction(c) for c in coords)
    d = len(coords)
    rows = tuple((tuple(Fraction(int(j == i)) for j in range(d)), "=", c)
                 for i, c in enumerate(coords))
    return HPolytope(d, rows, tuple((floor(c), ceil(c)) for c in coords))


_RAT_LITERAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)


def rat_by_fraction(value) -> Fraction:
    """A rational field of a document as a `Fraction`: an int that is not a
    bool, or a literal matching the rational grammar, its parts read by
    int() and handed to `Fraction`; InputFormatError for anything else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputFormatError(f"expected a rational literal, got {value!r}")
    s = value.strip()
    if not _RAT_LITERAL.match(s):
        raise InputFormatError(f"invalid rational literal: {value!r}")
    try:
        return Fraction(*map(int, s.split("/")))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _rows_by_fractions(doc) -> list:
    return [(tuple(rat_by_fraction(c) for c in row["a"]), row["rel"], rat_by_fraction(row["b"]))
            for row in doc["rows"]]


def setfn_by_fractions(doc) -> SetFn:
    """The set function of a well-formed document, its values read as
    `Fraction`s and scaled by `SetFn` through `to_integers`."""
    return SetFn(doc["d"], [rat_by_fraction(v) for v in doc["values"]])


def hpolytope_by_fractions(doc) -> HPolytope:
    """The polytope of a well-formed document, its row entries read as
    `Fraction`s and made primitive through `to_integers`."""
    return HPolytope(doc["d"], _rows_by_fractions(doc), doc["bbox"])


def fan_by_fractions(doc) -> FullDimFan:
    """The fan of a well-formed document, each cone's rows read as
    `Fraction`s and made primitive through `to_integers`, and their normals
    kept."""
    cones = doc["cones"]
    return FullDimFan(cones[0]["d"], [primitive_cone(c["d"], _rows_by_fractions(c))
                                      for c in cones])


def _row_to_json(row) -> dict:
    a, rel, b = row
    return {"a": [str(c) for c in a], "rel": rel, "b": str(b)}


def hpolytope_to_json(poly: HPolytope) -> dict:
    """The document `hpolytope_from_json` reads."""
    return {"d": poly.d, "rows": [_row_to_json(r) for r in poly.rows],
            "bbox": [[lo, hi] for lo, hi in poly.bbox]}


def fan_to_json(fan) -> dict:
    """The document `fan_from_json` reads: each cone's normals `a` as rows
    `a . y <= 0`, with the fan's d."""
    return {"cones": [{"d": fan.d, "rows": [_row_to_json((a, "<=", 0)) for a in cone.rows]}
                      for cone in fan.cones]}


def hypergraph_to_json(h, names=None) -> dict:
    """The document `hypergraph_from_json` reads: node names default to
    "1".."d", and each edge lists its names in node order."""
    if names is None:
        names = [str(i) for i in range(1, h.d + 1)]
    if len(names) != h.d:
        raise ValueError("one name per node required")
    return {
        "nodes": list(names),
        "edges": [[names[i - 1] for i in sorted(e)] for e in h.edges],
    }


def setfn_to_json(z) -> dict:
    """The document `setfn_from_json` reads."""
    return {"d": z.d, "values": [str(v) for v in z.values]}


def setfn_sum(z1, z2):
    """The set function A -> z1(A) + z2(A), whose polytope is the Minkowski
    sum of the two."""
    if z1.d != z2.d:
        raise ValueError("mismatched ground-set sizes")
    return SetFn(z1.d, tuple(a + b for a, b in zip(z1.values, z2.values)))


def relabellings(d: int, edges) -> set:
    """The edge set under each of the d! relabellings of the nodes 1..d,
    each written as its sorted tuple of sorted edge tuples."""
    return {tuple(sorted(tuple(sorted(perm[i - 1] for i in e)) for e in edges))
            for perm in itertools.permutations(range(1, d + 1))}


def canonical_form(d: int, edges) -> tuple:
    """The least of the relabellings of an edge set: two edge sets on the
    nodes 1..d are isomorphic exactly when their canonical forms are equal."""
    return min(relabellings(d, edges))


def isomorphism_classes(d: int, candidates) -> list:
    """The canonical form of each isomorphism class of the sets of distinct
    edges drawn from candidates, sorted edge tuples closed under
    relabelling, the empty set included.  Each class is relabelled once:
    every edge set met afterwards in a class already seen is skipped."""
    candidates = sorted(candidates)
    seen: set = set()
    forms = []
    for n in range(len(candidates) + 1):
        for edges in itertools.combinations(candidates, n):
            if edges not in seen:
                images = relabellings(d, edges)
                seen |= images
                forms.append(min(images))
    return forms


def all_pass(report) -> bool:
    """Every check of the report holds."""
    return report.failures == 0
