"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: direct definitions, exhaustive
searches, textbook recursions. Slow is fine, these only run on small
instances.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import ceil, floor

from gpcount.ehrhart import HPolytope
from gpcount.errors import NotSubmodularError
from gpcount.hypergraph import check_heading
from gpcount.polynomial import Polynomial
from gpcount.rational import format_rat


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


def argmax_ids(P, y) -> tuple[int, ...]:
    """Indices of the vertices of P with the largest dot product with y."""
    values = [sum(Fraction(c) * yi for c, yi in zip(v, y)) for v in P.vertices]
    best = max(values)
    return tuple(i for i, value in enumerate(values) if value == best)


def argmax_face(P, blocks) -> tuple[tuple[int, ...], int]:
    """Vertex ids and dimension of the face of P maximizing a direction
    whose level sets are these blocks."""
    ids = argmax_ids(P, representative_direction(blocks))
    return ids, face_rank(P, ids)


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
    visits = Counter()
    for y in itertools.product(range(1, m + 1), repeat=P.d):
        visits[argmax_ids(P, y)] += 1
    return visits


def brute_lattice_points(poly, t: int):
    """Scan the whole dilated bbox with plain Fraction arithmetic, ignoring
    the library's row preprocessing."""
    ranges = [range(lo * t, hi * t + 1) for lo, hi in poly.bbox]
    for x in itertools.product(*ranges):
        if all(_row_holds(a, rel, b, x, t) for a, rel, b in poly.rows):
            yield x


def brute_multiplicity(fan, x) -> int:
    """Number of cones whose Fraction rows `a . x <= 0` all hold at x, read
    from `cone.rows` without the library's integer compilation."""
    return sum(1 for cone in fan.cones
               if all(_row_holds(a, rel, b, x, 1) for a, rel, b in cone.rows))


def _row_holds(a, rel, b, x, t) -> bool:
    s = sum(Fraction(c) * xi for c, xi in zip(a, x))
    bound = t * b
    if rel == "<=":
        return s <= bound
    if rel == "<":
        return s < bound
    return s == bound


def tight_sets_by_subset_sums(P) -> list[int]:
    """tight[S]: the mask of the vertex ids v of P with v(S) = z(S), by
    summing each vertex's coordinates over every subset S in Fraction
    arithmetic."""
    tight = [0] * (1 << P.d)
    for vid, v in enumerate(P.vertices):
        for s in range(1 << P.d):
            if sum(c for i, c in enumerate(v) if s >> i & 1) == P.z.values[s]:
                tight[s] |= 1 << vid
    return tight


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


def _row_to_json(row) -> dict:
    a, rel, b = row
    return {"a": [format_rat(c) for c in a], "rel": rel, "b": format_rat(b)}


def hpolytope_to_json(poly: HPolytope) -> dict:
    """The document `hpolytope_from_json` reads."""
    doc = {"d": poly.d, "rows": [_row_to_json(r) for r in poly.rows]}
    if poly.bbox is not None:
        doc["bbox"] = [[lo, hi] for lo, hi in poly.bbox]
    return doc


def fan_to_json(fan) -> dict:
    return {"cones": [hpolytope_to_json(c) for c in fan.cones]}


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
