"""Independent expected values for the benchmark's output check.

None of this calls the program.  Closed forms cover the named documents
(standard permutahedra, boxes, simplices); small brute-force or subset-DP
counts cover the seeded ones.  Each function is cheap at the benchmark's
sizes and runs before timing starts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, comb, floor, lcm, prod


def poly_eval(coefficients, x) -> Fraction:
    """Evaluate a constant-first coefficient list of rational literals."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + Fraction(c)
    return acc


def lagrange_at(points, x) -> Fraction:
    """Value at x of the polynomial of least degree through the points."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def quasi_eval(doc: dict, t: int) -> Fraction:
    return poly_eval(doc["constituents"][t % doc["period"]], t)


def surjections(n: int, j: int) -> int:
    """Number of maps from an n-set onto a j-set."""
    return sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))


def perm_chi(d: int, k: int, m: int) -> int:
    """Directions in [m]^d whose face on the standard permutahedron has
    dimension k: exactly d-k distinct values."""
    return comb(m, d - k) * surjections(d, d - k)


def perm_f_vector(d: int) -> list[int]:
    """f_k of the standard permutahedron: ordered set partitions into d-k blocks."""
    return [surjections(d, d - k) for k in range(d)]


def edge_masks(edges) -> list[int]:
    return [sum(1 << (i - 1) for i in e) for e in edges]


def chromatic_count(d: int, edges, m: int) -> int:
    """Colorings of 1..d from {1..m} with a unique maximal color on every edge.

    Subset DP, O(3^d * m), independent of the program's coloring scan: the
    top color takes a set S of the uncolored nodes U, and every edge inside
    U may meet S at most once; edges inside U missing S stay for later.
    """
    masks = edge_masks(edges)
    full = (1 << d) - 1
    ways = {0: 1}
    for _ in range(m):
        nxt = {}
        for u in range(full + 1):
            inside = [e for e in masks if e & u == e]
            total = 0
            s = u
            while True:
                if all((e & s) & ((e & s) - 1) == 0 for e in inside):
                    total += ways.get(u & ~s, 0)
                if s == 0:
                    break
                s = (s - 1) & u
            nxt[u] = total
        ways = nxt
    return ways[full]


def is_acyclic(d: int, edges, heads) -> bool:
    succ = {i: set() for i in range(1, d + 1)}
    for e, head in zip(edges, heads):
        for u in e:
            if u != head:
                succ[u].add(head)
    state = {}

    def visit(u) -> bool:
        state[u] = 1
        for v in succ[u]:
            if state.get(v) == 1 or (v not in state and not visit(v)):
                return False
        state[u] = 2
        return True

    return all(u in state or visit(u) for u in range(1, d + 1))


def hypergraphic_vertices(d: int, edges, weights) -> set[tuple[Fraction, ...]]:
    """Vertices of the weighted hypergraphic polytope sum_e w_e * simplex(e):
    one weighted in-degree vector per acyclic heading of the distinct edges."""
    merged: dict[tuple[int, ...], int] = {}
    for e, w in zip(edges, weights):
        merged[tuple(sorted(e))] = merged.get(tuple(sorted(e)), 0) + w
    distinct = list(merged)
    out = set()
    for heads in itertools.product(*distinct):
        if is_acyclic(d, distinct, heads):
            v = [0] * d
            for e, head in zip(distinct, heads):
                v[head - 1] += merged[e]
            out.add(tuple(Fraction(c) for c in v))
    return out


def box_count(bounds, t: int, open_: bool = False) -> int:
    if open_:
        return prod(max(0, ceil(t * hi) - floor(t * lo) - 1) for lo, hi in bounds)
    return prod(max(0, floor(t * hi) - ceil(t * lo) + 1) for lo, hi in bounds)


def simplex_count(d: int, scale, t: int, open_: bool = False) -> int:
    """Integer points of t * scale * simplex (x >= 0, sum x <= t*scale)."""
    if open_:
        return comb(ceil(t * scale) - 1, d)
    return comb(floor(t * Fraction(scale)) + d, d)


def multiplicity(vertices, x) -> int:
    """Closed normal cones containing direction x: vertices maximizing x."""
    vals = [sum(a * b for a, b in zip(v, x)) for v in vertices]
    top = max(vals)
    return vals.count(top)


def cube_pruned(vertices, d: int, t: int) -> tuple[int, int]:
    """(inner count on the open t-cube, cumulative count on the closed t-cube)."""
    # Scaling every vertex by one positive integer keeps the maximizers and
    # lets the scan use integer arithmetic.
    den = lcm(*(Fraction(c).denominator for v in vertices for c in v))
    vertices = [tuple(int(Fraction(c) * den) for c in v) for v in vertices]
    inner = sum(1 for x in itertools.product(range(1, t), repeat=d)
                if multiplicity(vertices, x) == 1)
    cumulative = sum(multiplicity(vertices, x)
                     for x in itertools.product(range(t + 1), repeat=d))
    return inner, cumulative
