"""Hypergraphs with multiset edge lists: headings, acyclicity, colorings.

A heading picks one head node per edge.  Acyclicity is decided on the digraph
that points every non-head node of an edge at that edge's head; a directed
cycle there corresponds exactly to an oriented cycle of edges.  Proper
colorings (a unique maximal color on every edge) and compatible pairs (an
acyclic heading whose heads carry their edges' maximal colors) give the
counting polynomials whose reciprocity the rest of the package checks.

Acyclic headings are grown edge by edge, not filtered out of the product of
the edges: a partial heading is dropped as soon as its newest head already
reaches another node of that edge, since every completion keeps that cycle.

Both counts come from one subset DP, never from a scan of [m]^d.  From its
top color down, a coloring is an ordered partition into j blocks plus j of
m colors; block S, taken from the uncolored set U, holds the maximal color of
each edge inside U that meets it, and the edge ties when it meets S in two
nodes or more.  So a count is sum_j c[j] * binom(m, j), c[j] summing block
weight products over the j-block partitions.  Proper colorings weigh 1 for
a block without ties, else 0; compatible pairs weigh the acyclic headings of
the tie family, since arcs never descend in color and so a heading is
acyclic when each block's is.  That weight is the vertex count of the minor
on S, so the sum is the Aguiar-Ardila face count of the hypergraphic z.

The ties are read off two tables over the distinct edges with two nodes or
more, built once per Hypergraph and shared by both DPs: bad[S], the bitmask
of the edges S meets in two nodes or more, and inside[U], that of the edges
inside U.  A pair's ties are bad[S] & inside[U]; only the compatible DP turns
nonzero ties into a tie family, whose heading count it caches.

COLORING_BUDGET bounds the 3^d pairs (U, S) times the distinct edges, which
covers the 2^d-entry tables as well, and is read as the tables are built;
HEADING_BUDGET bounds the product of the edge sizes, the largest tie
family's (U = S = all nodes), and is read before the compatible DP.  So
both are read before any table or DP work, each refusing through
`errors.check_budget`, and each DP runs once per Hypergraph, which caches
its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import prod
from typing import Callable, Iterator, Sequence

from .errors import InputFormatError, check_budget
from .polynomial import Polynomial, binomial_polynomial, binomial_sum
from .setfn import SetFn, check_ground_set

HEADING_BUDGET = 10 ** 7
COLORING_BUDGET = 10 ** 7


@dataclass(frozen=True)
class Hypergraph:
    """Nodes are 1..d; edges form a multiset (duplicates and singletons allowed)."""

    d: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        edges = tuple(frozenset(e) for e in self.edges)
        for e in edges:
            if not e:
                raise ValueError("edges must be nonempty")
            if not all(isinstance(i, int) and 1 <= i <= self.d for i in e):
                raise ValueError("edge node outside 1..d")
        object.__setattr__(self, "edges", edges)

    @property
    def heading_space(self) -> int:
        return prod(len(e) for e in self.edges)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The edges as bitmasks, bit v - 1 standing for node v."""
        return tuple(sum(1 << (i - 1) for i in e) for e in self.edges)

    @cached_property
    def _tie_tables(self) -> tuple[tuple[int, ...], list[int], list[int]]:
        """The distinct edges with two nodes or more as bitmasks, the only
        edges a block can tie, bit k standing for edge k; bad[S], the edges
        that S meets in two nodes or more; inside[U], the edges contained
        in U.  COLORING_BUDGET is read first.

        S meets an edge in two nodes when S minus its lowest node v already
        meets an edge through v, and an edge lies inside U when it misses
        the complement of U, so one pass over the subsets builds both."""
        edges = tuple(sorted({mask for mask in self.masks if mask & (mask - 1)}))
        size = 3 ** self.d * max(1, len(edges))
        check_budget(size, COLORING_BUDGET, f"tie tests (3^{self.d} subset pairs times "
                     f"{len(edges)} distinct edges, at least 1)")
        through = [sum(1 << k for k, e in enumerate(edges) if e >> v & 1)
                   for v in range(self.d)]
        full = (1 << self.d) - 1
        meets, bad = [0] * (full + 1), [0] * (full + 1)
        for subset in range(1, full + 1):
            low = subset & -subset
            rest = subset ^ low
            at_low = through[low.bit_length() - 1]
            meets[subset] = meets[rest] | at_low
            bad[subset] = bad[rest] | (meets[rest] & at_low)
        every = (1 << len(edges)) - 1
        return edges, bad, [every ^ meets[full ^ u] for u in range(full + 1)]

    @cached_property
    def _proper_partitions(self) -> tuple[int, ...]:
        return _ordered_partitions(self, lambda ties, block: 0)

    @cached_property
    def _compatible_partitions(self) -> tuple[int, ...]:
        check_budget(self.heading_space, HEADING_BUDGET, "headings")
        edges = self._tie_tables[0]
        heads = cache(lambda family: sum(1 for _ in _acyclic_heads(tuple(family))))

        def weight(ties: int, block: int) -> int:
            return heads(frozenset(edges[k] & block for k in range(ties.bit_length())
                                   if ties >> k & 1))
        return _ordered_partitions(self, weight)


def check_heading(h: Hypergraph, heads: Sequence[int]) -> None:
    if len(heads) != len(h.edges):
        raise ValueError("a heading needs exactly one head per edge")
    for e, head in zip(h.edges, heads):
        if head not in e:
            raise ValueError(f"head {head} does not belong to its edge")


def hypergraphic_setfn(h: Hypergraph) -> SetFn:
    """z(T) = number of edges meeting T, counted with multiplicity."""
    check_ground_set(h.d)
    values = tuple(Fraction(sum(1 for em in h.masks if em & mask))
                   for mask in range(1 << h.d))
    return SetFn(h.d, values)


def indegree_vector(h: Hypergraph, heads: Sequence[int]) -> tuple[int, ...]:
    """Coordinate i counts the edges whose head is node i."""
    check_heading(h, heads)
    delta = [0] * h.d
    for head in heads:
        delta[head - 1] += 1
    return tuple(delta)


def _acyclic_heads(masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Acyclic headings of the edges with node bitmasks `masks`, heads tried
    in increasing node order, so the head tuples come lexicographically.

    Depth first on an explicit stack, as a recursion would be as deep as the
    edge list is long.  reach[i][v] is the bitmask of the nodes that node
    v + 1 reaches under the first i heads, itself included; heading edge i at
    `head` closes a cycle exactly when `head` reaches another node of the edge.
    """
    if not masks:
        yield ()
        return
    choices = [[v + 1 for v in range(e.bit_length()) if e >> v & 1] for e in masks]
    heads = [0] * len(masks)
    reach = [[1 << v for v in range(max(masks).bit_length())]] + [None] * len(masks)
    stack = [(0, head) for head in reversed(choices[0])]
    while stack:
        i, head = stack.pop()
        down = reach[i][head - 1]
        others = masks[i] & ~(1 << (head - 1))
        if down & others:
            continue
        heads[i] = head
        if i + 1 == len(masks):
            yield tuple(heads)
            continue
        # a node that reaches a tail of the new arcs now reaches all `head` does
        reach[i + 1] = [r | down if r & others else r for r in reach[i]]
        stack.extend((i + 1, nxt) for nxt in reversed(choices[i + 1]))


def acyclic_headings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All acyclic headings, lexicographic in the per-edge head tuples."""
    check_budget(h.heading_space, HEADING_BUDGET, "headings")
    return list(_acyclic_heads(h.masks))


def vertices_via_headings(h: Hypergraph,
                          acyclic: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """In-degree vectors of the acyclic headings (the polytope's vertex set).

    `acyclic` is `acyclic_headings(h)`; callers scan the headings once and
    pass the list on."""
    return {indegree_vector(h, s) for s in acyclic}


def _ordered_partitions(h: Hypergraph,
                        weight: Callable[[int, int], int]) -> tuple[int, ...]:
    """c[j] for j = 0..d: over the ordered partitions into j blocks, top color
    first, the sum of the products of the blocks' weights.  Block S of the
    uncolored set U ties the edges `bad[S] & inside[U]` (see `_tie_tables`);
    a block without ties weighs 1, one with ties `weight(ties, S)`.  The
    compatible weight reads the ties as the set of their meets with S: two
    edges that tie alike take one head, or they close a 2-cycle, so repeats
    change no count."""
    _, bad, inside = h._tie_tables
    full = (1 << h.d) - 1
    # a set of n nodes splits into at most n blocks
    partitions = [[0] * (u.bit_count() + 1) for u in range(full + 1)]
    partitions[0][0] = 1
    for uncolored in range(1, full + 1):
        within = inside[uncolored]
        row = partitions[uncolored]
        block = uncolored
        while block:
            ties = bad[block] & within
            w = weight(ties, block) if ties else 1
            if w:
                rest = partitions[uncolored ^ block]
                for j, count in enumerate(rest, 1):
                    row[j] += w * count
            block = (block - 1) & uncolored
    return tuple(partitions[full])


def chromatic_count(h: Hypergraph, m: int) -> int:
    """Number of proper colorings with colors drawn from {1, ..., m}: each
    j-block partition takes j of the m colors."""
    return binomial_sum(h._proper_partitions, m)


def chromatic_polynomial(h: Hypergraph) -> Polynomial:
    """sum_j c[j] * binom(m, j) in the monomial basis, exactly; no coloring
    is counted per m."""
    return binomial_polynomial(h._proper_partitions)


def compatible_pairs_count(h: Hypergraph, m: int) -> int:
    """Pairs of an acyclic heading and an m-coloring that are compatible."""
    return binomial_sum(h._compatible_partitions, m)


def hypergraph_from_json(doc: object) -> tuple[Hypergraph, tuple[str, ...]]:
    """Decode {"nodes": [...], "edges": [[...], ...]}; node names are mapped to
    1..d in input order and returned alongside the hypergraph."""
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise InputFormatError("hypergraph document needs 'nodes' and 'edges'")
    nodes, edges = doc["nodes"], doc["edges"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise InputFormatError("'nodes' must be a list of names")
    if len(set(nodes)) != len(nodes):
        raise InputFormatError("node names must be unique")
    if not nodes:
        raise InputFormatError("at least one node is required")
    index = {name: i for i, name in enumerate(nodes, start=1)}
    if not isinstance(edges, list):
        raise InputFormatError("'edges' must be a list of node-name lists")
    decoded = []
    for e in edges:
        if not isinstance(e, list) or not e or not all(isinstance(n, str) for n in e):
            raise InputFormatError("each edge must be a nonempty list of node names")
        members = set()
        for n in e:
            if n not in index:
                raise InputFormatError(f"unknown node name {n!r}")
            members.add(index[n])
        decoded.append(frozenset(members))
    return Hypergraph(len(nodes), tuple(decoded)), tuple(nodes)
