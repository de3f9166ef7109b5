"""Hypergraphs with multiset edge lists: headings, acyclicity, colorings.

A heading picks one head node per edge.  Acyclicity is decided on the digraph
that points every non-head node of an edge at that edge's head; a directed
cycle there corresponds exactly to an oriented cycle of edges.  Proper
colorings (a unique maximal color on every edge) and heading/coloring
compatibility give the counting polynomials whose reciprocity the rest of the
package checks.

Acyclic headings are grown edge by edge, not filtered out of the product of
the edges: a partial heading is dropped as soon as its newest head already
reaches another node of that edge, since every completion keeps that cycle.
One enumerator lists the acyclic headings and counts the compatible pairs
(head choices per coloring: each edge's max-colored nodes).

Proper colorings are counted through their color classes, not by scanning
[m]^d.  Reading a proper coloring from its top color down gives an ordered
partition (S_1, ..., S_j) of the nodes into nonempty blocks in which every
edge meets the first block it touches in exactly one node; conversely each
such partition and each choice of j colors out of m give one coloring.  So
the count is sum_j c[j] * binom(m, j), where c[j] counts those partitions
with j blocks, and one subset DP over (uncolored set, next block) pairs
finds every c[j] at once, in O(3^d * d) steps whatever m is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .errors import BudgetExceededError, InputFormatError
from .polynomial import Polynomial, interpolate
from .setfn import SetFn

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
        n = 1
        for e in self.edges:
            n *= len(e)
        return n


def check_heading(h: Hypergraph, heads: Sequence[int]) -> None:
    if len(heads) != len(h.edges):
        raise ValueError("a heading needs exactly one head per edge")
    for e, head in zip(h.edges, heads):
        if head not in e:
            raise ValueError(f"head {head} does not belong to its edge")


def hypergraphic_setfn(h: Hypergraph) -> SetFn:
    """z(T) = number of edges meeting T, counted with multiplicity."""
    masks = [sum(1 << (i - 1) for i in e) for e in h.edges]
    values = tuple(Fraction(sum(1 for em in masks if em & mask))
                   for mask in range(1 << h.d))
    return SetFn(h.d, values)


def indegree_vector(h: Hypergraph, heads: Sequence[int]) -> tuple[int, ...]:
    """Coordinate i counts the edges whose head is node i."""
    check_heading(h, heads)
    delta = [0] * h.d
    for head in heads:
        delta[head - 1] += 1
    return tuple(delta)


def _acyclic_heads(h: Hypergraph,
                   choices: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Acyclic headings whose edge i takes its head from `choices[i]`, in
    lexicographic order when each list is sorted.

    Depth first on an explicit stack, as a recursion would be as deep as the
    edge list is long.  reach[i][v] is the bitmask of the nodes that node
    v + 1 reaches under the first i heads, itself included; heading edge i at
    `head` closes a cycle exactly when `head` reaches another node of the edge.
    """
    if not choices:
        yield ()
        return
    masks = [sum(1 << (i - 1) for i in e) for e in h.edges]
    heads = [0] * len(choices)
    reach = [[1 << v for v in range(h.d)]] + [None] * len(choices)
    stack = [(0, head) for head in reversed(choices[0])]
    while stack:
        i, head = stack.pop()
        down = reach[i][head - 1]
        others = masks[i] & ~(1 << (head - 1))
        if down & others:
            continue
        heads[i] = head
        if i + 1 == len(choices):
            yield tuple(heads)
            continue
        # a node that reaches a tail of the new arcs now reaches all `head` does
        reach[i + 1] = [r | down if r & others else r for r in reach[i]]
        stack.extend((i + 1, nxt) for nxt in reversed(choices[i + 1]))


def acyclic_headings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All acyclic headings, lexicographic in the per-edge head tuples."""
    if h.heading_space > HEADING_BUDGET:
        raise BudgetExceededError(
            f"{h.heading_space} headings exceed the budget of {HEADING_BUDGET}")
    return list(_acyclic_heads(h, [sorted(e) for e in h.edges]))


def vertices_via_headings(h: Hypergraph,
                          acyclic: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """In-degree vectors of the acyclic headings (the polytope's vertex set).

    `acyclic` is `acyclic_headings(h)`; callers scan the headings once and
    pass the list on."""
    return {indegree_vector(h, s) for s in acyclic}


def _color_class_counts(h: Hypergraph) -> list[int]:
    """c[j] for j = 0..d: ordered partitions (S_1, ..., S_j) of the nodes into
    nonempty blocks, S_1 the top color, such that every edge meets the first
    block it touches in exactly one node.

    The DP peels blocks from the top: a block S may be taken from the
    uncolored set U when every edge inside U meets S in at most one node.  It
    visits each of the 3^d pairs S <= U once and tests at most every distinct
    edge at each, so COLORING_BUDGET bounds 3^d times the number of distinct
    edges (at least 1) before any work.
    """
    # duplicate edges constrain alike and singletons never tie
    masks = {sum(1 << (i - 1) for i in e) for e in h.edges if len(e) > 1}
    steps = 3 ** h.d * max(1, len(masks))
    if steps > COLORING_BUDGET:
        raise BudgetExceededError(
            f"3^{h.d} subset pairs times {len(masks)} distinct edges exceed "
            f"the coloring budget of {COLORING_BUDGET}")
    full = (1 << h.d) - 1
    partitions = [[0] * (h.d + 1) for _ in range(full + 1)]
    partitions[0][0] = 1
    for uncolored in range(1, full + 1):
        inside = [e for e in masks if e & uncolored == e]
        row = partitions[uncolored]
        block = uncolored
        while block:
            if all((e & block) & ((e & block) - 1) == 0 for e in inside):
                rest = partitions[uncolored ^ block]
                for j, n in enumerate(rest[:-1]):
                    row[j + 1] += n
            block = (block - 1) & uncolored
    return partitions[full]


def _colorings_from_classes(counts: Sequence[int], m: int) -> int:
    """sum_j c[j] * binom(m, j): each j-class partition takes j of m colors."""
    return sum(n * comb(m, j) for j, n in enumerate(counts))


def chromatic_count(h: Hypergraph, m: int) -> int:
    """Number of proper colorings with colors drawn from {1, ..., m}."""
    if m < 1:
        raise ValueError("m must be positive")
    return _colorings_from_classes(_color_class_counts(h), m)


def chromatic_polynomial(h: Hypergraph) -> Polynomial:
    """sum_j c[j] * binom(m, j) in the monomial basis, exactly.

    The DP runs once; `interpolate` only changes basis, through the d + 1
    values of that sum at m = 0..d, so no coloring is counted per m."""
    counts = _color_class_counts(h)
    return interpolate([(m, _colorings_from_classes(counts, m))
                        for m in range(h.d + 1)])


def compatible_pairs_count(h: Hypergraph, m: int) -> int:
    """Pairs of an acyclic heading and an m-coloring that are compatible.

    Per coloring only the max-colored head choices are grown into acyclic
    headings; the coloring grid observes the coloring budget and each
    per-coloring heading product the heading budget.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m ** h.d > COLORING_BUDGET:
        raise BudgetExceededError(
            f"{m}^{h.d} colorings exceed the budget of {COLORING_BUDGET}")
    total = 0
    for colors in itertools.product(range(1, m + 1), repeat=h.d):
        per_edge = []
        space = 1
        for e in h.edges:
            mx = max(colors[i - 1] for i in e)
            choice = [i for i in sorted(e) if colors[i - 1] == mx]
            per_edge.append(choice)
            space *= len(choice)
        if space > HEADING_BUDGET:
            raise BudgetExceededError(
                f"{space} candidate headings exceed the budget of {HEADING_BUDGET}")
        total += sum(1 for _ in _acyclic_heads(h, per_edge))
    return total


def hypergraph_to_json(h: Hypergraph, names: Sequence[str] | None = None) -> dict:
    if names is None:
        names = [str(i) for i in range(1, h.d + 1)]
    if len(names) != h.d:
        raise ValueError("one name per node required")
    return {
        "nodes": list(names),
        "edges": [[names[i - 1] for i in sorted(e)] for e in h.edges],
    }


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
