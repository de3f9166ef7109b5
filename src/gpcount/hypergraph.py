"""Hypergraphs with multiset edge lists: headings, acyclicity, colorings.

A heading picks one head node per edge.  Acyclicity is decided on the digraph
that points every non-head node of an edge at that edge's head; a directed
cycle there corresponds exactly to an oriented cycle of edges.  Proper
colorings (a unique maximal color on every edge) and compatible pairs (an
acyclic heading whose heads carry their edges' maximal colors) give the
counting polynomials whose reciprocity the rest of the package checks.

Acyclic headings are grown edge by edge, not filtered out of the product of
the edges: a head is tested before it joins a partial heading, and one that
already reaches another node of its edge is never taken, since every
completion would keep that cycle.  So the enumerator only ever holds
acyclic partial headings, and `acyclic_headings` and the compatible DP
share it.  A partial heading's reach table is one int, a field of bits per
node, so testing a head is one shift and mask and pushing one takes a few
whole-table int operations, with no per-node list.

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
nonzero ties into a tie family, whose heading count it caches.  A family of
one edge is not enumerated: each of the edge's nodes in S can head it, and
one edge closes no cycle, so it weighs the number of those nodes.

Every guard here charges `errors.WORK_BUDGET`: the tables charge the 3^d
pairs (U, S) times the distinct edges, which covers their 2^d entries as
well, before they are built; the compatible DP and `acyclic_headings`
charge the product of the edge sizes, the largest tie family's
(U = S = all nodes), times the 64-bit words of a reach table, which each
head test reads whole, before they start.  So the budget is read before any
table or DP work, each guard refusing through `errors.check_budget`, and
each DP runs once per Hypergraph, which caches its result.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from . import errors
from .errors import InputFormatError, check_budget, require_integer
from .polynomial import Polynomial, binomial_polynomial, binomial_sum
from .setfn import MAX_GROUND_SET, SetFn
from .value import Frozen


class Hypergraph(Frozen):
    """Nodes are 1..d; edges form a multiset (duplicates and singletons allowed)."""

    _fields = ("d", "edges")
    d: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, d: int, edges: Sequence[Iterable[int]]):
        require_integer("d", d, 1)
        edges = tuple(frozenset(e) for e in edges)
        for e in edges:
            if not e:
                raise ValueError("edges must be nonempty")
            for i in e:
                require_integer("edge node", i, 1, d)
        object.__setattr__(self, "d", d)
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
        in U.  Their size is charged to the work budget first.

        S meets an edge in two nodes when S minus its lowest node v already
        meets an edge through v, and an edge lies inside U when it misses
        the complement of U, so one pass over the subsets builds both."""
        edges = tuple(sorted({mask for mask in self.masks if mask & (mask - 1)}))
        size = 3 ** self.d * max(1, len(edges))
        check_budget(size, errors.WORK_BUDGET,
                     "tie tests (3^{} subset pairs times {} distinct edges, at least 1)",
                     self.d, len(edges))
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
        _check_heading_budget(self)
        edges = self._tie_tables[0]
        heads = cache(lambda family: sum(1 for _ in _acyclic_heads(tuple(family))))

        def weight(ties: int, block: int) -> int:
            if not ties & (ties - 1):  # one edge: any of its nodes in the block heads it
                return (edges[ties.bit_length() - 1] & block).bit_count()
            return heads(frozenset(edges[k] & block for k in range(ties.bit_length())
                                   if ties >> k & 1))
        return _ordered_partitions(self, weight)


def check_heading(h: Hypergraph, heads: Sequence[int]) -> None:
    if len(heads) != len(h.edges):
        raise ValueError("a heading needs exactly one head per edge")
    for e, head in zip(h.edges, heads):
        if type(head) is not int:  # True, 1.0 and Fraction(1) are all `in` {1, 2}
            require_integer("head", head, 1, h.d)
        if head not in e:
            raise ValueError(f"head {head} does not belong to its edge")


def hypergraphic_setfn(h: Hypergraph) -> SetFn:
    """z(T) = number of edges meeting T, counted with multiplicity."""
    require_integer("ground-set size", h.d, 1, MAX_GROUND_SET)
    masks = h.masks
    return SetFn._from_integers(h.d, 1, [sum(1 for em in masks if em & mask)
                                         for mask in range(1 << h.d)])


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
    edge list is long.  A stack entry `(i, head, reach)` heads edge i at
    `head`, and `reach` is the reach table under the heads of edges 0..i,
    packed in one int: over the n nodes up to the highest one of any edge,
    field v, of w = n + 1 bits at bit w * v, holds the bitmask of the nodes
    that node v + 1 reaches, itself included, and its top bit stays 0.
    Each edge's options `(head, shift, others)` are listed once: `others` is
    its mask without the head and `shift` the place of the head's field.
    Heading the next edge at `head` closes a cycle exactly when `head`
    reaches one of its `others`, so each option is tested against its
    parent's table before it is pushed, and only acyclic partial headings
    are ever pushed, in reverse so that they pop in order.  A pushed table
    adds the field `down` of the head to every field that meets the edge:
    with the edge copied into every field (`spreads`), adding 2^n - 1 to
    each field's meet sets its top bit exactly when the meet is not empty,
    with no carry out of the field, so `hit` holds a 1 at bit w * v for each
    such field v and `hit * down` copies `down` into those fields alone.  A
    field that meets the edge only at `head` already holds `down`, so one
    `hit` serves every head of the edge.  An edge of one node adds no arc
    and hands its parent's table on, so a run of them costs no table work.
    The last edge's heads are tested and yielded in a loop.  Each head test
    and push reads the whole table, n * w bits, which `acyclic_headings`
    and the compatible DP charge to the budget (`_check_heading_budget`).
    """
    if not masks:
        yield ()
        return
    n = max(masks).bit_length()
    w = n + 1
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # bit 0 of every field
    high = ones << n  # the top bit of every field
    carry = high - ones  # 2^n - 1 in every field
    field = (1 << n) - 1
    options = [[(v + 1, w * v, e ^ 1 << v) for v in range(e.bit_length()) if e >> v & 1]
               for e in masks]
    spreads = [ones * e if e & (e - 1) else 0 for e in masks[:-1]]
    last = len(masks) - 1
    heads = [0] * len(masks)
    # the root heads no edge, each node reaching itself: bit v of field v, at
    # bit (w + 1) * v; its write to heads[-1] is overwritten below
    stack = [(-1, 0, ((1 << (w + 1) * n) - 1) // ((1 << w + 1) - 1))]
    while stack:
        i, head, reach = stack.pop()
        heads[i] = head
        i += 1
        if i == last:
            for head, shift, others in options[i]:
                if not reach >> shift & others:
                    heads[i] = head
                    yield tuple(heads)
            continue
        spread = spreads[i]
        if not spread:  # one node: no arc, no cycle
            stack.append((i, options[i][0][0], reach))
            continue
        # a node that reaches a node of the edge now reaches all its head does
        hit = ((reach & spread) + carry & high) >> n
        for head, shift, others in reversed(options[i]):
            down = reach >> shift & field
            if not down & others:
                stack.append((i, head, reach | hit * down))


def acyclic_headings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All acyclic headings, lexicographic in the per-edge head tuples."""
    _check_heading_budget(h)
    return list(_acyclic_heads(h.masks))


def _check_heading_budget(h: Hypergraph) -> None:
    """Charge the headings of h: the product of the edge sizes, each heading
    tested on a reach table of n * (n + 1) bits (see `_acyclic_heads`),
    counted in 64-bit words, at least 1."""
    n = max(h.masks, default=0).bit_length()
    words = max(1, -(-n * (n + 1) // 64))
    check_budget(h.heading_space * words, errors.WORK_BUDGET,
                 "headings by table word ({} headings times {}-word reach tables)",
                 h.heading_space, words)


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
