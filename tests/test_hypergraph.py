import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcount import errors
from gpcount.errors import BudgetExceededError, InputFormatError
from gpcount.generators import random_hypergraph
from gpcount.hypergraph import (
    Hypergraph,
    acyclic_headings,
    check_heading,
    chromatic_count,
    chromatic_polynomial,
    compatible_pairs_count,
    hypergraph_from_json,
    hypergraphic_setfn,
    indegree_vector,
    vertices_via_headings,
)
from gpcount.permutahedron import Face, GPerm, vertices
from oracles import (
    all_pass,
    brute_acyclic_headings,
    brute_chromatic_count,
    brute_compatible_pairs,
    chromatic_poly_deletion_contraction,
    hypergraph_to_json,
    is_compatible,
    is_proper,
    tight_sets_by_subset_sums,
)


def hg(d, *edges):
    return Hypergraph(d, tuple(frozenset(e) for e in edges))


# the 6-edge example used throughout: one triple, two pairs, three singletons
RUNNING = hg(3, {1, 2, 3}, {1, 2}, {2, 3}, {1}, {2}, {3})


def seeded_hypergraph(seed, d, fewest, most):
    """fewest..most edges of 2 to 4 of the d nodes, drawn from Random(seed)."""
    rng = random.Random(seed)
    return Hypergraph(d, tuple(frozenset(rng.sample(range(1, d + 1), rng.randint(2, 4)))
                               for _ in range(rng.randint(fewest, most))))


# beyond d = 6, where pi_6 is the largest permutahedron the face map admits:
# 96 and 150 vertices, charging 3^7 * 96 = 209 952 and 3^8 * 150 = 984 150
# face-map steps
SEVEN = seeded_hypergraph(2, 7, 6, 6)
EIGHT = seeded_hypergraph(3, 8, 5, 8)


def test_validation():
    with pytest.raises(ValueError):
        hg(3, set())
    with pytest.raises(ValueError):
        hg(3, {1, 5})
    with pytest.raises(ValueError):
        Hypergraph(0, ())
    # a bool is an int to isinstance, and True == 1 would pass the range test
    for edge in ({True, 2}, {False}, {1.0, 2}, {"1"}):
        with pytest.raises(ValueError, match="edge node must be an integer"):
            Hypergraph(2, (edge,))
    assert hg(2).edges == ()  # edgeless is fine


def test_hypergraphic_setfn():
    single = hypergraphic_setfn(hg(3, {1, 2, 3}))
    assert all(single.values[mask] == 1 for mask in range(1, 8))
    empty = hypergraphic_setfn(hg(2))
    assert empty.values == (0, 0, 0, 0)
    z = hypergraphic_setfn(RUNNING)
    assert z.values[0b010] == 4
    assert z.values[0b001] == 3
    assert z.values[0b101] == 5
    assert z.values[0b111] == 6
    assert z.is_submodular


def test_check_heading():
    check_heading(RUNNING, (1, 2, 3, 1, 2, 3))
    with pytest.raises(ValueError):
        check_heading(RUNNING, (1, 2, 3))
    with pytest.raises(ValueError):
        check_heading(RUNNING, (1, 2, 1, 1, 2, 3))  # 1 is not in {2,3}
    # each equals 1 and hashes like it, so `head in {1, 2}` holds
    h = Hypergraph(2, ({1, 2},))
    for head in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match=r"^head must be an integer in 1\.\.2, got "):
            indegree_vector(h, (head,))
        with pytest.raises(ValueError, match=r"^head must be an integer in 1\.\.2, got "):
            vertices_via_headings(h, [(2,), (head,)])
    assert indegree_vector(h, (1,)) == (1, 0)


def with_repeats(rng, h):
    """h plus up to two copies of its edges and up to two singleton edges,
    shuffled."""
    edges = list(h.edges)
    edges += [rng.choice(h.edges) for _ in range(rng.randint(0, 2))]
    edges += [frozenset({rng.randint(1, h.d)}) for _ in range(rng.randint(0, 2))]
    rng.shuffle(edges)
    return Hypergraph(h.d, tuple(edges))


def test_acyclicity_matches_direct_definition():
    # the whole ordered list against the product scan: every multiset of up
    # to 3 edges on 4 nodes, then random ones with repeated and singleton edges
    pool = [frozenset(s) for r in range(1, 5)
            for s in itertools.combinations(range(1, 5), r)]
    cases = [Hypergraph(4, combo) for count in range(1, 4)
             for combo in itertools.combinations_with_replacement(pool, count)]
    rng = random.Random(3)
    cases += [with_repeats(rng, random_hypergraph(rng, max_d=5, max_edges=3))
              for _ in range(60)]
    for h in cases:
        assert acyclic_headings(h) == brute_acyclic_headings(h)


def edge_sets(d, most):
    """Every set of up to `most` distinct edges of two nodes or more on d
    nodes, the empty set first."""
    pool = [frozenset(s) for r in range(2, d + 1)
            for s in itertools.combinations(range(1, d + 1), r)]
    return [list(combo) for count in range(most + 1)
            for combo in itertools.combinations(pool, count)]


# bounded-exhaustive: every set of 1 to 4 distinct edges of two nodes or
# more on 4 nodes
FOUR_NODE_CENSUS = [Hypergraph(4, edges) for edges in edge_sets(4, 4) if edges]


def test_acyclic_headings_census():
    # the whole ordered list of each
    assert len(FOUR_NODE_CENSUS) == 561
    for h in FOUR_NODE_CENSUS:
        assert acyclic_headings(h) == brute_acyclic_headings(h), h


def test_many_singleton_edges():
    # the heads are fixed edge by edge; a long edge list must not run out of stack
    h = hg(3, {1, 2}, *[{i % 3 + 1} for i in range(3000)])
    found = acyclic_headings(h)
    assert len(found) == 2
    assert [heads[0] for heads in found] == [1, 2]


def test_indegree_vector():
    assert indegree_vector(hg(3, {1, 2, 3}), (2,)) == (0, 1, 0)
    assert indegree_vector(hg(2), ()) == (0, 0)
    assert indegree_vector(RUNNING, (2, 1, 3, 1, 2, 3)) == (2, 2, 2)


def test_acyclic_headings_examples():
    assert acyclic_headings(hg(3, {1, 2, 3})) == [(1,), (2,), (3,)]
    assert acyclic_headings(hg(2, {1, 2})) == [(1,), (2,)]
    assert acyclic_headings(hg(2, {1, 2}, {1, 2})) == [(1, 1), (2, 2)]


def test_running_example_headings():
    found = acyclic_headings(RUNNING)
    assert len(found) == 5
    assert found == sorted(found)  # lexicographic contract
    deltas = {indegree_vector(RUNNING, s) for s in found}
    assert deltas == {(1, 2, 3), (1, 4, 1), (2, 1, 3), (3, 1, 2), (3, 2, 1)}
    assert vertices_via_headings(RUNNING, found) == deltas


def test_heading_budget(monkeypatch):
    assert RUNNING.heading_space == 12
    monkeypatch.setattr(errors, "WORK_BUDGET", 11)
    with pytest.raises(BudgetExceededError):
        acyclic_headings(RUNNING)


def test_vertex_description_examples():
    assert vertices_via_headings(hg(3, {1, 2, 3}), acyclic_headings(hg(3, {1, 2, 3}))) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert vertices_via_headings(hg(2), acyclic_headings(hg(2))) == {(0, 0)}
    assert vertices_via_headings(hg(2, {1, 2}, {1, 2}),
                                 acyclic_headings(hg(2, {1, 2}, {1, 2}))) == {(2, 0), (0, 2)}


def test_vertex_description_random():
    rng = random.Random(5)
    cases = [RUNNING] + [random_hypergraph(rng) for _ in range(15)]
    for h in cases:
        assert vertices_via_headings(h, acyclic_headings(h)) == set(vertices(hypergraphic_setfn(h)))


def test_is_proper():
    e = hg(2, {1, 2})
    assert not is_proper(e, (1, 1))
    assert is_proper(e, (1, 2))
    assert not is_proper(RUNNING, (1, 2, 2))
    assert is_proper(RUNNING, (1, 3, 2))
    with pytest.raises(ValueError):
        is_proper(e, (1,))


def test_chromatic_count_examples(monkeypatch):
    assert chromatic_count(hg(2, {1, 2}), 2) == 2
    assert chromatic_count(hg(2), 3) == 9
    assert [chromatic_count(hg(3, {1, 2, 3}), m) for m in range(1, 5)] == [0, 3, 15, 42]
    with pytest.raises(ValueError):
        chromatic_count(hg(2, {1, 2}), 0)
    # the budget bounds the DP's 3^d subset pairs, whatever m is
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 2 - 1)
    with pytest.raises(BudgetExceededError):
        chromatic_count(hg(2, {1, 2}), 10)
    with pytest.raises(BudgetExceededError):
        chromatic_polynomial(hg(2, {1, 2}))
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 2)
    assert chromatic_count(hg(2, {1, 2}), 10) == 90


def test_coloring_budget_counts_distinct_edges(monkeypatch):
    # the DP tests every distinct edge of size >= 2 at each of its 3^d pairs
    two = hg(3, {1, 2}, {2, 3})
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 3 * 2 - 1)
    with pytest.raises(BudgetExceededError):
        chromatic_count(two, 2)
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 3 * 2)
    assert chromatic_count(two, 2) == brute_chromatic_count(two, 2)
    # duplicates and singletons are dropped before the budget is read
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 3)
    assert chromatic_count(hg(3, {1, 2}, {1, 2}, {3}), 2) == 4
    assert chromatic_count(hg(3), 2) == 8


def test_coloring_budget_message_names_the_compared_size(monkeypatch):
    # an edgeless hypergraph is charged one tie test per subset pair
    monkeypatch.setattr(errors, "WORK_BUDGET", 26)
    with pytest.raises(BudgetExceededError, match=r"^27 tie tests .* budget of 26$"):
        chromatic_count(Hypergraph(3, ()), 2)


def test_chromatic_polynomial_examples():
    assert chromatic_polynomial(hg(2, {1, 2})).coefficients == (0, -1, 1)
    assert chromatic_polynomial(hg(2)).coefficients == (0, 0, 1)
    p = chromatic_polynomial(hg(3, {1, 2, 3}))
    assert p.coefficients == (0, Fraction(1, 2), Fraction(-3, 2), 1)
    assert p(5) == brute_chromatic_count(hg(3, {1, 2, 3}), 5)
    assert p(6) == brute_chromatic_count(hg(3, {1, 2, 3}), 6)


def test_chromatic_polynomial_extra_nodes():
    rng = random.Random(13)
    for _ in range(8):
        h = random_hypergraph(rng, max_d=4, max_edges=4)
        p = chromatic_polynomial(h)
        for m in (h.d + 2, h.d + 3):
            assert p(m) == brute_chromatic_count(h, m)


@st.composite
def hypergraphs(draw, max_d=5):
    """Up to 5 random edges, then repeats of some of them and singleton edges."""
    d = draw(st.integers(1, max_d))
    edges = draw(st.lists(st.frozensets(st.integers(1, d), min_size=1), max_size=5))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    edges += draw(st.lists(st.integers(1, d).map(lambda i: frozenset({i})), max_size=2))
    return Hypergraph(d, tuple(draw(st.permutations(edges))))


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_coloring_dp_matches_scan(h):
    p = chromatic_polynomial(h)
    for m in range(1, h.d + 3):
        count = brute_chromatic_count(h, m)
        assert chromatic_count(h, m) == count
        assert p(m) == count
    for m in (1, 2, 3):
        assert compatible_pairs_count(h, m) == brute_compatible_pairs(h, m)


def six_node_hypergraphs(rng, count):
    """d = 6: the whole node set, three nested edges, random edges up to 7
    distinct edges with two nodes or more, a duplicate and a singleton,
    shuffled."""
    cases = []
    for _ in range(count):
        nodes = rng.sample(range(1, 7), 6)
        edges = [frozenset(range(1, 7))] + [frozenset(nodes[:k]) for k in (2, 3, 4)]
        while len({e for e in edges if len(e) >= 2}) < 7:
            edges.append(frozenset(rng.sample(range(1, 7), rng.randint(2, 3))))
        edges += [rng.choice(edges), frozenset({rng.randint(1, 6)})]
        rng.shuffle(edges)
        cases.append(Hypergraph(6, tuple(edges)))
    return cases


def test_tie_tables_match_definitions():
    rng = random.Random(47)
    cases = [RUNNING, hg(2), hg(3, {1}, {2})] + six_node_hypergraphs(rng, 4) + \
        [with_repeats(rng, random_hypergraph(rng, max_d=5, max_edges=6)) for _ in range(10)]
    for h in cases:
        edges, bad, inside = h._tie_tables
        assert sorted(edges) == sorted({e for e in h.masks if e.bit_count() >= 2})
        assert len(bad) == len(inside) == 1 << h.d
        for s in range(1 << h.d):
            assert bad[s] == sum(1 << k for k, e in enumerate(edges)
                                 if (e & s).bit_count() >= 2)
            assert inside[s] == sum(1 << k for k, e in enumerate(edges) if e & s == e)


def test_coloring_dp_matches_scan_at_d6():
    # nested, duplicate and whole-set edges, more than 5 distinct ties
    for h in six_node_hypergraphs(random.Random(7), 3):
        p = chromatic_polynomial(h)
        for m in range(1, 5):
            count = brute_chromatic_count(h, m)
            assert chromatic_count(h, m) == count
            assert p(m) == count
        # m = 2 is the first m with more than one block
        assert compatible_pairs_count(h, 2) == brute_compatible_pairs(h, 2)


@st.composite
def graphs(draw, max_d=6):
    """Multigraphs as (d, list of node pairs); parallel edges allowed."""
    d = draw(st.integers(2, max_d))
    pair = st.lists(st.integers(1, d), min_size=2, max_size=2, unique=True)
    return d, [tuple(e) for e in draw(st.lists(pair, max_size=7))]


@settings(deadline=None)
@given(graphs())
def test_coloring_dp_matches_deletion_contraction(graph):
    d, pairs = graph
    h = Hypergraph(d, tuple(frozenset(e) for e in pairs))
    assert chromatic_polynomial(h) == chromatic_poly_deletion_contraction(d, pairs)


def test_coloring_direction_dictionary():
    rng = random.Random(17)
    cases = [RUNNING] + [random_hypergraph(rng, max_d=4, max_edges=4) for _ in range(6)]
    for h in cases:
        P = GPerm(hypergraphic_setfn(h))
        for m in range(1, 4):
            assert chromatic_count(h, m) == P.chi_count(0, m)


def test_is_compatible():
    e = hg(2, {1, 2})
    assert is_compatible(e, (2,), (1, 2))
    assert not is_compatible(e, (1,), (1, 2))
    assert is_compatible(RUNNING, (1, 1, 2, 1, 2, 3), (2, 2, 2))  # constant coloring


def test_compatible_pairs_examples():
    assert compatible_pairs_count(hg(2, {1, 2}), 1) == 2
    assert compatible_pairs_count(hg(3, {1, 2, 3}), 1) == 3
    assert compatible_pairs_count(hg(2), 2) == 4
    with pytest.raises(ValueError):
        compatible_pairs_count(hg(2), 0)


def test_compatible_pairs_match_scan():
    rng = random.Random(29)
    cases = [RUNNING] + [with_repeats(rng, random_hypergraph(rng, max_d=4, max_edges=3))
                         for _ in range(25)]
    for h in cases:
        for m in (1, 2, 3):
            assert compatible_pairs_count(h, m) == brute_compatible_pairs(h, m)


def test_compatible_pairs_census_on_three_nodes():
    # every set of distinct edges of two nodes or more on 3 nodes, and each
    # with one of its edges doubled: tie families of one edge, of one edge
    # twice, and of several; m = 1..d+1 pins every coefficient of the count
    sets = edge_sets(3, 4)
    cases = ([Hypergraph(3, edges) for edges in sets]
             + [Hypergraph(3, edges + [edge]) for edges in sets for edge in edges])
    assert len(cases) == 16 + 32
    for h in cases:
        for m in range(1, h.d + 2):
            assert compatible_pairs_count(h, m) == brute_compatible_pairs(h, m), (h, m)


def test_compatible_pairs_census():
    # m = 2, the first m with more than one block, on the 561 hypergraphs
    # of the heading census
    for h in FOUR_NODE_CENSUS:
        assert compatible_pairs_count(h, 2) == brute_compatible_pairs(h, 2), h


def test_compatible_pairs_budgets(monkeypatch):
    # the work budget bounds the DP's 3^d pairs times its distinct edges,
    # whatever m is, and then the product of the edge sizes, the tie family
    # of the one-block partition; fresh hypergraphs, as each caches its table
    assert compatible_pairs_count(hg(2), 10 ** 4) == 10 ** 8
    # RUNNING: 81 tie tests, 12 headings
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 3 * 3 - 1)
    with pytest.raises(BudgetExceededError, match="^81 tie tests"):
        compatible_pairs_count(Hypergraph(3, RUNNING.edges), 1)
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 3 * 3)
    assert compatible_pairs_count(Hypergraph(3, RUNNING.edges), 10) == \
        brute_compatible_pairs(RUNNING, 10)
    # ten copies of {1, 2, 3}: 27 tie tests, 3^10 headings; only the
    # headings that give every copy one head are acyclic, as for one copy
    tens = (frozenset({1, 2, 3}),) * 10
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 10 - 1)
    with pytest.raises(BudgetExceededError, match="^59049 headings"):
        compatible_pairs_count(Hypergraph(3, tens), 1)
    monkeypatch.setattr(errors, "WORK_BUDGET", 3 ** 10)
    assert compatible_pairs_count(Hypergraph(3, tens), 10) == \
        brute_compatible_pairs(hg(3, {1, 2, 3}), 10)


def test_reciprocity_identities():
    rng = random.Random(37)
    cases = [RUNNING] + [random_hypergraph(rng, max_d=4, max_edges=4) for _ in range(6)]
    for h in cases:
        p = chromatic_polynomial(h)
        sign = (-1) ** h.d
        P = GPerm(hypergraphic_setfn(h))
        for m in (1, 2):
            pairs = compatible_pairs_count(h, m)
            assert sign * p(-m) == pairs
            assert pairs == P.reciprocity_rhs(0, m)
        assert sign * p(-1) == len(acyclic_headings(h))


@pytest.mark.parametrize("h", [SEVEN, EIGHT], ids=["d7", "d8"])
def test_seven_and_eight_nodes(h):
    # the face map, the coloring DP and a scan of [m]^d agree past d = 6
    P = GPerm(hypergraphic_setfn(h))
    for m in (1, 2, 3):
        assert P.chi_count(0, m) == chromatic_count(h, m) == brute_chromatic_count(h, m)
        assert P.reciprocity_rhs(0, m) == compatible_pairs_count(h, m)
    for k in range(h.d):
        assert all_pass(P.verify_reciprocity(k, 3)[1])
    if h is EIGHT:  # id sets per S, each read off its mask as a face's ids
        assert [frozenset(Face(t, 0).vertex_ids) for t in P.tight] == \
            tight_sets_by_subset_sums(P)


def test_graph_specialization():
    # on ordinary graphs the polynomial is the classical chromatic polynomial
    triangle = hg(3, {1, 2}, {1, 3}, {2, 3})
    assert chromatic_polynomial(triangle).coefficients == (0, 2, -3, 1)
    rng = random.Random(41)
    for _ in range(10):
        d = rng.randint(2, 5)
        edges = [frozenset(rng.sample(range(1, d + 1), 2))
                 for _ in range(rng.randint(1, 6))]
        h = Hypergraph(d, tuple(edges))
        oracle = chromatic_poly_deletion_contraction(d, [tuple(sorted(e)) for e in edges])
        assert chromatic_polynomial(h) == oracle


def test_singleton_edges_are_inert():
    rng = random.Random(43)
    for _ in range(6):
        h = random_hypergraph(rng, max_d=4, max_edges=3)
        i = rng.randint(1, h.d)
        extended = Hypergraph(h.d, h.edges + (frozenset({i}),))
        base = acyclic_headings(h)
        ext = acyclic_headings(extended)
        assert len(ext) == len(base)
        assert [s[:-1] for s in ext] == base
        shifted = {indegree_vector(extended, s) for s in ext}
        expected = set()
        for s in base:
            delta = list(indegree_vector(h, s))
            delta[i - 1] += 1
            expected.add(tuple(delta))
        assert shifted == expected
        # proper colorings ignore singleton edges entirely
        assert chromatic_polynomial(extended) == chromatic_polynomial(h)


def test_json_round_trip():
    doc = {
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b", "c"], ["a", "b"], ["b", "c"], ["a"], ["b"], ["c"]],
    }
    h, names = hypergraph_from_json(doc)
    assert h == RUNNING
    assert names == ("a", "b", "c")
    assert hypergraph_to_json(h, names) == doc
    assert hypergraph_to_json(hg(2, {1, 2}))["nodes"] == ["1", "2"]


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": []},
        {"nodes": ["a", "a"], "edges": []},
        {"nodes": ["a"], "edges": [["b"]]},
        {"nodes": ["a"], "edges": [[]]},
        {"nodes": [], "edges": []},
        {"nodes": ["a"], "edges": "ab"},
        42,
    ],
)
def test_json_rejects(doc):
    with pytest.raises(InputFormatError):
        hypergraph_from_json(doc)
