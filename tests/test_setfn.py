import itertools
import random
from fractions import Fraction

import pytest

from gpcount.errors import InputFormatError, NotSubmodularError
from gpcount.generators import random_hypergraph, random_hypergraphic_setfn
from gpcount.hypergraph import Hypergraph, hypergraphic_setfn
from gpcount.permutahedron import vertices
from gpcount.rational import to_integers
from gpcount.setfn import (
    SetFn,
    setfn_from_json,
    setfn_from_vertices,
    standard_perm_setfn,
)
from oracles import (
    compositions,
    greedy_vertex,
    perm_refines,
    representative_direction,
    setfn_sum,
    setfn_to_json,
    submodular_by_definition,
)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def edge_fn(d, *edges):
    return hypergraphic_setfn(Hypergraph(d, tuple(frozenset(e) for e in edges)))


def test_standard_values():
    assert standard_perm_setfn(1).values == (0, 1)
    assert standard_perm_setfn(2).values == (0, 2, 2, 3)
    z3 = standard_perm_setfn(3)
    by_size = {1: 3, 2: 5, 3: 6}
    for mask in range(1, 8):
        assert z3.values[mask] == by_size[mask.bit_count()]
    assert z3.is_submodular


def test_setfn_validation():
    # from values and from integers over a scale, with the same messages
    for build in (SetFn, lambda d, ints: SetFn._from_integers(d, 1, ints)):
        with pytest.raises(ValueError, match="the empty set must map to 0"):
            build(2, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="need 4 values, got 3"):
            build(2, (0, 1, 1))
        with pytest.raises(ValueError, match="ground-set size must be in 1..8"):
            build(0, ())
        with pytest.raises(ValueError, match="ground-set size must be in 1..8"):
            build(9, (0,) * 512)
    for build in (standard_perm_setfn,
                  lambda d: hypergraphic_setfn(Hypergraph(d, ({1, d},))),
                  lambda d: setfn_from_vertices([(1,) * d])):
        with pytest.raises(ValueError, match="ground-set size must be in 1..8"):
            build(9)


def test_setfn_float_values():
    # 0.1 would be its binary fraction 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="non-integral float"):
        SetFn(1, (0, 0.1))
    assert SetFn(2, (0, 2.0, 2, 3.0)).values == (0, 2, 2, 3)


def test_setfn_str_and_bool_values_refused():
    # "0.1" would be 1/10 through Fraction's wider grammar, which documents
    # refuse, and True would be 1
    for values in ((0, "0.1"), (0, "1"), (0, True), (False, 1)):
        with pytest.raises(ValueError, match="not an exact rational"):
            SetFn(1, values)


def test_is_submodular_examples():
    assert SetFn(2, (0, 2, 2, 3)).is_submodular
    assert not SetFn(2, (0, 0, 0, 1)).is_submodular
    assert SetFn(2, (0, 1, 1, 1)).is_submodular  # single-edge function


def test_local_criterion_matches_definition():
    rng = random.Random(42)
    verdicts = set()
    for _ in range(200):
        d = rng.randint(2, 4)
        values = (0,) + tuple(
            Fraction(rng.randint(-4, 8), rng.choice([1, 1, 2, 3, 4, 5, 6, 7]))
            for _ in range((1 << d) - 1))
        z = SetFn(d, values)
        assert z.is_submodular == submodular_by_definition(z)
        verdicts.add(z.is_submodular)
    assert verdicts == {True, False}  # the sample exercises both branches


def test_local_criterion_finds_each_raised_value():
    # pi_d has slack 1 in every local inequality; raising z(S) by 2 breaks
    # exactly those with A | i | j = S, one (A = {}) when S is a pair and
    # the top masks A = [d] - i - j when S = [d], so the pairwise loop
    # must reach every pair at every mask
    for d in range(2, 6):
        base = standard_perm_setfn(d).values
        assert SetFn(d, base).is_submodular
        for s in range(1 << d):
            if s.bit_count() < 2:
                continue
            z = SetFn(d, tuple(v + 2 if mask == s else v for mask, v in enumerate(base)))
            assert not z.is_submodular
            assert not submodular_by_definition(z)


def test_scaled():
    z = SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    assert z.scaled == (12, (0, 6, 8, 9))
    assert z.is_submodular  # 6 + 8 >= 9 + 0 on the integers
    assert SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(7, 6))).is_submodular  # 7 >= 7
    assert not SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(4, 3))).is_submodular
    assert standard_perm_setfn(2).scaled == (1, (0, 2, 2, 3))
    assert SetFn(1, (0, Fraction(-3, 4))).scaled == (4, (0, -3))


def edges_meeting(h):
    """z(T) = the number of edges meeting T, from the edges' node sets."""
    return tuple(Fraction(sum(1 for e in h.edges if any(mask >> (i - 1) & 1 for i in e)))
                 for mask in range(1 << h.d))


def assert_same_value(z, d, values):
    # an integer-built z is the set function of its values in every respect
    # the package reads: fields, equality both ways, hash, repr and `scaled`
    same = SetFn(d, values)
    assert z.d == d and z.values == tuple(values)
    assert all(type(v) is Fraction for v in z.values)
    assert z == same and same == z and not z != same
    assert hash(z) == hash(same)
    assert repr(z) == repr(same)
    assert z.scaled == same.scaled == to_integers(values)
    assert len({z, same}) == 1


def test_integer_built_setfns_equal_their_values():
    rng = random.Random(13)
    for _ in range(8):
        h = random_hypergraph(rng, max_d=6, max_edges=5)
        assert_same_value(hypergraphic_setfn(h), h.d, edges_meeting(h))
    for d in range(1, 5):
        # z(A) = d + (d-1) + ... + (d-|A|+1)
        want = [sum(range(d, d - mask.bit_count(), -1)) for mask in range(1 << d)]
        assert_same_value(standard_perm_setfn(d), d, want)
    # the subset-sum maxima over a vertex set, with Fraction coordinates
    pts = [(Fraction(1, 2), Fraction(3, 4), -1), (Fraction(-1, 6), 1, Fraction(-7, 12))]
    want = [max(sum(p[i] for i in range(3) if mask >> i & 1) for p in pts)
            for mask in range(8)]
    assert_same_value(setfn_from_vertices(pts), 3, want)
    # an unreduced pair: every int even over scale 2, and a common factor 3
    # of the ints and the scale 6
    assert_same_value(SetFn._from_integers(2, 2, (0, 4, 6, 8)), 2, (0, 2, 3, 4))
    z = SetFn._from_integers(2, 6, (0, 3, 9, -12))
    assert z.scaled == (2, (0, 1, 3, -4))
    assert_same_value(z, 2, (0, Fraction(1, 2), Fraction(3, 2), -2))


def test_greedy_vertex_examples():
    z3 = standard_perm_setfn(3)
    assert greedy_vertex(z3, (1, 2, 3)) == (3, 2, 1)
    assert greedy_vertex(z3, (3, 1, 2)) == (2, 1, 3)
    zero = SetFn(2, (0, 0, 0, 0))
    assert greedy_vertex(zero, (2, 1)) == (0, 0)
    single = edge_fn(3, {1, 2, 3})
    assert greedy_vertex(single, (2, 1, 3)) == (0, 1, 0)


def test_greedy_vertex_rejects():
    with pytest.raises(NotSubmodularError):
        greedy_vertex(SetFn(2, (0, 0, 0, 1)), (1, 2))
    with pytest.raises(ValueError):
        greedy_vertex(standard_perm_setfn(3), (1, 2, 2))
    with pytest.raises(ValueError):
        greedy_vertex(standard_perm_setfn(3), (1, 2))


def test_greedy_membership():
    # every greedy point obeys all subset constraints, with equality on its chain
    rng = random.Random(7)
    cases = [standard_perm_setfn(4)]
    cases += [random_hypergraphic_setfn(rng, max_d=4) for _ in range(8)]
    for z in cases:
        for perm in itertools.permutations(range(1, z.d + 1)):
            x = greedy_vertex(z, perm)
            for mask in range(1 << z.d):
                s = sum(x[i] for i in range(z.d) if mask >> i & 1)
                assert s <= z.values[mask]
            chain = 0
            for i in perm:
                chain |= 1 << (i - 1)
                s = sum(x[i - 1] for i in range(1, z.d + 1) if chain >> (i - 1) & 1)
                assert s == z.values[chain]
            assert sum(x) == z.values[(1 << z.d) - 1]


def test_greedy_optimality():
    # the greedy point of any refining chain maximizes the block direction
    rng = random.Random(11)
    cases = [standard_perm_setfn(3), standard_perm_setfn(5)]
    cases += [random_hypergraphic_setfn(rng, max_d=4) for _ in range(5)]
    for z in cases:
        perms = list(itertools.permutations(range(1, z.d + 1)))
        points = {perm: greedy_vertex(z, perm) for perm in perms}
        for comp in compositions(z.d):
            y = representative_direction(comp)
            best = max(dot(y, points[perm]) for perm in perms)
            for perm in perms:
                if perm_refines(perm, comp):
                    assert dot(y, points[perm]) == best


def test_setfn_sum():
    z = standard_perm_setfn(2)
    zero = SetFn(2, (0, 0, 0, 0))
    assert setfn_sum(z, zero) == z
    combined = setfn_sum(setfn_sum(edge_fn(2, {1, 2}), edge_fn(2, {1})), edge_fn(2, {2}))
    assert combined == standard_perm_setfn(2)
    doubled = setfn_sum(edge_fn(2, {1, 2}), edge_fn(2, {1, 2}))
    assert doubled.values == (0, 2, 2, 2)
    with pytest.raises(ValueError):
        setfn_sum(standard_perm_setfn(2), standard_perm_setfn(3))


def test_minkowski_vertices():
    # vertex set of a sum is the greedy image of the summed function
    a = edge_fn(2, {1, 2})
    b = standard_perm_setfn(2)
    assert vertices(setfn_sum(a, b)) == ((1, 3), (3, 1))
    assert set(vertices(setfn_sum(a, a))) == {(2, 0), (0, 2)}


def test_setfn_from_vertices_examples():
    assert setfn_from_vertices([(1, 1)]).values == (0, 1, 1, 2)
    assert setfn_from_vertices([(1, 0), (0, 1)]) == edge_fn(2, {1, 2})
    perms = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    assert setfn_from_vertices(perms) == standard_perm_setfn(3)


def test_setfn_from_vertices_rejects():
    with pytest.raises(ValueError):
        setfn_from_vertices([])
    with pytest.raises(ValueError):
        setfn_from_vertices([(1, 0), (1, 1)])  # unequal coordinate sums
    with pytest.raises(ValueError):
        setfn_from_vertices([(1, 0), (1,)])


def test_round_trip():
    rng = random.Random(3)
    cases = [standard_perm_setfn(d) for d in range(1, 6)]
    cases += [random_hypergraphic_setfn(rng, max_d=5) for _ in range(10)]
    for z in cases:
        assert setfn_from_vertices(vertices(z)) == z


def test_round_trip_rational():
    # scaling a submodular function by 1/q keeps it submodular; its values
    # and vertices are then Fractions
    rng = random.Random(5)
    cases = [SetFn(3, tuple(v / 2 for v in standard_perm_setfn(3).values))]
    for q in range(2, 8):
        z = random_hypergraphic_setfn(rng, max_d=5)
        cases.append(SetFn(z.d, tuple(v / q for v in z.values)))
    for z in cases:
        assert setfn_from_vertices(vertices(z)) == z


def test_json_round_trip():
    doc = {"d": 3, "values": ["0", "3", "3", "5", "3", "5", "5", "6"]}
    z = setfn_from_json(doc)
    assert z == standard_perm_setfn(3)
    assert setfn_to_json(z) == doc
    # plain integers are accepted on input
    assert setfn_from_json({"d": 1, "values": [0, 2]}).values == (0, 2)


@pytest.mark.parametrize(
    "doc",
    [
        {"values": ["0"]},
        {"d": 2},
        {"d": 2, "values": ["0", "1", "1"]},
        {"d": 2, "values": ["0", "1", "1", "1.5"]},
        {"d": 2, "values": ["0", "1", "1", 1.5]},
        {"d": 2, "values": ["0", "1", "1", True]},
        {"d": 2, "values": ["1", "1", "1", "2"]},
        {"d": True, "values": ["0", "1"]},
        ["not", "a", "dict"],
    ],
)
def test_json_rejects(doc):
    with pytest.raises(InputFormatError):
        setfn_from_json(doc)
