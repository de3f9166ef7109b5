import itertools
import random
from fractions import Fraction

import pytest

from gpcount.errors import InputFormatError, NotSubmodularError
from gpcount.generators import random_hypergraphic_setfn
from gpcount.hypergraph import Hypergraph, hypergraphic_setfn
from gpcount.permutahedron import vertices
from gpcount.setfn import (
    SetFn,
    setfn_from_json,
    setfn_from_vertices,
    setfn_sum,
    setfn_to_json,
    standard_perm_setfn,
)
from oracles import (
    compositions,
    greedy_vertex,
    perm_refines,
    representative_direction,
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
    with pytest.raises(ValueError):
        SetFn(2, (1, 0, 0, 0))       # empty set must map to 0
    with pytest.raises(ValueError):
        SetFn(2, (0, 1, 1))          # wrong table size
    with pytest.raises(ValueError):
        SetFn(0, ())
    with pytest.raises(ValueError):
        SetFn(9, (0,) * 512)
    with pytest.raises(ValueError):
        standard_perm_setfn(9)


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


def test_scaled():
    z = SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    assert z.scaled == (12, (0, 6, 8, 9))
    assert z.is_submodular  # 6 + 8 >= 9 + 0 on the integers
    assert SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(7, 6))).is_submodular  # 7 >= 7
    assert not SetFn(2, (0, Fraction(1, 2), Fraction(2, 3), Fraction(4, 3))).is_submodular
    assert standard_perm_setfn(2).scaled == (1, (0, 2, 2, 3))
    assert SetFn(1, (0, Fraction(-3, 4))).scaled == (4, (0, -3))


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
