import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount.permutahedron import vertices
from gpcount.rational import affine_rank, format_rat, parse_rat, to_integers
from gpcount.setfn import standard_perm_setfn
from oracles import _rank


def test_parse_rat_literals():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2") == Fraction(-2)
    assert parse_rat("+5") == Fraction(5)
    assert parse_rat("0") == 0
    assert parse_rat(" 7/2 ") == Fraction(7, 2)
    # unreduced input is fine, the value is what matters
    assert parse_rat("6/4") == Fraction(3, 2)


@pytest.mark.parametrize(
    "bad",
    ["1.5", "3e2", "1/0", "1/-2", "", "/3", "2/", "--1", "1 / 2", "nan", "0x3"],
)
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_format_rat():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-8, 2)) == "-4"
    assert format_rat(7) == "7"
    assert format_rat(Fraction(0)) == "0"


@given(st.fractions(max_denominator=10 ** 9))
def test_literal_round_trip(q):
    assert parse_rat(format_rat(q)) == q


def test_to_integers():
    assert to_integers([1, Fraction(1, 4), Fraction(1, 6)]) == (12, (12, 3, 2))
    assert to_integers([Fraction(-3, 4), -2, Fraction(5, 6)]) == (12, (-9, -24, 10))
    assert to_integers([Fraction(6, 4), 0]) == (2, (3, 0))
    assert to_integers(iter([3, -7])) == (1, (3, -7))
    assert to_integers([]) == (1, ())


def test_affine_rank_examples():
    assert affine_rank([(Fraction(0), Fraction(0))]) == 0
    assert affine_rank([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))]) == 1
    perms = [
        (3, 2, 1), (3, 1, 2), (2, 3, 1), (1, 3, 2), (2, 1, 3), (1, 2, 3)]
    assert affine_rank([tuple(map(Fraction, p)) for p in perms]) == 2


def test_affine_rank_degenerate():
    # repeated points add nothing
    p = (Fraction(1), Fraction(1))
    assert affine_rank([p, p, p]) == 0
    # collinear rational points
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)),
           (Fraction(3, 2), Fraction(1))]
    assert affine_rank(pts) == 1
    with pytest.raises(ValueError):
        affine_rank([])


points3 = st.lists(
    st.tuples(*[st.fractions(max_denominator=4)] * 3), min_size=1, max_size=6)


@given(points3, st.tuples(*[st.fractions(max_denominator=4)] * 3))
def test_affine_rank_translation_invariant(points, shift):
    moved = [tuple(c + s for c, s in zip(p, shift)) for p in points]
    assert affine_rank(moved) == affine_rank(points)


@given(points3.flatmap(lambda ps: st.tuples(st.just(ps), st.permutations(ps))))
def test_affine_rank_order_invariant(pair):
    points, shuffled = pair
    assert affine_rank(shuffled) == affine_rank(points)


@given(points3)
def test_affine_rank_bounds(points):
    r = affine_rank(points)
    assert 0 <= r <= min(len(points) - 1, 3)


@given(points3)
def test_affine_rank_duplicate_point(points):
    assert affine_rank(points + [points[0]]) == affine_rank(points)


def rank_oracle(points) -> int:
    return _rank([[c - b for c, b in zip(p, points[0])] for p in points[1:]])


coord = st.builds(Fraction, st.integers(-240, 240), st.integers(1, 12))


@st.composite
def point_sets(draw, entry=coord):
    """Up to 30 points in dimension 1..6: free points, or a base point plus
    small integer combinations of r generators, so every rank 0..d occurs."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        return [draw(st.tuples(*[entry] * d)) for _ in range(n)]
    r = draw(st.integers(0, d))
    base = draw(st.tuples(*[entry] * d))
    gens = [draw(st.tuples(*[entry] * d)) for _ in range(r)]
    points = []
    for _ in range(n):
        coefs = draw(st.tuples(*[st.integers(-3, 3)] * r))
        points.append(tuple(b + sum(c * g[j] for c, g in zip(coefs, gens))
                            for j, b in enumerate(base)))
    return points


@given(point_sets())
def test_affine_rank_matches_oracle(points):
    assert affine_rank(points) == rank_oracle(points)


@given(point_sets(st.integers(-20, 20)))
def test_affine_rank_int_points(points):
    assert all(type(c) is int for p in points for c in p)
    assert affine_rank(points) == rank_oracle(points)


def test_affine_rank_pi_6():
    perms = list(itertools.permutations(range(1, 7)))
    assert affine_rank(perms) == 5
    assert affine_rank(vertices(standard_perm_setfn(6))) == 5
