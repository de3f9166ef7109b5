import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount.generators import random_hypergraphic_setfn
from gpcount.permutahedron import vertices
from gpcount.rational import affine_rank, parse_rat, to_integers
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
    ["1.5", "3e2", "1/0", "1/-2", "", "/3", "2/", "--1", "1 / 2", "nan", "0x3",
     # digits of other scripts, which int() and Fraction() accept
     "\u0661\u0662", "\u0663/4", "1/1\u0664", "\u0663/\u0664", "\uff17", "-\u096a"],
)
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_parse_rat_agrees_with_fraction_parser():
    """On random strings over digits (ASCII and not), signs, '/', '_', '.',
    'e' and whitespace, parse_rat gives what the ASCII literal check followed
    by `Fraction(s)` gives: the same value, or the same ValueError."""
    literal = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")

    def by_fraction(text):
        s = text.strip()
        if not literal.match(s):
            raise ValueError(f"invalid rational literal: {text!r}")
        return Fraction(s)

    def outcome(parse, text):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(5)
    alphabet = "0123456789" * 3 + "\u0663\u0669\u096a\uff17" + "+-//_.e \t\n"
    parsed = 0
    for _ in range(10 ** 5):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
        expected = outcome(by_fraction, text)
        assert outcome(parse_rat, text) == expected, text
        parsed += isinstance(expected, Fraction)
    assert parsed > 10 ** 4


def test_format_rat():
    # the package writes a rational with `str`, in the literal form it reads
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-8, 2)) == "-4"
    assert str(7) == "7"
    assert str(Fraction(0)) == "0"


@given(st.fractions(max_denominator=10 ** 9))
def test_literal_round_trip(q):
    assert parse_rat(str(q)) == q


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


def test_affine_rank_independent_of_point_order():
    # the points after the first are visited in a strided order; on shuffled
    # integer and Fraction point sets (n = 1, 2, 3 and more, with and
    # without repeated points, every rank 0..d) and on sorted GP vertex
    # lists, the rank equals the unshuffled rank and the oracle's
    rng = random.Random(83)
    cases = []
    for d in range(1, 7):
        for r in range(d + 1):
            for n in (1, 2, 3, 4, 7, 13, 30):
                base = [rng.randint(-9, 9) for _ in range(d)]
                gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(r)]
                points = [tuple(b + sum(rng.randint(-3, 3) * g[i] for g in gens)
                                for i, b in enumerate(base)) for _ in range(n)]
                if n % 2:
                    points += rng.sample(points, min(n, 2))
                scale = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(d)]
                cases.append(points)
                cases.append([tuple(c * s for c, s in zip(p, scale)) for p in points])
    rng_z = random.Random(89)
    for z in [standard_perm_setfn(d) for d in range(1, 7)] + [
            random_hypergraphic_setfn(rng_z, max_d=6) for _ in range(8)]:
        cases += [list(vertices(z)), list(z.scaled_vertices)]
    seen = set()
    for points in cases:
        expected = rank_oracle(points)
        assert affine_rank(points) == expected
        for _ in range(3):
            shuffled = points[:]
            rng.shuffle(shuffled)
            assert affine_rank(shuffled) == expected == rank_oracle(shuffled)
        seen.add((len(points), len(points[0]), expected))
    assert {n for n, _, _ in seen} >= {1, 2, 3, 720}
    assert {(d, r) for _, d, r in seen} == {(d, r) for d in range(1, 7) for r in range(d + 1)}


@st.composite
def common_sum_sets(draw, entry=coord):
    """Up to 37 points in dimension 1..6 that share one coordinate sum: a
    base point, the base plus each of r generators with coordinate sum 0,
    and small integer combinations of them, so every rank 0..d-1 occurs;
    optionally one more point off that hyperplane, which raises the rank by
    one (to d at most)."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d - 1))
    base = draw(st.tuples(*[entry] * d))
    gens = []
    for _ in range(r):
        head = draw(st.tuples(*[entry] * (d - 1)))
        gens.append((*head, -sum(head)))
    points = [base] + [tuple(b + c for b, c in zip(base, g)) for g in gens]
    for _ in range(draw(st.integers(0, 30))):
        coefs = draw(st.tuples(*[st.integers(-3, 3)] * r))
        points.append(tuple(b + sum(c * g[j] for c, g in zip(coefs, gens))
                            for j, b in enumerate(base)))
    if draw(st.booleans()):
        shift = draw(entry.filter(bool))
        points.insert(draw(st.integers(0, len(points))), (base[0] + shift, *base[1:]))
    return points


@given(st.one_of(common_sum_sets(), common_sum_sets(st.integers(-20, 20))))
def test_affine_rank_common_sum_bound(points):
    # the reduction stops at d - 1 only when every point has the same sum
    assert affine_rank(points) == rank_oracle(points)
