from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpcount.errors import InterpolationMismatchError
from gpcount.polynomial import (
    Polynomial,
    QuasiPolynomial,
    binomial_polynomial,
    binomial_sum,
    interpolate,
    interpolate_quasipoly,
    monomial,
)
from oracles import horner, lagrange


def test_polynomial_basics():
    p = Polynomial((Fraction(2), Fraction(-3), Fraction(1)))
    assert p.degree == 2
    assert p(1) == 0
    assert p(2) == 0
    assert p(5) == 12
    assert p(-1) == 6


def test_trailing_zeros_trimmed():
    p = Polynomial((Fraction(1), Fraction(0), Fraction(0)))
    assert p.coefficients == (Fraction(1),)
    assert p.degree == 0
    zero = Polynomial((Fraction(0),))
    assert zero.coefficients == ()
    assert zero.degree == -1
    assert zero(17) == 0


def test_arithmetic():
    p = monomial(1, 2)   # t^2
    q = monomial(2, 1)   # 2t
    assert (p + q)(3) == 15
    assert (p - p).degree == -1
    assert (p * q)(2) == 16
    assert (-q)(5) == -10


def test_monomial():
    assert monomial(Fraction(3, 2), 0)(7) == Fraction(3, 2)
    assert monomial(1, 3)(2) == 8


def test_interpolate_exact():
    # through (1,0),(2,2),(3,6): t^2 - t
    p = interpolate([(1, 0), (2, 2), (3, 6)])
    assert p.coefficients == (Fraction(0), Fraction(-1), Fraction(1))
    assert p(10) == 90


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        interpolate([(1, 0), (1, 1)])


coeffs = st.lists(st.fractions(max_denominator=6), min_size=1, max_size=5)


@given(coeffs)
def test_interpolation_round_trip(cs):
    p = Polynomial(tuple(cs))
    nodes = [(m, p(m)) for m in range(1, len(cs) + 1)]
    assert interpolate(nodes) == p


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


def point_sets(node):
    return st.lists(st.tuples(node, rationals), max_size=8, unique_by=lambda p: p[0])


@given(st.one_of(point_sets(st.integers(-12, 12)), point_sets(rationals)))
@example([])
@example([(Fraction(-5, 3), Fraction(2, 7))])
@example([(-3, Fraction(1, 2)), (Fraction(-1, 6), 0), (Fraction(5, 4), Fraction(-7, 3))])
def test_interpolate_matches_lagrange(points):
    p = interpolate(points)
    assert all(type(c) is Fraction for c in p.coefficients)
    want = lagrange(points)
    assert list(p.coefficients) + [Fraction(0)] * (len(want) - len(p.coefficients)) == want


@given(st.lists(rationals, max_size=8), st.one_of(st.integers(-30, 30), rationals))
@example([], 5)
@example([], Fraction(-2, 7))
def test_evaluation_matches_horner(cs, x):
    value = Polynomial(tuple(cs))(x)
    assert type(value) is Fraction
    assert value == horner(cs, x)


@given(st.lists(st.integers(-20, 20), max_size=7), st.integers(1, 12))
def test_binomial_basis(counts, m):
    expected = sum(c * comb(m, j) for j, c in enumerate(counts))
    assert binomial_sum(counts, m) == expected
    poly = binomial_polynomial(counts)
    assert poly(m) == expected
    assert poly.degree == max((j for j, c in enumerate(counts) if c), default=-1)


def test_binomial_sum_needs_positive_m():
    assert binomial_sum([0, 2, 1], 3) == 9  # 2 * 3 + 1 * 3
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            binomial_sum([1], m)


def test_to_json():
    assert Polynomial((Fraction(0), Fraction(1, 2))).to_json() == ["0", "1/2"]
    assert Polynomial(()).to_json() == ["0"]


def test_quasipolynomial_eval():
    even = Polynomial((Fraction(1), Fraction(1, 2)))
    odd = Polynomial((Fraction(1, 2), Fraction(1, 2)))
    q = QuasiPolynomial(2, (even, odd))
    assert q(2) == 2
    assert q(3) == 2
    # negative arguments pick the nonnegative residue: -3 = 1 mod 2
    assert q(-3) == -1
    assert q(-4) == -1
    assert q.degree == 1
    assert q.to_json() == {"period": 2, "constituents": [["1", "1/2"], ["1/2", "1/2"]]}


def test_quasipolynomial_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(0, ())
    with pytest.raises(ValueError):
        QuasiPolynomial(2, (Polynomial(()),))


def test_interpolate_quasipoly():
    q = interpolate_quasipoly(lambda t: (t + 1) ** 2, 2, 1)
    assert q.period == 1
    assert q.constituents[0].coefficients == (Fraction(1), Fraction(2), Fraction(1))


def test_interpolate_quasipoly_wrong_degree():
    with pytest.raises(InterpolationMismatchError):
        interpolate_quasipoly(lambda t: t * t, 1, 1)


def test_interpolate_quasipoly_wrong_period():
    # true period 3 (count of [0, 1/3] dilates); 2 is not a multiple
    with pytest.raises(InterpolationMismatchError):
        interpolate_quasipoly(lambda t: t // 3 + 1, 1, 2)
