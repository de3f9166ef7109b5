from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpcount import polynomial
from gpcount.errors import InterpolationMismatchError
from gpcount.polynomial import (
    Polynomial,
    QuasiPolynomial,
    binomial_polynomial,
    binomial_sum,
    interpolate,
    interpolate_quasipoly,
)
from gpcount.rational import to_integers
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
    # int coefficients become Fractions, trimmed the same way
    ints = Polynomial((3, 0, -2, 0, 0))
    assert ints.coefficients == (3, 0, -2)
    assert all(type(c) is Fraction for c in ints.coefficients)
    assert ints(2) == -5


def test_float_coefficients():
    # an integral float is its integer; any other float is refused, not
    # read as its binary fraction (0.1 would make p(10) = 1 + 2^-54)
    assert Polynomial((0, 2.0)) == Polynomial((0, 2))
    assert Polynomial((1.0, 0.0)).coefficients == (1,)
    for bad in ((0, 0.1), (0.5,), (1, float("inf")), (float("nan"),)):
        with pytest.raises(ValueError):
            Polynomial(bad)


def test_str_and_bool_coefficients_refused():
    # a str would go through Fraction's own grammar ("1_0" is 10) and a bool
    # would count as 0 or 1
    for bad in (("1_0",), (0, "1/2"), (True,), (0, False)):
        with pytest.raises(ValueError, match="not an exact rational"):
            Polynomial(bad)


def test_interpolate_exact():
    # through (1,0),(2,2),(3,6): t^2 - t
    p = interpolate([0, 2, 6], 1, 1)
    assert p.coefficients == (Fraction(0), Fraction(-1), Fraction(1))
    assert p(10) == 90
    # through (-1,2),(2,-1),(5,2) with step 3: (t^2 - 4t + 1) / 3
    p = interpolate([2, -1, 2], -1, 3)
    assert p.coefficients == (Fraction(1, 3), Fraction(-4, 3), Fraction(1, 3))


def test_interpolate_rejects_step_below_one():
    for step in (0, -1):
        with pytest.raises(ValueError, match="step must be a positive integer"):
            interpolate([1, 2], 1, step)


def test_interpolate_refuses_a_start_that_is_no_int():
    # equal to 1 but no int: refused before the Newton terms of its node
    # set are cached, so later fits on that node set stay exact
    polynomial._newton_columns.cache_clear()
    for start in (Fraction(1), 1.0, True):
        with pytest.raises(ValueError, match="start must be an integer"):
            interpolate([1, 2], start, 1)
    assert interpolate([1, 2], 1, 1) == Polynomial((0, 1))
    assert binomial_polynomial([0, 1]).coefficients == (0, 1)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5), st.integers(-6, 6),
       st.integers(1, 6))
def test_interpolation_round_trip(cs, start, step):
    p = Polynomial(tuple(cs))
    values = [int(p(start + i * step)) for i in range(len(cs))]
    assert interpolate(values, start, step) == p


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


small_or_big = st.one_of(st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30))


@given(st.lists(small_or_big, max_size=9), st.integers(-40, 40), st.integers(1, 9))
@example([], 1, 1)
@example([7], -3, 2)
@example([0, 1, 0, -1, 0], 0, 6)
def test_interpolate_matches_lagrange(values, start, step):
    # the first fit on the node set fills the cache of its Newton terms and
    # the fit of the reversed values reads it; each is the Lagrange
    # polynomial, and the same value as the polynomial of its coefficients
    polynomial._newton_columns.cache_clear()
    for ys in (values, values[::-1]):
        p = interpolate(ys, start, step)
        assert all(type(c) is Fraction for c in p.coefficients)
        want = lagrange([(start + i * step, y) for i, y in enumerate(ys)])
        assert list(p.coefficients) + [Fraction(0)] * (len(want) - len(p.coefficients)) == want
        assert p._integer_form == to_integers(p.coefficients)
        same = Polynomial(p.coefficients)
        assert p == same and hash(p) == hash(same)
        assert repr(p) == repr(same) and p.to_json() == same.to_json()


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
    assert q.to_json() == {"period": 2, "constituents": [["1", "1/2"], ["1/2", "1/2"]]}


def test_quasipolynomial_constituents_are_a_tuple():
    polys = [Polynomial((1,)), Polynomial((0, Fraction(1, 2)))]
    from_list = QuasiPolynomial(2, polys)
    from_tuple = QuasiPolynomial(2, tuple(polys))
    assert from_list.constituents == tuple(polys)
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert hash(QuasiPolynomial(1, [Polynomial((1,))])) == \
        hash(QuasiPolynomial(1, (Polynomial((1,)),)))


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
    # above the highest constituent degree, 2 (t^2 on odd t, t on even t)
    for declared in (3, 4):
        with pytest.raises(InterpolationMismatchError,
                           match=f"degree 2; declared degree {declared} is wrong"):
            interpolate_quasipoly(lambda t: t if t % 2 == 0 else t * t, declared, 2)
    # all counts 0 (an empty polytope) fit any declared degree
    for degree, period in ((0, 1), (3, 1), (2, 3)):
        assert all(c.degree == -1 for c in interpolate_quasipoly(lambda t: 0, degree,
                                                                  period).constituents)


@pytest.mark.parametrize("deg, period", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_interpolate_quasipoly_degree_too_low(deg, period):
    # degree deg and period `period`: t^(deg-1) on the multiples of a period
    # above 1 and t^deg elsewhere, so residue 0 fits the declared degree
    # deg - 1 when the period is above 1, and the first residue that fails is
    # the one of t = 1
    def count(t):
        return t ** (deg - 1) if period > 1 and t % period == 0 else t ** deg

    with pytest.raises(InterpolationMismatchError,
                       match=f"residue {1 % period} disagrees with the count at "
                             f"t={1 + deg * period}; declared degree {deg - 1} "):
        interpolate_quasipoly(count, deg - 1, period)


def test_interpolate_quasipoly_wrong_period():
    # true period 3 (count of [0, 1/3] dilates); 2 is not a multiple
    with pytest.raises(InterpolationMismatchError):
        interpolate_quasipoly(lambda t: t // 3 + 1, 1, 2)
