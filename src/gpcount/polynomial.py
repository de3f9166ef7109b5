"""Exact polynomials and quasipolynomials with rational coefficients, and
counts written in the binomial basis binom(m, j).

Every polynomial the library fits comes from integer counts at equally
spaced integer nodes x_i = start + i * step (dilates t, or colors m).
`interpolate` writes it in Newton's forward-difference form,
p(x) = sum_k Delta^k y_0 * prod_{i<k} (x - x_i) / (k! step^k), where
Delta^k y_0 is the k-th forward difference of the values.  Over the one
denominator D = (n-1)! step^(n-1) every weight D / (k! step^k) is an
integer, so the terms D / (k! step^k) * prod_{i<k} (x - x_i) are multiplied
out on integers.  They depend only on the node set (n, start, step), so a
small cache keeps them, built by the same loop on first use, and a fit only
takes the forward differences and sums their multiples of the terms.

A polynomial keeps one form, its integer form: the lcm of its coefficient
denominators and the integer numerators over it.  A fit stores its
numerators over D divided by their gcd with D, which is that form; a
polynomial built from coefficients is scaled to it by `to_integers`.
Equality and hashing go by it, evaluation is Horner's rule on the
numerators over their common denominator, and the coefficients become
`Fraction`s only when first read (`to_json`, `repr`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, prod
from operator import mul, sub
from typing import Callable, Sequence

from .errors import InterpolationMismatchError, require_integer
from .rational import exact, to_integers
from .value import Frozen


class Polynomial(Frozen):
    """Coefficients constant-first; trailing zeros are trimmed on construction.
    A coefficient `rational.exact` refuses (a non-integral float, a str or
    a bool) raises ValueError.
    Stored, compared and hashed in its integer form (see the module
    docstring); `coefficients` are made from it on first read."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: Sequence[Fraction]):
        self._store(*to_integers(map(exact, coefficients)))

    @classmethod
    def _from_integers(cls, den: int, nums: Sequence[int]) -> Polynomial:
        """The polynomial with coefficients nums[k] / den, for a positive den."""
        poly = cls.__new__(cls)
        poly._store(den, nums)
        return poly

    def _store(self, den: int, nums: Sequence[int]) -> None:
        # divided by the gcd of den and the numerators, den is the lcm of the
        # reduced denominators, so the pair is `to_integers(coefficients)`
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        g = gcd(den, *nums[:n])
        object.__setattr__(self, "_integer_form", (den // g, tuple(c // g for c in nums[:n])))

    def _astuple(self) -> tuple:
        return self._integer_form

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        den, nums = self._integer_form
        return tuple(Fraction(c, den) for c in nums)

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self._integer_form[1]) - 1

    def __call__(self, x) -> Fraction:
        """The value at an int or Fraction x, by Horner's rule on the integer
        numerators, over their common denominator."""
        den, nums = self._integer_form
        acc = 0
        for n in reversed(nums):
            acc = acc * x + n
        return Fraction(acc, den)

    def to_json(self) -> list[str]:
        if not self.coefficients:
            return ["0"]
        return list(map(str, self.coefficients))


# One node set per (degree, period, residue) fitted.  A pass of a benchmark
# workload uses at most 33 (`verify`); the bound keeps a long process that
# fits many periods from growing without limit.
@lru_cache(maxsize=64)
def _newton_columns(n: int, start: int, step: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D = (n-1)! step^(n-1) and, for each power j < n, the coefficients of
    x^j in the integer Newton terms D / (k! step^k) * prod_{i<k} (x - x_i)
    of the nodes x_i = start + i * step, for k = j..n-1 (the terms of lower
    k have no x^j)."""
    den = weight = prod(k * step for k in range(1, n))  # weight: D / (k! step^k)
    columns, basis = [[] for _ in range(n)], [1]  # basis: prod_{i<k} (x - x_i)
    for k in range(n):
        for column, b in zip(columns, basis):
            column.append(weight * b)
        node = start + k * step
        basis = [b - node * c for b, c in zip([0] + basis, basis + [0])]
        weight //= (k + 1) * step
    return den, tuple(map(tuple, columns))


def interpolate(values: Sequence[int], start: int, step: int) -> Polynomial:
    """The unique polynomial of degree < len(values) that takes values[i] at
    start + i * step, in Newton's forward-difference form (see the module
    docstring); start must be an integer and step a positive integer."""
    require_integer("start", start)
    require_integer("step", step, 1)
    n = len(values)
    den, columns = _newton_columns(n, start, step)
    diffs, heads = list(values), []  # heads[k]: Delta^k y_0
    for _ in range(n):
        heads.append(diffs[0])
        diffs = list(map(sub, diffs[1:], diffs))
    return Polynomial._from_integers(
        den, [sum(map(mul, col, heads[j:])) for j, col in enumerate(columns)])


def binomial_sum(counts: Sequence[int], m: int) -> int:
    """sum_j c[j] * binom(m, j) at a positive integer m."""
    require_integer("m", m, 1)
    return sum(n * comb(m, j) for j, n in enumerate(counts))


def binomial_polynomial(counts: Sequence[int]) -> Polynomial:
    """sum_j c[j] * binom(m, j) in the monomial basis, exactly.

    Its degree is the last j with c[j] != 0, so `interpolate` through its
    values at m = 1..j+1 only changes the basis."""
    n = len(counts)
    while n and not counts[n - 1]:
        n -= 1
    return interpolate([binomial_sum(counts, m) for m in range(1, n + 1)], 1, 1)


class QuasiPolynomial(Frozen):
    """One polynomial constituent per residue class of the argument.

    Evaluation picks the constituent by the nonnegative residue of t modulo
    the period, for negative t as well.
    """

    _fields = ("period", "constituents")
    period: int
    constituents: tuple[Polynomial, ...]

    def __init__(self, period: int, constituents: Sequence[Polynomial]):
        require_integer("period", period, 1)
        constituents = tuple(constituents)
        if len(constituents) != period:
            raise ValueError("need exactly one constituent per residue class")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", constituents)

    def __call__(self, t: int) -> Fraction:
        return self.constituents[t % self.period](t)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "constituents": [c.to_json() for c in self.constituents],
        }


def interpolate_quasipoly(count: Callable[[int], int], degree: int,
                          period: int) -> QuasiPolynomial:
    """Fit a quasipolynomial to ``count`` with declared degree and period.

    Each constituent is interpolated through the degree+2 smallest t >= 1 in
    its residue class.  The fit through the first degree+1 of them passes
    through the last exactly when the fit through all of them has degree at
    most ``degree``; a higher degree means the declaration is wrong and
    raises.  So does a declared degree above the highest constituent degree,
    unless every count is 0 (an empty polytope).  The degree and the period
    are checked before the first count.
    """
    require_integer("degree", degree, 0)
    require_integer("period", period, 1)
    constituents = []
    for residue in range(period):
        start = residue if residue >= 1 else period
        poly = interpolate([count(start + i * period) for i in range(degree + 2)],
                           start, period)
        if poly.degree > degree:
            raise InterpolationMismatchError(
                f"constituent for residue {residue} disagrees with the count at "
                f"t={start + (degree + 1) * period}; declared degree {degree} / "
                f"period {period} is wrong")
        constituents.append(poly)
    top = max(c.degree for c in constituents)
    if 0 <= top < degree:
        raise InterpolationMismatchError(
            f"the counts have degree {top}; declared degree {degree} is wrong")
    return QuasiPolynomial(period, tuple(constituents))
