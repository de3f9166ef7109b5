"""Exact polynomials and quasipolynomials with rational coefficients, and
counts written in the binomial basis binom(m, j).

Every polynomial the library fits comes from integer counts at equally
spaced integer nodes x_i = start + i * step (dilates t, or colors m).
`interpolate` writes it in Newton's forward-difference form,
p(x) = sum_k Delta^k y_0 * prod_{i<k} (x - x_i) / (k! step^k), where
Delta^k y_0 is the k-th forward difference of the values.  Over the one
denominator D = (n-1)! step^(n-1) every weight D / (k! step^k) is an
integer, so the products are multiplied out on integers and each coefficient
becomes one `Fraction`.  A polynomial is evaluated by Horner's rule on the
integer numerators of its coefficients over their common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, prod
from typing import Callable, Sequence

from .errors import InterpolationMismatchError, require_integer
from .rational import exact, format_rat, to_integers
from .value import Frozen


class Polynomial(Frozen):
    """Coefficients constant-first; trailing zeros are trimmed on construction.
    A non-integral float coefficient raises ValueError (`rational.exact`)."""

    _fields = ("coefficients",)
    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Sequence[Fraction]):
        coeffs = [exact(c) for c in coefficients]
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coefficients", tuple(coeffs[:n]))

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.coefficients) - 1

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The lcm of the coefficient denominators, and the integer numerators
        N_k over it."""
        return to_integers(self.coefficients)

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
        return [format_rat(c) for c in self.coefficients]


def interpolate(values: Sequence[int], start: int, step: int) -> Polynomial:
    """The unique polynomial of degree < len(values) that takes values[i] at
    start + i * step, in Newton's forward-difference form (see the module
    docstring); step must be a positive integer."""
    require_integer("step", step, 1)
    n = len(values)
    den = weight = prod(k * step for k in range(1, n))  # weight: D / (k! step^k)
    total, basis, diffs = [0] * n, [1], list(values)  # basis: prod_{i<k} (x - x_i)
    for k in range(n):
        for j, b in enumerate(basis):
            total[j] += diffs[0] * weight * b
        node = start + k * step
        basis = [b - node * c for b, c in zip([0] + basis, basis + [0])]
        weight //= (k + 1) * step
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return Polynomial(tuple(Fraction(t, den) for t in total))


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
