"""Exact polynomials and quasipolynomials with rational coefficients, and
counts written in the binomial basis binom(m, j).

Coefficients and values are exact `Fraction`s, but the work runs on
integers with one `Fraction` per result.  `interpolate` scales the nodes by
the lcm s of their denominators (u = s * x) and the values by the lcm q of
theirs, so Lagrange's formula runs on integer nodes U_i and values Y_i: each
basis numerator N(u) / (u - U_i), with N(u) = prod_j (u - U_j), comes from
one synthetic division, and its weight w_i = prod_{j != i} (U_i - U_j) is
cleared by D = lcm(w_i).  A polynomial is evaluated by Horner's rule on its
coefficients over their common denominator, at x = p / r as the homogeneous
sum_k N_k p^k r^(n - k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, prod
from typing import Callable, Sequence

from .errors import InterpolationMismatchError
from .rational import format_rat, to_integers


@dataclass(frozen=True)
class Polynomial:
    """Coefficients constant-first; trailing zeros are trimmed on construction."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in self.coefficients]
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
        """The value at an int or Fraction x = p / r, by Horner's rule on
        sum_k N_k p^k r^(n - k) over den * r^n."""
        den, nums = self._integer_form
        if not nums:
            return Fraction(0)
        p, r = x.numerator, x.denominator
        acc, rpow = nums[-1], 1
        for n in reversed(nums[:-1]):
            rpow *= r
            acc = acc * p + n * rpow
        return Fraction(acc, den * rpow)

    def to_json(self) -> list[str]:
        if not self.coefficients:
            return ["0"]
        return [format_rat(c) for c in self.coefficients]


def interpolate(points: Sequence[tuple]) -> Polynomial:
    """The unique polynomial of degree < len(points) through the given points.

    Lagrange on the integers u = s * x (see the module docstring); nodes
    must be pairwise distinct.
    """
    s, us = to_integers(x for x, _ in points)
    q, ys = to_integers(y for _, y in points)
    if len(set(us)) != len(us):
        raise ValueError("interpolation nodes must be distinct")
    node = [1]  # N(u), constant first
    for u in us:
        node = [0] + node
        for k in range(len(node) - 1):
            node[k] -= u * node[k + 1]
    weights = [prod(ui - uj for uj in us if uj != ui) for ui in us]
    den = lcm(*weights)
    total = [0] * len(us)
    for ui, w, y in zip(us, weights, ys):
        scale = y * (den // w)
        carry = 0  # synthetic division of N by (u - U_i), top coefficient first
        for k in range(len(us) - 1, -1, -1):
            carry = node[k + 1] + ui * carry
            total[k] += scale * carry
    coefficients, spow = [], 1
    for t in total:
        coefficients.append(Fraction(t * spow, den * q))
        spow *= s
    return Polynomial(tuple(coefficients))


def binomial_sum(counts: Sequence[int], m: int) -> int:
    """sum_j c[j] * binom(m, j) at a positive integer m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sum(n * comb(m, j) for j, n in enumerate(counts))


def binomial_polynomial(counts: Sequence[int]) -> Polynomial:
    """sum_j c[j] * binom(m, j) in the monomial basis, exactly.

    Its degree is the last j with c[j] != 0, so `interpolate` through its
    values at m = 1..j+1 only changes the basis."""
    n = len(counts)
    while n and not counts[n - 1]:
        n -= 1
    return interpolate([(m, binomial_sum(counts, m)) for m in range(1, n + 1)])


@dataclass(frozen=True)
class QuasiPolynomial:
    """One polynomial constituent per residue class of the argument.

    Evaluation picks the constituent by the nonnegative residue of t modulo
    the period, for negative t as well.
    """

    period: int
    constituents: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        if len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue class")

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

    Each constituent is interpolated through the degree+1 smallest t >= 1 in
    its residue class and then checked against ``count`` at the next t in
    that class; a mismatch means the declaration is wrong and raises.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    constituents = []
    for residue in range(period):
        start = residue if residue >= 1 else period
        ts = [start + i * period for i in range(degree + 2)]
        poly = interpolate([(t, count(t)) for t in ts[:-1]])
        if poly(ts[-1]) != count(ts[-1]):
            raise InterpolationMismatchError(
                f"constituent for residue {residue} disagrees with the count at "
                f"t={ts[-1]}; declared degree {degree} / period {period} is wrong")
        constituents.append(poly)
    return QuasiPolynomial(period, tuple(constituents))
