"""Exact polynomials and quasipolynomials with rational coefficients, and
counts written in the binomial basis binom(m, j)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from .errors import InterpolationMismatchError
from .rational import format_rat


@dataclass(frozen=True)
class Polynomial:
    """Coefficients constant-first; trailing zeros are trimmed on construction."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.coefficients) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coefficients or not other.coefficients:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def to_json(self) -> list[str]:
        if not self.coefficients:
            return ["0"]
        return [format_rat(c) for c in self.coefficients]


def monomial(coefficient, power: int) -> Polynomial:
    return Polynomial((Fraction(0),) * power + (Fraction(coefficient),))


def interpolate(points: Sequence[tuple]) -> Polynomial:
    """The unique polynomial of degree < len(points) through the given points.

    Lagrange with exact arithmetic; nodes must be pairwise distinct.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(points)
    total = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xs[j]
                nxt[k + 1] += c
            basis = nxt
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, c in enumerate(basis):
            total[k] += scale * c
    return Polynomial(tuple(total))


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

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.constituents)

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
