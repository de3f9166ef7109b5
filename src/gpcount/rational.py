"""Exact rational scalars and vectors.

Every coordinate, set-function value, and polynomial coefficient this
package hands out is a `fractions.Fraction`; floats never appear.  Text form
is the rational literal: optional sign, integer, optionally "/" and a
positive integer ("3", "-2", "3/4"), the form in which `str` writes a
`Fraction` or an int.  Decimal notation is rejected on purpose.  `exact`
takes an int that is not a bool, a `Fraction` or an integral float, and
refuses anything else, a str and a non-integral float included.  The
counting cores run on integers: `to_integers` scales a list of rationals
by the lcm of their denominators.  That pair, the lcm and the
integers, is the one form a polynomial (`Polynomial._integer_form`) and a
set function (`SetFn.scaled`) store and compare; their `Fraction`s are made
only when a caller first reads them.  A fit, and a set function built from
integer counts or subset sums (hypergraphic, standard or reconstructed from
vertices), is built in that form directly, without a `Fraction` in between.
So is every document: `rats_from_json`, the one reader of a document's
rational fields, reads a list of ints and literals straight into that pair.
`affine_rank` takes integer points, as its one caller, a generalized
permutahedron's scaled vertices, holds them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputFormatError

RatVec = tuple[Fraction, ...]

_RAT_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)  # matched in full


def _scaled(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """`rats_from_json`, raising ValueError."""
    nums, dens = [], []
    for value in values:
        if isinstance(value, str):
            match = _RAT_RE.fullmatch(value.strip())
            if match is None:
                raise ValueError(f"invalid rational literal: {value!r}")
            num, den = match.groups()
            num = int(num)  # a ValueError past `sys.get_int_max_str_digits()`
            if den is None:
                den = 1
            else:
                den = int(den)
                g = gcd(num, den)
                num, den = num // g, den // g
        elif isinstance(value, int) and not isinstance(value, bool):
            num, den = value, 1
        else:
            raise ValueError(f"expected a rational literal, got {value!r}")
        nums.append(num)
        dens.append(den)
    scale = lcm(*dens)
    if scale == 1:
        return 1, tuple(nums)
    return scale, tuple(n * (scale // d) for n, d in zip(nums, dens))


def rats_from_json(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """The rational fields ``values`` of a JSON document, each an int (not a
    bool) or a rational literal, as `to_integers` gives their values: the
    lcm L of their reduced denominators and the integers L * v, read
    without a `Fraction`.  The first bad field raises InputFormatError."""
    try:
        return _scaled(values)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def exact(value) -> Fraction:
    """``value`` as a Fraction: an int that is not a bool, a Fraction, or an
    integral float such as 2.0, which is its integer.  A non-integral float
    raises ValueError: its binary fraction (0.1 is
    3602879701896397/36028797018963968) is seldom the rational meant.
    Anything else raises ValueError too: a str would go through
    `Fraction`'s wider grammar ("0.1", "1e1", "1_0"), which documents
    refuse, and a bool would count as 0 or 1."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{value!r} is a non-integral float, not an exact rational")
        return Fraction(value)
    raise ValueError(f"{value!r} is not an exact rational: expected an int, a Fraction "
                     f"or an integral float")


def to_integers(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the denominators of ``values`` (ints or Fractions; 1 when
    there are none), and the integers L * v."""
    values = tuple(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the integer ``points`` (0 for a
    single point).

    Fraction-free: each integer difference vector against the first point
    is reduced against an echelon basis of gcd-normalized rows.  Every basis
    row vanishes at the pivot columns of the rows before it, so a vector is
    in their span exactly when it reduces to zero.  The reduction stops
    once the basis reaches the rank bound: d, or d - 1 when all points share
    one coordinate sum, since their differences then lie in the hyperplane
    x_1 + ... + x_d = 0 (as the vertices of a generalized permutahedron do,
    x([d]) = z([d])).  The points after the first are visited in the order
    k * step mod n for k = 1..n-1, with step near 8/13 of the point count n
    and coprime to it, so each is visited once: on sorted vertices neighbors
    differ only in their last coordinates, and a spread order reaches the
    bound after few rows.  The rank does not depend on the order.
    """
    if not points:
        raise ValueError("affine_rank needs at least one point")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed length")
    bound = d - 1 if len(set(map(sum, points))) == 1 else d
    n = len(points)
    step = n * 8 // 13 or 1
    while gcd(step, n) != 1:
        step += 1
    base = points[0]
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for k in range(1, n):
        v = [c - b for c, b in zip(points[k * step % n], base)]
        for col, row in basis:
            if v[col]:
                g = gcd(v[col], row[col])
                a, b = row[col] // g, v[col] // g
                v = [a * x - b * r for x, r in zip(v, row)]
        col = next((j for j, c in enumerate(v) if c), None)
        if col is None:
            continue
        g = gcd(*v)
        basis.append((col, [c // g for c in v]))
        if len(basis) == bound:
            break
    return len(basis)
