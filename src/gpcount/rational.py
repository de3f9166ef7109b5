"""Exact rational scalars and vectors.

Every coordinate, set-function value, and polynomial coefficient in this
package is a `fractions.Fraction`; floats never appear.  Text form is the
rational literal: optional sign, integer, optionally "/" and a positive
integer ("3", "-2", "3/4").  Decimal notation is rejected on purpose.
The counting cores run on integers: `to_integers` scales a list of
rationals by the lcm of their denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputFormatError

RatVec = tuple[Fraction, ...]

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rat(text: str) -> Fraction:
    """Parse a rational literal, rejecting anything else (decimals included)."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"invalid rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_from_json(value) -> Fraction:
    """A rational field of a JSON document: a rational literal or an integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputFormatError(f"expected a rational literal, got {value!r}")
    try:
        return parse_rat(value)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def format_rat(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_integers(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the denominators of ``values`` (ints or Fractions; 1 when
    there are none), and the integers L * v."""
    values = tuple(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of ``points`` (0 for a single point).

    Fraction-free: the points are scaled by one lcm of all their
    denominators, and each integer difference vector against the first
    point is reduced against an echelon basis of at most d rows, each
    divided by the gcd of its entries.  Every basis row vanishes at the
    pivot columns of the rows before it, so a vector is in their span
    exactly when it reduces to zero.
    Coordinates may be ints or Fractions.
    """
    if not points:
        raise ValueError("affine_rank needs at least one point")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed length")
    flat = to_integers(c for p in points for c in p)[1]
    rows = [flat[i:i + d] for i in range(0, len(flat), d)]
    base = rows[0]
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for p in rows[1:]:
        v = [c - b for c, b in zip(p, base)]
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
        if len(basis) == d:
            break
    return len(basis)
