"""Exact rational scalars and vectors.

Every coordinate, set-function value, and polynomial coefficient in this
package is a `fractions.Fraction`; floats never appear.  Text form is the
rational literal: optional sign, integer, optionally "/" and a positive
integer ("3", "-2", "3/4").  Decimal notation is rejected on purpose.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputFormatError

Rat = Fraction
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


def ratvec(coords: Iterable) -> RatVec:
    return tuple(Fraction(c) for c in coords)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    total = 0
    for a, b in zip(u, v):
        total += a * b
    return Fraction(total)


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of ``points`` (0 for a single point).

    Row-reduces the difference vectors against the first point with exact
    arithmetic and first-nonzero pivoting, so the result is deterministic.
    """
    if not points:
        raise ValueError("affine_rank needs at least one point")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed length")
    base = points[0]
    rows = [[Fraction(p[j]) - Fraction(base[j]) for j in range(d)] for p in points[1:]]
    rank = 0
    for col in range(d):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor == 0:
                continue
            coef = factor / lead
            for c in range(col, d):
                rows[r][c] -= coef * rows[rank][c]
        rank += 1
        if rank == len(rows):
            break
    return rank
