"""Set functions on the subsets of {1, ..., d}.

Subsets are bitmasks (bit i set means element i+1 is in the subset) over a
dense value table of length 2^d.  The module covers the values scaled once
to integers by the lcm of their denominators, the submodularity test on
those integers, pointwise sums, the coordinate sums of a point over all
subsets, and reconstruction of a set function from a vertex set by
maximizing those sums.
The greedy vertices of the chains are computed in `permutahedron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputFormatError
from .rational import format_rat, rat_from_json, to_integers

MAX_GROUND_SET = 8


@dataclass(frozen=True)
class SetFn:
    d: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        check_ground_set(self.d)
        values = tuple(Fraction(v) for v in self.values)
        if len(values) != 1 << self.d:
            raise ValueError(f"need {1 << self.d} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("the empty set must map to 0")
        object.__setattr__(self, "values", values)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """The lcm L of the denominators of the values, and the integers L * z."""
        return to_integers(self.values)

    @cached_property
    def is_submodular(self) -> bool:
        """Local diminishing-returns criterion over all (A, i, j) with i, j not in
        A, compared on the integers L * z."""
        v = self.scaled[1]
        for mask in range(1 << self.d):
            free = [i for i in range(self.d) if not mask >> i & 1]
            for pos, i in enumerate(free):
                bi = 1 << i
                for j in free[pos + 1:]:
                    bj = 1 << j
                    if v[mask | bi] + v[mask | bj] < v[mask | bi | bj] + v[mask]:
                        return False
        return True


def check_ground_set(d: int) -> None:
    """Reject a ground-set size outside 1..MAX_GROUND_SET."""
    if not 1 <= d <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {d}")


def standard_perm_setfn(d: int) -> SetFn:
    """z(A) = d + (d-1) + ... + (d-|A|+1), the base function whose polytope is
    the convex hull of the permutations of (1, ..., d)."""
    check_ground_set(d)
    values = []
    for mask in range(1 << d):
        k = mask.bit_count()
        values.append(Fraction(k * d - k * (k - 1) // 2))
    return SetFn(d, tuple(values))


def setfn_sum(z1: SetFn, z2: SetFn) -> SetFn:
    if z1.d != z2.d:
        raise ValueError("mismatched ground-set sizes")
    return SetFn(z1.d, tuple(a + b for a, b in zip(z1.values, z2.values)))


def setfn_from_vertices(vertex_set: Iterable[Sequence[Fraction]]) -> SetFn:
    """Reconstruct z(A) = max over the vertex set of the coordinate sum on A,
    from the subset sums of the vertices scaled to integers by one lcm L."""
    pts = list(vertex_set)
    if not pts:
        raise ValueError("need at least one vertex")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("vertices of mixed length")
    scale, flat = to_integers(c for p in pts for c in p)
    rows = [flat[i:i + d] for i in range(0, len(flat), d)]
    total = sum(rows[0])
    if any(sum(p) != total for p in rows):
        raise ValueError("vertices do not share a coordinate sum")
    best = subset_sums(rows[0])
    for p in rows[1:]:
        best = list(map(max, best, subset_sums(p)))
    return SetFn(d, tuple(Fraction(b, scale) for b in best))


def subset_sums(p: Sequence) -> list:
    """The coordinate sum of p over every subset mask A, indexed by A."""
    sums = [0]
    for c in p:
        sums += [s + c for s in sums]
    return sums


def setfn_to_json(z: SetFn) -> dict:
    return {"d": z.d, "values": [format_rat(v) for v in z.values]}


def setfn_from_json(doc: object) -> SetFn:
    if not isinstance(doc, dict) or "d" not in doc or "values" not in doc:
        raise InputFormatError("set-function document needs 'd' and 'values'")
    d, raw = doc["d"], doc["values"]
    if not isinstance(d, int) or isinstance(d, bool) or not isinstance(raw, list):
        raise InputFormatError("'d' must be an integer and 'values' a list")
    values = tuple(rat_from_json(v) for v in raw)
    try:
        return SetFn(d, values)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
