"""Set functions on the subsets of {1, ..., d}.

Subsets are bitmasks (bit i set means element i+1 is in the subset) over a
dense value table of length 2^d.  The module covers the values scaled once
to integers by the lcm of their denominators (`SetFn.scaled`, the one form
a set function keeps: equality and hashing go by it, and its `Fraction`
values are made only when they are first read), the
submodularity test on those integers, pointwise sums, the coordinate sums
of a point over all subsets, the greedy points of the chains on the scaled
values (the vertices of the generalized permutahedron, times L, when z is
submodular), and reconstruction of a set function from a vertex set by
maximizing subset sums, built from those integer sums.  A set-function
document is read the same way, its values straight into the scaled
integers (`rational.rats_from_json`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import InputFormatError, require_integer
from .rational import exact, rats_from_json, to_integers
from .value import Frozen

MAX_GROUND_SET = 8


class SetFn(Frozen):
    """z on the subsets of {1, ..., d}, its `values` indexed by bitmask.

    Stored, compared and hashed as d and `scaled`, which are equal exactly
    when the values are; `values` are made from `scaled` on first read."""

    _fields = ("d", "values")
    d: int
    scaled: tuple[int, tuple[int, ...]]
    """The lcm L of the denominators of the values, and the integers L * z."""

    def __init__(self, d: int, values: Sequence[Fraction]):
        self._store(d, *to_integers(map(exact, values)))

    @classmethod
    def _from_integers(cls, d: int, scale: int, ints: Sequence[int]) -> SetFn:
        """z = ints / scale for a positive scale."""
        z = cls.__new__(cls)
        z._store(d, scale, ints)
        return z

    def _store(self, d: int, scale: int, ints: Sequence[int]) -> None:
        # divided by the gcd of scale and the ints, scale is the lcm of the
        # reduced denominators, so the pair is `to_integers(values)`
        require_integer("ground-set size", d, 1, MAX_GROUND_SET)
        if len(ints) != 1 << d:
            raise ValueError(f"need {1 << d} values, got {len(ints)}")
        if ints[0]:
            raise ValueError("the empty set must map to 0")
        g = gcd(scale, *ints)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "scaled", (scale // g, tuple(v // g for v in ints)))

    def _astuple(self) -> tuple:
        return self.d, self.scaled

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        scale, ints = self.scaled
        return tuple(Fraction(v, scale) for v in ints)

    @cached_property
    def scaled_vertices(self) -> tuple[tuple[int, ...], ...]:
        """The greedy points of the d! chains {i_1} < {i_1, i_2} < ... on the
        integers L * z, coordinate i_j getting the marginal value of i_j on
        the prefix before it, deduplicated and sorted lexicographically.
        For a submodular z these are the vertices of P(z) times L."""
        d, values = self.d, self.scaled[1]
        distinct = set()
        for perm in itertools.permutations(range(d)):
            coords = [0] * d
            mask = 0
            for i in perm:
                prev = values[mask]
                mask |= 1 << i
                coords[i] = values[mask] - prev
            distinct.add(tuple(coords))
        return tuple(sorted(distinct))

    @cached_property
    def is_submodular(self) -> bool:
        """Local diminishing-returns criterion over all (A, i, j) with i, j not in
        A, compared on the integers L * z: the pairs i < j in the outer loop,
        and in the inner loop the masks A avoiding both, from the largest
        down."""
        v, d = self.scaled[1], self.d
        full = (1 << d) - 1
        for i in range(d):
            bi = 1 << i
            for j in range(i + 1, d):
                bj = 1 << j
                bij = bi | bj
                rest = full ^ bij
                a = rest
                while True:
                    if v[a | bi] + v[a | bj] < v[a | bij] + v[a]:
                        return False
                    if not a:
                        break
                    a = (a - 1) & rest
        return True


def standard_perm_setfn(d: int) -> SetFn:
    """z(A) = d + (d-1) + ... + (d-|A|+1), the base function whose polytope is
    the convex hull of the permutations of (1, ..., d)."""
    require_integer("ground-set size", d, 1, MAX_GROUND_SET)
    values = []
    for mask in range(1 << d):
        k = mask.bit_count()
        values.append(k * d - k * (k - 1) // 2)
    return SetFn._from_integers(d, 1, values)


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
    return SetFn._from_integers(d, scale, best)


def subset_sums(p: Sequence) -> list:
    """The coordinate sum of p over every subset mask A, indexed by A."""
    sums = [0]
    for c in p:
        sums += [s + c for s in sums]
    return sums


def setfn_from_json(doc: object) -> SetFn:
    if not isinstance(doc, dict) or "d" not in doc or "values" not in doc:
        raise InputFormatError("set-function document needs 'd' and 'values'")
    d, raw = doc["d"], doc["values"]
    if not isinstance(raw, list):
        raise InputFormatError("'values' must be a list")
    scale, ints = rats_from_json(raw)
    try:
        return SetFn._from_integers(d, scale, ints)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
