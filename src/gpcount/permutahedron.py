"""Generalized permutahedra realized from submodular set functions.

A polytope is materialized as the deduplicated set of greedy vertices, one per
chain of the ground set.  Faces are discovered through ordered set
compositions: every linear direction selects the face where it is maximized,
and two directions with the same level-set composition select the same face,
so one representative direction per composition suffices.  Exactly
binom(m, j) directions in [m]^d have a given composition with j blocks, so
direction counts are sums over the compositions, never scans of [m]^d.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .errors import NotSubmodularError
from .polynomial import Polynomial, interpolate
from .rational import RatVec, affine_rank, format_rat
from .report import Report
from .setfn import SetFn, greedy_vertex

FACE_ENUM_MAX_D = 6


@dataclass(frozen=True)
class Composition:
    """Ordered set composition of {1, ..., d}: disjoint nonempty blocks whose
    union is the whole ground set, listed from the largest direction value
    downwards."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("composition blocks must be nonempty")
            if seen & set(b):
                raise ValueError("composition blocks must be disjoint")
            seen.update(b)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("composition blocks must partition 1..d")
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return sum(len(b) for b in self.blocks)

    def representative_direction(self) -> tuple[int, ...]:
        """Integer direction whose level sets reproduce this composition:
        block number l (1-based) gets value #blocks - l + 1."""
        return _direction_of_key(self.blocks)


def _direction_of_key(blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    k = len(blocks)
    y = [0] * sum(len(b) for b in blocks)
    for idx, block in enumerate(blocks):
        for i in block:
            y[i - 1] = k - idx
    return tuple(y)


def _comp_key(y: Sequence) -> tuple[tuple[int, ...], ...]:
    levels: dict = {}
    for i, v in enumerate(y, start=1):
        levels.setdefault(v, []).append(i)
    return tuple(tuple(levels[v]) for v in sorted(levels, reverse=True))


def composition_of_direction(y: Sequence) -> Composition:
    """Level sets of y ordered by strictly decreasing value."""
    if not len(y):
        raise ValueError("direction must be nonempty")
    return Composition(_comp_key(y))


def compositions(d: int) -> Iterator[Composition]:
    """All ordered set compositions of {1, ..., d}, in a deterministic order."""
    if d < 1:
        raise ValueError("d must be positive")

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        n = len(remaining)
        for mask in range(1, 1 << n):
            block = tuple(remaining[i] for i in range(n) if mask >> i & 1)
            rest = tuple(remaining[i] for i in range(n) if not mask >> i & 1)
            for tail in rec(rest):
                yield (block,) + tail

    for blocks in rec(tuple(range(1, d + 1))):
        yield Composition(blocks)


def vertices(z: SetFn) -> tuple[RatVec, ...]:
    """Greedy vertices over all chains, deduplicated and sorted lexicographically."""
    if not z.is_submodular:
        raise NotSubmodularError("set function is not submodular")
    seen = {greedy_vertex(z, perm) for perm in itertools.permutations(range(1, z.d + 1))}
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Face:
    """A face, canonicalized by its sorted vertex-index set."""

    vertex_ids: tuple[int, ...]
    dim: int


class GPerm:
    """A generalized permutahedron with lazily materialized face data.

    Construction and the lazy fills are single-threaded; once the face lattice
    is materialized all queries are read-only.
    """

    def __init__(self, z: SetFn):
        if not z.is_submodular:
            raise NotSubmodularError("set function is not submodular")
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        # int coordinates where possible: direction dot products stay exact and fast
        self._dot_vertices = [
            tuple(int(c) if c.denominator == 1 else c for c in v) for v in self.vertices
        ]
        self._faces: list[Face] = []
        self._face_index_by_ids: dict[tuple[int, ...], int] = {}
        self._face_of_comp: dict[tuple[tuple[int, ...], ...], int] = {}
        self._lattice_complete = False
        self._k_face_counts: dict[tuple[tuple[int, ...], int], int] = {}

    @property
    def dimension(self) -> int:
        return affine_rank(self.vertices)

    def _face_index_for_key(self, key: tuple[tuple[int, ...], ...]) -> int:
        idx = self._face_of_comp.get(key)
        if idx is not None:
            return idx
        y = _direction_of_key(key)
        best = None
        arg: list[int] = []
        for vid, v in enumerate(self._dot_vertices):
            val = 0
            for a, b in zip(y, v):
                val += a * b
            if best is None or val > best:
                best, arg = val, [vid]
            elif val == best:
                arg.append(vid)
        ids = tuple(arg)
        idx = self._face_index_by_ids.get(ids)
        if idx is None:
            face = Face(ids, affine_rank([self.vertices[i] for i in ids]))
            idx = len(self._faces)
            self._faces.append(face)
            self._face_index_by_ids[ids] = idx
        self._face_of_comp[key] = idx
        return idx

    def face_of_direction(self, y: Sequence) -> Face:
        """The face maximizing the direction y; cached per composition of y."""
        if len(y) != self.d:
            raise ValueError("direction length mismatch")
        return self._faces[self._face_index_for_key(_comp_key(y))]

    def face_of_composition(self, comp: Composition) -> Face:
        if comp.d != self.d:
            raise ValueError("composition is not over this ground set")
        return self._faces[self._face_index_for_key(comp.blocks)]

    def _ensure_lattice(self, allow_large: bool = False) -> None:
        if self._lattice_complete:
            return
        if self.d > FACE_ENUM_MAX_D:
            if not allow_large:
                raise ValueError(
                    f"face enumeration is capped at d <= {FACE_ENUM_MAX_D}; "
                    "call face_lattice(allow_large=True) to override")
            warnings.warn(f"enumerating all compositions at d={self.d}", stacklevel=3)
        for comp in compositions(self.d):
            self._face_index_for_key(comp.blocks)
        self._lattice_complete = True

    def face_lattice(self, *, allow_large: bool = False) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        self._ensure_lattice(allow_large)
        return tuple(self._faces)

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        self._ensure_lattice()
        idx = self._face_index_by_ids.get(face.vertex_ids)
        if idx is None or self._faces[idx] != face:
            raise ValueError("not a face of this polytope")
        key = (face.vertex_ids, k)
        cached = self._k_face_counts.get(key)
        if cached is None:
            members = set(face.vertex_ids)
            cached = sum(1 for g in self._faces
                         if g.dim == k and members.issuperset(g.vertex_ids))
            self._k_face_counts[key] = cached
        return cached

    def _check_k(self, k: int) -> None:
        if not 0 <= k <= self.d - 1:
            raise ValueError(f"k must be in 0..{self.d - 1}")

    def _directions_per_face(self, m: int) -> Counter:
        """Face index -> number of directions in [m]^d maximized on that face.
        The binom(m, j) directions whose composition C has j blocks all select
        face(C), so this is one pass over the compositions."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        self._ensure_lattice()
        counts = Counter()
        for key, idx in self._face_of_comp.items():
            if len(key) <= m:  # no direction in [m]^d has more than m levels
                counts[idx] += comb(m, len(key))
        return counts

    def chi_count(self, k: int, m: int) -> int:
        """Number of directions in [m]^d whose maximal face is k-dimensional."""
        self._check_k(k)
        return sum(n for idx, n in self._directions_per_face(m).items()
                   if self._faces[idx].dim == k)

    def chi_polynomial(self, k: int) -> Polynomial:
        """The unique polynomial of degree <= d-k through chi_count(k, m) at
        m = 1, ..., d-k+1."""
        self._check_k(k)
        return interpolate([(m, self.chi_count(k, m)) for m in range(1, self.d - k + 2)])

    def reciprocity_rhs(self, k: int, m: int) -> int:
        """Sum over all directions in [m]^d of the number of k-faces of the
        face maximizing that direction."""
        self._check_k(k)
        return sum(n * self.count_k_faces(self._faces[idx], k)
                   for idx, n in self._directions_per_face(m).items())

    def verify_reciprocity(self, k: int, m_max: int) -> tuple[Polynomial, Report]:
        """Check the interpolated count forwards against the direct count and
        backwards (sign-alternating evaluation at -m) against the weighted
        face count, for m = 1..m_max; returns the polynomial and the report."""
        self._check_k(k)
        if m_max < 1:
            raise ValueError("m_max must be positive")
        poly = self.chi_polynomial(k)
        sign = (-1) ** (self.d - k)
        report = Report()
        for m in range(1, m_max + 1):
            report.check(f"k={k} forward m={m}", poly(m), self.chi_count(k, m))
        for m in range(1, m_max + 1):
            report.check(f"k={k} negative m={m}", sign * poly(-m),
                         self.reciprocity_rhs(k, m))
        return poly, report


def face_lattice_to_json(P: GPerm) -> dict:
    faces = sorted(P.face_lattice(), key=lambda f: (f.dim, f.vertex_ids))
    return {
        "d": P.d,
        "vertices": [[format_rat(c) for c in v] for v in P.vertices],
        "faces": [{"dim": f.dim, "vertices": list(f.vertex_ids)} for f in faces],
    }
