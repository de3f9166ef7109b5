"""Generalized permutahedra realized from submodular set functions.

A polytope is materialized as the deduplicated set of greedy vertices, one per
chain of the ground set.  Faces are indexed by ordered set compositions:
every linear direction selects the face where it is maximized, and two
directions with the same level-set composition C select the same face, the
product of the minors of z along C.  Its vertices are exactly the greedy
vertices of the chains that list the blocks of C in order, so the whole
composition-to-face map is read off the d! chains and their cuts into
consecutive blocks, in one pass and without any linear optimization.  Exactly
binom(m, j) directions in [m]^d have a given composition with j blocks, so
direction counts are sums over the compositions, never scans of [m]^d.

A face's dimension is d minus the most blocks among the compositions that
map to it, with no rank computation per face.  The normal fan of P coarsens
the braid fan, so the normal cone of a face F, of dimension d - dim F, is the
union of the braid cones of its compositions, and the braid cone of a
composition with j blocks has dimension j.  `GPerm.dimension` is the affine
rank of all vertices; the face map checks it against the block count of the
one-block composition, whose face is P itself.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Any, Iterator, Sequence

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
        k = len(self.blocks)
        y = [0] * self.d
        for idx, block in enumerate(self.blocks):
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
    """A face, canonicalized by its sorted vertex-index set.  ``dim`` is d
    minus the most blocks among the compositions whose directions it
    maximizes: its normal cone, of dimension d - dim, is the union of their
    braid cones, and a braid cone with j blocks has dimension j."""

    vertex_ids: tuple[int, ...]
    dim: int


class GPerm:
    """A generalized permutahedron; its face lattice is built on first use.

    Construction and the lattice build are single-threaded; once the lattice
    is built all queries are read-only.
    """

    def __init__(self, z: SetFn):
        if not z.is_submodular:
            raise NotSubmodularError("set function is not submodular")
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        self._k_face_counts: dict[tuple[tuple[int, ...], int], int] = {}

    @property
    def dimension(self) -> int:
        return affine_rank(self.vertices)

    @cached_property
    def _face_of_comp(self) -> dict[tuple[tuple[int, ...], ...], Face]:
        """The face maximizing the directions of each composition.  Its
        vertices are the greedy vertices of the chains refining the
        composition, so every chain adds its vertex to each of its 2^(d-1)
        cuts into consecutive blocks.  Each face's dimension is d minus the
        most blocks among its compositions; the whole polytope's must equal
        the affine rank of all vertices, or the map raises RuntimeError."""
        if self.d > FACE_ENUM_MAX_D:
            raise ValueError(
                f"face enumeration is capped at d <= {FACE_ENUM_MAX_D}, got d = {self.d}")
        vertex_id = {v: i for i, v in enumerate(self.vertices)}
        cuts = [tuple(zip((0,) + c, c + (self.d,)))
                for r in range(self.d) for c in itertools.combinations(range(1, self.d), r)]
        spans = {span for cut in cuts for span in cut}
        # composition -> vertex-id set, then, in place, its sorted id tuple and its Face
        members: dict[tuple[tuple[int, ...], ...], Any] = {}
        for perm in itertools.permutations(range(1, self.d + 1)):
            vid = vertex_id[greedy_vertex(self.z, perm)]
            block = {(lo, hi): tuple(sorted(perm[lo:hi])) for lo, hi in spans}
            for cut in cuts:
                members.setdefault(tuple([block[span] for span in cut]), set()).add(vid)
        most_blocks: dict[tuple[int, ...], int] = {}
        for key, vids in members.items():
            ids = members[key] = tuple(sorted(vids))
            if len(key) > most_blocks.get(ids, 0):
                most_blocks[ids] = len(key)
        faces = {ids: Face(ids, self.d - j) for ids, j in most_blocks.items()}
        whole = faces[members[(tuple(range(1, self.d + 1)),)]]
        rank = self.dimension
        if whole.dim != rank:
            raise RuntimeError(
                f"face dimensions disagree: the whole polytope has dimension {whole.dim} "
                f"from its block counts but affine rank {rank}")
        for key, ids in members.items():
            members[key] = faces[ids]
        return members

    @cached_property
    def _faces(self) -> dict[Face, None]:
        """The distinct faces, as an insertion-ordered set."""
        return dict.fromkeys(self._face_of_comp.values())

    def face_of_direction(self, y: Sequence) -> Face:
        """The face maximizing the direction y."""
        if len(y) != self.d:
            raise ValueError("direction length mismatch")
        return self._face_of_comp[_comp_key(y)]

    def face_of_composition(self, comp: Composition) -> Face:
        if comp.d != self.d:
            raise ValueError("composition is not over this ground set")
        return self._face_of_comp[comp.blocks]

    def face_lattice(self) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        return tuple(self._faces)

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if face not in self._faces:
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
        """Face -> number of directions in [m]^d maximized on that face.
        The binom(m, j) directions whose composition C has j blocks all select
        face(C), so this is one pass over the compositions."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        counts = Counter()
        for key, face in self._face_of_comp.items():
            if len(key) <= m:  # no direction in [m]^d has more than m levels
                counts[face] += comb(m, len(key))
        return counts

    def chi_count(self, k: int, m: int) -> int:
        """Number of directions in [m]^d whose maximal face is k-dimensional."""
        self._check_k(k)
        return sum(n for face, n in self._directions_per_face(m).items() if face.dim == k)

    def chi_polynomial(self, k: int) -> Polynomial:
        """The unique polynomial of degree <= d-k through chi_count(k, m) at
        m = 1, ..., d-k+1."""
        self._check_k(k)
        return interpolate([(m, self.chi_count(k, m)) for m in range(1, self.d - k + 2)])

    def reciprocity_rhs(self, k: int, m: int) -> int:
        """Sum over all directions in [m]^d of the number of k-faces of the
        face maximizing that direction."""
        self._check_k(k)
        return sum(n * self.count_k_faces(face, k)
                   for face, n in self._directions_per_face(m).items())

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
