"""Generalized permutahedra realized from submodular set functions.

Everything below runs on integers.  z is scaled once by the lcm L of its
denominators (`SetFn.scaled`).  A chain {i_1} < {i_1, i_2} < ... of the ground set gives its
greedy vertex, coordinate i_j getting the marginal value of i_j on the prefix
before it; `vertices(z)` is the sorted set of these vertices divided by L,
and a vertex id is an index into it.

A linear direction y is maximized on the face of the points tight on every
upper level set of y: x(S) = z(S) for each S in the flag of y.  So a face is
an intersection of tight sets.  ``tight[S]`` is the bitmask of the vertex ids
v with v(S) = z(S), and the face of y is the AND of ``tight`` over the
prefixes of its level-set composition (its blocks of equal value, largest
value first).  A vertex's tight sets are closed under union and intersection
and hold the maximal chain of its greedy order, so a nonempty tight set S
has an element i with S - i tight: intersect S with that chain.  Hence
``tight[S]`` is the OR over i in S of ``tight[S - i]`` ANDed with the ids v
whose scaled coordinate L * v_i is L * (z(S) - z(S - i)), read from the
vertex ids grouped by coordinate value.  The chains are walked once, in
`vertices`, and no linear optimization is needed.

The whole composition-to-face map is a DP over chains of subsets.  Prefix
sets A are taken in increasing numeric order, each with counts of
(face mask, #blocks) states, and extending A by a nonempty block B outside it
ANDs in ``tight[A | B]``.  At the full set each face mask holds its
compositions counted by number of blocks.  Exactly binom(m, j) directions in
[m]^d have a given composition with j blocks, so direction counts are sums
over these histograms, never scans of [m]^d.  With a[k][j] the number of
compositions with j blocks whose face has dimension k,
chi_count(k, m) = sum_j a[k][j] * binom(m, j).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import NotSubmodularError
from .polynomial import Polynomial, binomial_polynomial, binomial_sum
from .rational import RatVec, affine_rank, format_rat
from .report import Report
from .setfn import SetFn

FACE_ENUM_MAX_D = 6


def _greedy_chains(d: int, values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each chain's greedy vertex under the integer values."""
    for perm in itertools.permutations(range(d)):
        coords = [0] * d
        mask = 0
        for i in perm:
            prev = values[mask]
            mask |= 1 << i
            coords[i] = values[mask] - prev
        yield tuple(coords)


def vertices(z: SetFn) -> tuple[RatVec, ...]:
    """Greedy vertices over all chains, deduplicated and sorted lexicographically."""
    if not z.is_submodular:
        raise NotSubmodularError("set function is not submodular")
    scale, values = z.scaled
    distinct = set(_greedy_chains(z.d, values))
    return tuple(tuple(Fraction(c, scale) for c in v) for v in sorted(distinct))


def _level_prefixes(y: Sequence) -> list[int]:
    """Masks of the upper level sets of y, from the largest value down."""
    levels: dict = {}
    for i, v in enumerate(y):
        levels[v] = levels.get(v, 0) | 1 << i
    prefixes = []
    mask = 0
    for v in sorted(levels, reverse=True):
        mask |= levels[v]
        prefixes.append(mask)
    return prefixes


def _bits(mask: int) -> tuple[int, ...]:
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


@dataclass(frozen=True)
class Face:
    """A face, canonicalized by its sorted vertex-index set: the vertices
    tight on every prefix of any composition whose directions it maximizes,
    the AND of ``tight`` over those prefixes.  ``dim`` is d minus the most
    blocks among these compositions: its normal cone, of dimension d - dim,
    is the union of their braid cones, and a braid cone with j blocks has
    dimension j."""

    vertex_ids: tuple[int, ...]
    dim: int


class _FaceMap(NamedTuple):
    tight: list[int]                # subset mask -> mask of the vertex ids tight on it
    faces: dict[int, Face]          # vertex-id mask -> face
    blocks: dict[int, list[int]]    # vertex-id mask -> its compositions by number of blocks


class GPerm:
    """A generalized permutahedron; its face map is built on first use.

    Vertex ids index the sorted ``vertices``.  The face map holds
    ``tight[S]``, the vertex ids v with v(S) = z(S), and for each face its
    compositions counted by number of blocks j (index j); summed over the
    faces of dimension k these give the table a[k][j] that `chi_count`
    weights by binom(m, j).  Construction and the map build are
    single-threaded; once the map is built all queries are read-only.
    """

    def __init__(self, z: SetFn):
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        self._k_face_counts: dict[tuple[int, int], int] = {}

    @property
    def dimension(self) -> int:
        return affine_rank(self.vertices)

    @cached_property
    def _face_map(self) -> _FaceMap:
        """The tight sets and the flag DP over them.  The whole polytope's
        dimension from its block counts must equal the affine rank of all
        vertices, or the map raises RuntimeError."""
        d = self.d
        if d > FACE_ENUM_MAX_D:
            raise ValueError(
                f"face enumeration is capped at d <= {FACE_ENUM_MAX_D}, got d = {d}")
        full = (1 << d) - 1
        scale, values = self.z.scaled
        by_value: list[dict[int, int]] = [{} for _ in range(d)]  # i -> L * v_i -> ids
        for vid, v in enumerate(self.vertices):
            for i, c in enumerate(v):
                key = c.numerator * (scale // c.denominator)
                by_value[i][key] = by_value[i].get(key, 0) | 1 << vid
        tight = [(1 << len(self.vertices)) - 1] + [0] * full
        for s in range(1, full + 1):
            for i in _bits(s):
                prev = s ^ 1 << i
                tight[s] |= tight[prev] & by_value[i].get(values[s] - values[prev], 0)
        # prefix set -> {(face mask so far, #blocks): compositions of the prefix}
        states: list[dict[tuple[int, int], int]] = [{} for _ in range(full + 1)]
        states[0][(tight[full], 0)] = 1
        for a in range(full):
            rest = full ^ a
            b = rest
            while b:
                nxt, t = states[a | b], tight[a | b]
                for (f, j), n in states[a].items():
                    key = (f & t, j + 1)
                    nxt[key] = nxt.get(key, 0) + n
                b = (b - 1) & rest
            states[a] = {}
        blocks: dict[int, list[int]] = {}
        for (f, j), n in states[full].items():
            blocks.setdefault(f, [0] * (d + 1))[j] = n
        faces = {f: Face(_bits(f), d - max(j for j, n in enumerate(hist) if n))
                 for f, hist in blocks.items()}
        whole = faces[tight[full]]
        rank = self.dimension
        if whole.dim != rank:
            raise RuntimeError(
                f"face dimensions disagree: the whole polytope has dimension {whole.dim} "
                f"from its block counts but affine rank {rank}")
        return _FaceMap(tight, faces, blocks)

    @cached_property
    def _chi_table(self) -> list[list[int]]:
        """a[k][j]: compositions with j blocks whose face has dimension k."""
        fm = self._face_map
        table = [[0] * (self.d + 1) for _ in range(self.d)]
        for f, hist in fm.blocks.items():
            row = table[fm.faces[f].dim]
            for j, n in enumerate(hist):
                row[j] += n
        return table

    @cached_property
    def _masks_by_dim(self) -> list[list[int]]:
        by_dim: list[list[int]] = [[] for _ in range(self.d + 1)]
        for f, face in self._face_map.faces.items():
            by_dim[face.dim].append(f)
        return by_dim

    def face_of_direction(self, y: Sequence) -> Face:
        """The face maximizing the direction y."""
        if len(y) != self.d:
            raise ValueError("direction length mismatch")
        fm = self._face_map
        f = -1
        for s in _level_prefixes(y):
            f &= fm.tight[s]
        return fm.faces[f]

    def face_lattice(self) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        return tuple(self._face_map.faces.values())

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        f = 0
        for i in face.vertex_ids:
            f |= 1 << i
        if self._face_map.faces.get(f) != face:
            raise ValueError("not a face of this polytope")
        cached = self._k_face_counts.get((f, k))
        if cached is None:
            masks = self._masks_by_dim[k] if k <= self.d else ()
            cached = sum(1 for g in masks if not g & ~f)
            self._k_face_counts[(f, k)] = cached
        return cached

    def _check_k(self, k: int) -> None:
        if not 0 <= k <= self.d - 1:
            raise ValueError(f"k must be in 0..{self.d - 1}")

    def chi_count(self, k: int, m: int) -> int:
        """Number of directions in [m]^d whose maximal face is k-dimensional."""
        self._check_k(k)
        return binomial_sum(self._chi_table[k], m)

    def chi_polynomial(self, k: int) -> Polynomial:
        """The direction count sum_j a[k][j] * binom(m, j) as a polynomial in
        m, of degree <= d-k."""
        self._check_k(k)
        return binomial_polynomial(self._chi_table[k])

    def reciprocity_rhs(self, k: int, m: int) -> int:
        """Sum over all directions in [m]^d of the number of k-faces of the
        face maximizing that direction."""
        self._check_k(k)
        fm = self._face_map
        weighted = [0] * (self.d + 1)  # compositions by #blocks, times their k-faces
        for f, hist in fm.blocks.items():
            if m > 0 and any(hist[:m + 1]):  # some direction in [m]^d selects the face
                n = self.count_k_faces(fm.faces[f], k)
                for j, c in enumerate(hist):
                    weighted[j] += c * n
        return binomial_sum(weighted, m)

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
