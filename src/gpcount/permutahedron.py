"""Generalized permutahedra realized from submodular set functions.

Everything below runs on integers.  z is scaled once by the lcm L of its
denominators (`SetFn.scaled`).  A chain {i_1} < {i_1, i_2} < ... of the ground set gives its
greedy vertex, coordinate i_j getting the marginal value of i_j on the prefix
before it.  The chains are walked once per set function, on the integers
L * z, and their sorted distinct vertices are cached as integer tuples
(`SetFn.scaled_vertices`).  `vertices(z)` divides them by L with one
`Fraction` per distinct coordinate value; a vertex id is an index into
either.  The face map, the dimension check and the `faces` report read the
integer tuples.

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
vertex ids grouped by coordinate value.  No linear optimization is needed.

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
rank of the scaled vertices, which stops at d - 1 because they all lie in
x([d]) = L * z([d]); the face map checks it against the block count of the
one-block composition, whose face is P itself.

The face map keeps each face as its vertex-id mask with its dimension, and
the masks of each dimension in one list; row k of the table a is the column
sum of the histograms of the k-faces.  A `Face` is a named tuple of the
sorted vertex ids and the dimension, built only when a query returns one or
hands one to `count_k_faces`.  A k-face lies in a face f only if its lowest
vertex does, so the k-faces are indexed by their lowest vertex id, one k at
a time on the first query for that k, and the k-faces in f are found by
walking the vertex ids of f over that index.  The k-face counts are cached
per k, keyed by face mask.  `reciprocity_rhs(k, m)` visits only the faces
that some direction in [m]^d selects: those whose fewest-block composition
has at most m blocks, grouped by that number on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import attrgetter, mul
from typing import NamedTuple, Sequence

from .errors import NotSubmodularError
from .polynomial import Polynomial, binomial_polynomial, binomial_sum
from .rational import RatVec, affine_rank, format_rat
from .report import Report
from .setfn import SetFn

FACE_ENUM_MAX_D = 6


def vertices(z: SetFn) -> tuple[RatVec, ...]:
    """Greedy vertices over all chains, deduplicated and sorted lexicographically."""
    if not z.is_submodular:
        raise NotSubmodularError("set function is not submodular")
    scale, points = z.scaled[0], z.scaled_vertices
    value = {c: Fraction(c, scale) for c in {c for v in points for c in v}}
    return tuple(tuple(value[c] for c in v) for v in points)


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


class Face(NamedTuple):
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
    dims: dict[int, int]            # vertex-id mask -> dimension of that face
    blocks: dict[int, list[int]]    # vertex-id mask -> its compositions by number of blocks
    by_dim: list[list[int]]         # k -> the masks of the k-faces


class GPerm:
    """A generalized permutahedron; its face map is built on first use.

    Vertex ids index the sorted ``vertices``.  The face map holds
    ``tight[S]``, the vertex ids v with v(S) = z(S), and for each face mask
    its dimension and its compositions counted by number of blocks j (index
    j), and the face masks of each dimension; summed over the faces of
    dimension k the histograms give the table a[k][j] that `chi_count`
    weights by binom(m, j).  `Face` objects are built only when a query
    returns one.  Construction and queries are single-threaded: queries fill
    the caches on first use (the face map, the `Face` objects handed out,
    the k-face index of each k, the faces grouped by fewest blocks and the
    k-face count of each face), so they are not read-only.
    """

    def __init__(self, z: SetFn):
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        self._scaled_vertices = z.scaled_vertices  # the vertices times L, in the same order
        self._faces: dict[int, Face] = {}                          # face mask -> its Face
        self._k_face_index: dict[int, dict[int, list[int]]] = {}   # k -> lowest id -> k-faces
        self._k_face_counts: dict[int, dict[int, int]] = {}        # k -> face mask -> k-faces in it

    @property
    def dimension(self) -> int:
        return affine_rank(self._scaled_vertices)

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
        values = self.z.scaled[1]
        by_value: list[dict[int, int]] = [{} for _ in range(d)]  # i -> L * v_i -> ids
        for vid, v in enumerate(self._scaled_vertices):
            for i, c in enumerate(v):
                by_value[i][c] = by_value[i].get(c, 0) | 1 << vid
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
            hist = blocks.get(f)
            if hist is None:
                hist = blocks[f] = [0] * (d + 1)
            hist[j] = n
        dims: dict[int, int] = {}
        by_dim: list[list[int]] = [[] for _ in range(d)]
        for f, hist in blocks.items():
            j = d  # the most blocks
            while not hist[j]:
                j -= 1
            dims[f] = d - j
            by_dim[d - j].append(f)
        whole = dims[tight[full]]
        rank = self.dimension
        if whole != rank:
            raise RuntimeError(
                f"face dimensions disagree: the whole polytope has dimension {whole} "
                f"from its block counts but affine rank {rank}")
        return _FaceMap(tight, dims, blocks, by_dim)

    @cached_property
    def _chi_table(self) -> list[list[int]]:
        """a[k][j]: compositions with j blocks whose face has dimension k,
        the column sums of the k-faces' histograms (empty without k-faces)."""
        fm = self._face_map
        return [list(map(sum, zip(*map(fm.blocks.__getitem__, faces))))
                for faces in fm.by_dim]

    def _k_faces_by_lowest_vertex(self, k: int) -> dict[int, list[int]]:
        """The k-face masks keyed by their lowest vertex id, indexed on the
        first query for k."""
        index = self._k_face_index.get(k)
        if index is None:
            index = self._k_face_index[k] = {}
            for g in self._face_map.by_dim[k]:
                index.setdefault((g & -g).bit_length() - 1, []).append(g)
        return index

    @cached_property
    def _faces_by_fewest_blocks(self) -> list[list[int]]:
        """Face masks grouped by the fewest blocks (index j) among the
        compositions that map to them: the directions in [m]^d select a face
        exactly when that number is at most m."""
        groups: list[list[int]] = [[] for _ in range(self.d + 1)]
        for f, hist in self._face_map.blocks.items():
            j = 1  # no composition has 0 blocks
            while not hist[j]:
                j += 1
            groups[j].append(f)
        return groups

    def _face(self, f: int) -> Face:
        face = self._faces.get(f)
        if face is None:
            face = self._faces[f] = Face(_bits(f), self._face_map.dims[f])
        return face

    def face_of_direction(self, y: Sequence) -> Face:
        """The face maximizing the direction y."""
        if len(y) != self.d:
            raise ValueError("direction length mismatch")
        fm = self._face_map
        f = -1
        for s in _level_prefixes(y):
            f &= fm.tight[s]
        return self._face(f)

    def face_lattice(self) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        dims = self._face_map.dims
        return tuple(map(Face, map(_bits, dims), dims.values()))

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``).  A k-face lies in
        ``face`` only if its lowest vertex does, so only the k-faces keyed by
        the vertices of ``face`` are tested."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        ids = face.vertex_ids
        n = len(self.vertices)
        f = 0
        for i in ids:  # vertex ids, in range and strictly increasing
            if not 0 <= i < n or f >> i:
                raise ValueError("not a face of this polytope")
            f |= 1 << i
        if self._face_map.dims.get(f) != face.dim:
            raise ValueError("not a face of this polytope")
        counts = self._k_face_counts.setdefault(k, {})
        cached = counts.get(f)
        if cached is None:
            cached = 0
            if k <= face.dim:
                by_low = self._k_faces_by_lowest_vertex(k)
                outside = ~f
                for i in ids:
                    for g in by_low.get(i, ()):
                        if not g & outside:
                            cached += 1
            counts[f] = cached
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
        face maximizing that direction.  Only the faces some direction in
        [m]^d selects are visited: those with a composition of at most m
        blocks."""
        self._check_k(k)
        blocks = self._face_map.blocks
        counts = self._k_face_counts.setdefault(k, {})
        faces = [f for group in self._faces_by_fewest_blocks[1:m + 1] for f in group]
        weights = [counts[f] if f in counts else self.count_k_faces(self._face(f), k)
                   for f in faces]
        # compositions by #blocks, each weighted by the k-faces of its face
        weighted = [sum(map(mul, weights, column))
                    for column in zip(*map(blocks.__getitem__, faces))]
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
    faces = sorted(P.face_lattice(), key=attrgetter("dim", "vertex_ids"))
    scale, points = P.z.scaled[0], P._scaled_vertices
    text = {c: format_rat(Fraction(c, scale)) for c in {c for v in points for c in v}}
    return {
        "d": P.d,
        "vertices": [[text[c] for c in v] for v in points],
        "faces": [{"dim": f.dim, "vertices": list(f.vertex_ids)} for f in faces],
    }
