"""Generalized permutahedra realized from submodular set functions.

Everything below runs on integers.  z is scaled once by the lcm L of its
denominators (`SetFn.scaled`).  A chain {i_1} < {i_1, i_2} < ... of the ground set gives its
greedy vertex, coordinate i_j getting the marginal value of i_j on the prefix
before it.  The chains are walked once per set function, on the integers
L * z, and their sorted distinct vertices are cached as integer tuples
(`SetFn.scaled_vertices`).  `vertices(z)` divides them by L with one
`Fraction` per distinct coordinate value; a vertex id is an index into
either.  The face map and the dimension check read the integer tuples, and
the `faces` report writes the `Fraction`s.

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
sets A are taken in increasing numeric order, from the empty set on, each
with counts of (face mask, #blocks) states, and extending A by a nonempty
block B outside it ANDs in ``tight[A | B]``.  Every vertex is tight on the
empty set and on [d], so ``tight`` of either holds every id, and a
composition's face is fixed once only its last block is left.  So a
composition is closed into the histogram of its face, its count by number
of blocks, when B is the rest of [d], or when A | B leaves one element,
which is then the last block.  States are kept only for the prefixes with
two elements or more left: none at [d], and for d <= 2 none but the empty
one.  Each face mask ends up holding its compositions counted by number of
blocks.  Exactly binom(m, j) directions in [m]^d have a given composition
with j blocks, so direction counts are sums over these histograms, never
scans of [m]^d.  With a[k][j] the number of compositions with j blocks
whose face has dimension k, chi_count(k, m) = sum_j a[k][j] * binom(m, j).

A face's dimension is d minus the most blocks among the compositions that
map to it, with no rank computation per face.  The normal fan of P coarsens
the braid fan, so the normal cone of a face F, of dimension d - dim F, is the
union of the braid cones of its compositions, and the braid cone of a
composition with j blocks has dimension j.  `GPerm.dimension` is the affine
rank of the scaled vertices, which stops at d - 1 because they all lie in
x([d]) = L * z([d]); the face map checks it against the block count of the
one-block composition, whose face is P itself.

A face is its vertex-id mask, bit v set for each vertex id v in it; the
face map keeps each mask with its dimension, and the masks of each
dimension in one list; row k of the table a is the column sum of the
histograms of the k-faces.  A `Face` is the named tuple of the mask and
the dimension, so `count_k_faces` checks one with a single lookup, and
sorted vertex ids are read off a mask only for a person to read
(`Face.vertex_ids`, the `faces` report).  The `faces` report lists the
faces by dimension and, within one dimension, by their lists of vertex
ids, as `sorted((dim, ids))` would; `face_lattice_to_json` groups the
faces by dimension first, so it sorts only each dimension's id lists, and
each id list it reads off a mask goes into the report as it is.  The
0-faces in a face are its vertices, so `count_k_faces(f, 0)` is the
number of set bits of f.  For
k >= 1 a k-face lies in a face f only if its lowest vertex does, so the
k-faces are indexed by their lowest set bit, one k at a time on the first
query for that k, and the k-faces in f are found by walking the set bits
of f over that index.  `reciprocity_rhs(k, m)` is
sum_j r[k][j] * binom(m, j), like `chi_count`, with r[k] the column sums
of the faces' histograms weighted by their k-face counts.  A face of
dimension below k holds no k-face and one of dimension k holds only
itself, so r[k] starts as a copy of a[k] and only the faces of dimension
above k have their k-faces counted.  r[k] is one full row, built on the
first query for k, so each face's k-faces are counted once per k.

The DP visits fewer than the 3^d pairs (prefix A, block B), since it
keeps no states at [d] or where one element is left, and ANDs masks as
wide as the vertex count V.  The face map still charges 3^d * V to
`errors.WORK_BUDGET` through `errors.check_budget` before it builds
``tight``.  pi_6 charges 524 880 and is built, pi_7 charges 11 022 480
and is refused, and an 8-node hypergraphic polytope with 150 vertices
charges 984 150 and is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

from . import errors
from .errors import NotSubmodularError, check_budget, require_integer
from .polynomial import Polynomial, binomial_polynomial, binomial_sum
from .rational import RatVec, affine_rank, format_rat
from .report import Report
from .setfn import SetFn


def vertices(z: SetFn) -> tuple[RatVec, ...]:
    """Greedy vertices over all chains, deduplicated and sorted lexicographically."""
    if not z.is_submodular:
        raise NotSubmodularError("set function is not submodular")
    scale, points = z.scaled[0], z.scaled_vertices
    value = {c: Fraction(c, scale) for c in {c for v in points for c in v}}
    return tuple(tuple(map(value.__getitem__, v)) for v in points)


def _bits(mask: int) -> list[int]:
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class Face(NamedTuple):
    """A face, canonicalized by its vertex-id mask: bit v is set for each
    vertex id v tight on every prefix of any composition whose directions
    it maximizes, the AND of ``tight`` over those prefixes.  ``dim`` is d
    minus the most blocks among these compositions: its normal cone, of
    dimension d - dim, is the union of their braid cones, and a braid cone
    with j blocks has dimension j."""

    mask: int
    dim: int

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        """The vertex ids of the face, in increasing order."""
        return tuple(_bits(self.mask))


# a Face from a (mask, dim) pair, without the named tuple's Python-level __new__
_face_from_pair = partial(tuple.__new__, Face)


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
    weights by binom(m, j).  A `Face` is a face mask with its dimension, as
    the map keeps it.  Construction and queries are single-threaded:
    queries fill the caches on first use (the face map, the k-face index of
    each k and the row r[k] of `reciprocity_rhs`, one full row per k), so
    they are not read-only.  One `GPerm` may serve many requests (the CLI
    keeps the last one it built), so each cache entry is built aside and
    stored only once complete: a query cut short, by a refused budget or an
    interrupt, leaves no partial entry for a later query to read.
    """

    def __init__(self, z: SetFn):
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        self._scaled_vertices = z.scaled_vertices  # the vertices times L, in the same order
        self._k_face_index: dict[int, dict[int, list[int]]] = {}  # k -> lowest bit -> k-faces
        self._rhs_rows: dict[int, list[int]] = {}  # k -> r[k]

    @property
    def dimension(self) -> int:
        return affine_rank(self._scaled_vertices)

    @cached_property
    def _face_map(self) -> _FaceMap:
        """The tight sets and the flag DP over them, its 3^d subset pairs
        times the vertex count charged to the work budget first.  The whole
        polytope's dimension from its block counts must equal the affine
        rank of all vertices, or the map raises RuntimeError."""
        d, n = self.d, len(self.vertices)
        check_budget(3 ** d * n, errors.WORK_BUDGET,
                     f"face-map steps (3^{d} subset pairs times {n} vertices)")
        full = (1 << d) - 1
        values = self.z.scaled[1]
        by_value: list[dict[int, int]] = [{} for _ in range(d)]  # i -> L * v_i -> ids
        for vid, v in enumerate(self._scaled_vertices):
            for i, c in enumerate(v):
                by_value[i][c] = by_value[i].get(c, 0) | 1 << vid
        tight = [(1 << n) - 1] + [0] * full
        for s in range(1, full + 1):
            for i in _bits(s):
                prev = s ^ 1 << i
                tight[s] |= tight[prev] & by_value[i].get(values[s] - values[prev], 0)
        # prefix set -> {(face mask so far, #blocks): compositions of the prefix},
        # for the prefixes with two elements or more left; a composition is
        # closed into blocks once only its last block is left, as ANDing
        # tight[full], which holds every id, keeps its face
        states: list[dict[tuple[int, int], int]] = [{} for _ in range(full)]
        states[0][(tight[0], 0)] = 1
        blocks: dict[int, list[int]] = {}
        for a in range(full):
            prefix = states[a]
            if not prefix:
                continue
            rest = full ^ a
            for (f, j), count in prefix.items():  # the rest as the last block
                hist = blocks.get(f)
                if hist is None:
                    hist = blocks[f] = [0] * (d + 1)
                hist[j + 1] += count
            b = (rest - 1) & rest
            while b:
                left = rest ^ b
                t = tight[a | b]
                if left & (left - 1):
                    nxt = states[a | b]
                    for (f, j), count in prefix.items():
                        key = (f & t, j + 1)
                        nxt[key] = nxt.get(key, 0) + count
                else:  # one element left: close with it as the last block
                    for (f, j), count in prefix.items():
                        g = f & t
                        hist = blocks.get(g)
                        if hist is None:
                            hist = blocks[g] = [0] * (d + 1)
                        hist[j + 2] += count
                b = (b - 1) & rest
            states[a] = {}
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
        """The k-face masks keyed by their lowest set bit, the bit of their
        lowest vertex id, indexed on the first query for k."""
        index = self._k_face_index.get(k)
        if index is None:
            index = {}
            for g in self._face_map.by_dim[k]:
                index.setdefault(g & -g, []).append(g)
            self._k_face_index[k] = index
        return index

    def face_lattice(self) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        return tuple(map(_face_from_pair, self._face_map.dims.items()))

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``).  ``face`` must be a
        face mask of this polytope with its dimension, or ValueError is
        raised.  For k = 0 the count is the number of vertices of ``face``.
        Otherwise a k-face lies in ``face`` only if its lowest vertex does,
        so only the k-faces keyed by the set bits of ``face`` are tested."""
        require_integer("k", k, 0)
        f, dim = face
        if self._face_map.dims.get(f) != dim:
            raise ValueError("not a face of this polytope")
        if k > dim:
            return 0
        if k == 0:
            return f.bit_count()
        by_low = self._k_faces_by_lowest_vertex(k)
        outside = ~f
        count = 0
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            for g in by_low.get(low, ()):
                if not g & outside:
                    count += 1
        return count

    def chi_count(self, k: int, m: int) -> int:
        """Number of directions in [m]^d whose maximal face is k-dimensional."""
        require_integer("k", k, 0, self.d - 1)
        return binomial_sum(self._chi_table[k], m)

    def chi_polynomial(self, k: int) -> Polynomial:
        """The direction count sum_j a[k][j] * binom(m, j) as a polynomial in
        m, of degree <= d-k."""
        require_integer("k", k, 0, self.d - 1)
        return binomial_polynomial(self._chi_table[k])

    def reciprocity_rhs(self, k: int, m: int) -> int:
        """Sum over all directions in [m]^d of the number of k-faces of the
        face maximizing that direction, sum_j r[k][j] * binom(m, j).  r[k]
        starts as a[k], each k-face holding only itself, and adds every face
        of dimension above k weighted by its k-face count, once per k."""
        require_integer("k", k, 0, self.d - 1)
        require_integer("m", m, 1)
        row = self._rhs_rows.get(k)
        if row is None:
            _, dims, blocks, _ = self._face_map
            row = list(self._chi_table[k])
            for f, hist in blocks.items():
                dim = dims[f]
                if dim > k:
                    n = self.count_k_faces(Face(f, dim), k)
                    for j, c in enumerate(hist):
                        row[j] += n * c
            self._rhs_rows[k] = row
        return binomial_sum(row, m)

    def verify_reciprocity(self, k: int, m_max: int) -> tuple[Polynomial, Report]:
        """Check the interpolated count forwards against the direct count and
        backwards (sign-alternating evaluation at -m) against the weighted
        face count, for m = 1..m_max; returns the polynomial and the report."""
        require_integer("k", k, 0, self.d - 1)
        require_integer("m_max", m_max, 1)
        poly = self.chi_polynomial(k)
        odd = (self.d - k) % 2  # (-1)^(d-k) poly(-m) is poly(-m), negated when d - k is odd
        report = Report()
        for m in range(1, m_max + 1):
            report.check(f"k={k} forward m={m}", poly(m), self.chi_count(k, m))
        for m in range(1, m_max + 1):
            report.check(f"k={k} negative m={m}", -poly(-m) if odd else poly(-m),
                         self.reciprocity_rhs(k, m))
        return poly, report


class FaceRows(list):
    """The faces of a `faces` report, each a dict {"dim": k, "vertices":
    [ids]} with its keys in that order.  It is a list like any other, but
    `cli.dumps` writes each row that fits that shape with one template."""


def face_lattice_to_json(P: GPerm) -> dict:
    """The fields of the `faces` report: d, the vertices as exact rationals
    and one row per face, by dimension and then by vertex-id list."""
    by_dim: list[list[list[int]]] = [[] for _ in range(P.d)]
    for mask, dim in P.face_lattice():
        by_dim[dim].append(_bits(mask))
    faces = FaceRows()
    for k, rows in enumerate(by_dim):
        rows.sort()
        faces += [{"dim": k, "vertices": ids} for ids in rows]
    return {
        "d": P.d,
        "vertices": [list(map(format_rat, v)) for v in P.vertices],
        "faces": faces,
    }
