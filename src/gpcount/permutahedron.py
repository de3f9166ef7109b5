"""Generalized permutahedra realized from submodular set functions.

Everything below runs on integers.  z is scaled once by the lcm L of its
denominators (`SetFn.scaled`).  A chain {i_1} < {i_1, i_2} < ... of the ground set gives its
greedy vertex, coordinate i_j getting the marginal value of i_j on the prefix
before it.  The chains are walked once per set function, on the integers
L * z, and their sorted distinct vertices are cached as integer tuples
(`SetFn.scaled_vertices`).  `vertices(z)` divides them by L with one
`Fraction` per distinct coordinate value; a vertex id is an index into
either.  The face map and the dimension check read the integer tuples, and
the `faces` report writes them with one `str(Fraction(c, L))` per distinct
value c.

A linear direction y is maximized on the face of the points tight on every
upper level set of y: x(S) = z(S) for each S in the flag of y.  So a face is
an intersection of tight sets.  ``tight[S]`` is the bitmask of the vertex
ids v with v(S) = z(S), laid out as a face mask is (below), and the face of
y is the AND of ``tight`` over the prefixes of its level-set composition
(its blocks of equal value, largest value first).  A vertex's tight sets are closed under union and intersection
and hold the maximal chain of its greedy order, so a nonempty tight set S
has an element i with S - i tight: intersect S with that chain.  Hence
``tight[S]`` is the OR over i in S of ``tight[S - i]`` ANDed with the ids v
whose scaled coordinate L * v_i is L * (z(S) - z(S - i)), read from the
vertex ids grouped by coordinate value.  No linear optimization is needed.
``tight`` is built once per polytope (`GPerm.tight`), without a budget of
its own, and shared: the face map below reads it, and so does
`ehrhart.normal_fan_of`, which reads the normal fan's root rows off it.

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

A face is its vertex-id mask.  For V vertices the mask holds a sentinel,
bit V, and bit V - 1 - v for each vertex id v in the face, so that
`format(mask, "b")` is "1" followed by the face's incidence row, one digit
per vertex id in increasing order.  ``tight`` of the empty set holds the
sentinel and every id, every other ``tight[S]`` starts as the sentinel
alone, and an AND keeps it, so every face mask holds it and names its own
vertex count, its bit length less one.  The face map keeps each mask with
its dimension, and the masks of each dimension in one list; row k of the
table a is the column sum of the histograms of the k-faces.  A `Face` is
the named tuple of the mask and the dimension, so `count_k_faces` checks
one with a single lookup, and sorted vertex ids are read off a mask only
for a person to read (`Face.vertex_ids`, the `faces` report).  The `faces`
report lists the faces by dimension and, within one dimension, by their
lists of vertex ids, as `sorted((dim, ids))` would.  No face contains
another of its dimension, so within one dimension the masks in decreasing
order are the id lists in increasing order: `faces_report` groups the
faces by dimension and sorts each group on plain int compares, with no
key and no id list built.  Its faces are the `Face` values themselves, and
`cli.dumps` writes each as {"dim", "vertices"}, its ids read off the mask
from the top bit down into one template.  The 0-faces in a face are its
vertices, so `count_k_faces(f, 0)` is the number of set bits of f less
the sentinel.  For k >= 1 a k-face lies in a face f only if the vertex of
its lowest set bit does, so the k-faces are indexed by their lowest set
bit, for every k >= 1 in one pass on the first query with k >= 1, and the
k-faces in f are found by walking the set bits of f over that index.  `reciprocity_rhs(k, m)` is
sum_j r[k][j] * binom(m, j), like `chi_count`, with r[k] the column sums
of the faces' histograms weighted by their k-face counts.  A face of
dimension below k holds no k-face and one of dimension k holds only
itself, so r[k] starts as a copy of a[k] and only the faces of dimension
above k have their k-faces counted.  r[k] is one full row, built on the
first query for k, so each face's k-faces are counted once per k.

The DP visits fewer than the 3^d pairs (prefix A, block B), since it
keeps no states at [d] or where one element is left, and ANDs masks as
wide as the vertex count V.  The face map still charges 3^d * V to
`errors.WORK_BUDGET` through `errors.check_budget` before it reads
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
from .rational import RatVec, affine_rank
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
    """A face, canonicalized by its vertex-id mask, the AND of ``tight``
    over the prefixes of any composition whose directions it maximizes: for
    V vertices, the sentinel bit V and bit V - 1 - v for each vertex id v
    tight on every one of those prefixes, so the mask's binary digits are
    "1" and then its incidence row in id order.  ``dim`` is d
    minus the most blocks among these compositions: its normal cone, of
    dimension d - dim, is the union of their braid cones, and a braid cone
    with j blocks has dimension j.  `cli.dumps` writes a Face as
    {"dim": dim, "vertices": [ids]}, its ids in increasing order."""

    mask: int
    dim: int

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        """The vertex ids of the face, in increasing order: the places of
        the 1s after the sentinel in the mask's binary digits.  A mask below
        2 or holding only the sentinel bit raises ValueError, as `cli.dumps`
        does: no polytope has a face without vertices."""
        if self.mask < 2 or not self.mask & self.mask - 1:
            raise ValueError("a face has at least one vertex")
        return tuple(vid for vid, bit in enumerate(format(self.mask, "b")[1:]) if bit == "1")


# a Face from a (mask, dim) pair, without the named tuple's Python-level __new__
_face_from_pair = partial(tuple.__new__, Face)


class _FaceMap(NamedTuple):
    dims: dict[int, int]            # vertex-id mask -> dimension of that face
    blocks: dict[int, list[int]]    # vertex-id mask -> its compositions by number of blocks
    by_dim: list[list[int]]         # k -> the masks of the k-faces


class GPerm:
    """A generalized permutahedron; its tight sets and face map are built
    on first use.

    Vertex ids index the sorted ``vertices``.  ``tight[S]`` is the mask of
    the vertex ids v with v(S) = z(S), laid out as a `Face` mask is, with
    the sentinel bit on top and id 0 just below it, built once and read by
    both the face map and `ehrhart.normal_fan_of`.  The face map holds for each face mask
    its dimension and its compositions counted by number of blocks j (index
    j), and the face masks of each dimension; summed over the faces of
    dimension k the histograms give the table a[k][j] that `chi_count`
    weights by binom(m, j).  A `Face` is a face mask with its dimension, as
    the map keeps it.  Construction and queries are single-threaded:
    queries fill the caches on first use (``tight``, the face map, and the
    k-face index of every k >= 1 at once; only the row r[k] of
    `reciprocity_rhs` is still built per k, one full row on the first query
    for k), so they are not read-only.  One `GPerm` may serve many
    requests (the CLI keeps the last one it built), so each cache entry is
    built aside and stored only once complete: a query cut short, by a
    refused budget or an interrupt, leaves no partial entry for a later
    query to read.
    """

    def __init__(self, z: SetFn):
        self.z = z
        self.d = z.d
        self.vertices: tuple[RatVec, ...] = vertices(z)
        self._rhs_rows: dict[int, list[int]] = {}  # k -> r[k]

    @property
    def dimension(self) -> int:
        return affine_rank(self.z.scaled_vertices)

    @cached_property
    def tight(self) -> list[int]:
        """tight[S]: the mask of the vertex ids v with v(S) = z(S), for each
        subset mask S, the OR over i in S of tight[S - i] ANDed with the ids
        whose scaled coordinate i is L * (z(S) - z(S - i))."""
        d = self.d
        values = self.z.scaled[1]
        n = len(self.vertices)
        by_value: list[dict[int, int]] = [{} for _ in range(d)]  # i -> L * v_i -> ids
        for vid, v in enumerate(self.z.scaled_vertices):
            for i, c in enumerate(v):
                by_value[i][c] = by_value[i].get(c, 0) | 1 << n - 1 - vid
        # every mask holds the sentinel 1 << n, tight[0] every id as well
        tight = [(1 << n + 1) - 1] + [1 << n] * ((1 << d) - 1)
        for s in range(1, 1 << d):
            for i in _bits(s):
                prev = s ^ 1 << i
                tight[s] |= tight[prev] & by_value[i].get(values[s] - values[prev], 0)
        return tight

    @cached_property
    def _face_map(self) -> _FaceMap:
        """The flag DP over the tight sets, its 3^d subset pairs times the
        vertex count charged to the work budget before ``tight`` is read.
        The whole polytope's dimension from its block counts must equal the
        affine rank of all vertices, or the map raises RuntimeError."""
        d, n = self.d, len(self.vertices)
        check_budget(3 ** d * n, errors.WORK_BUDGET,
                     "face-map steps (3^{} subset pairs times {} vertices)", d, n)
        full = (1 << d) - 1
        tight = self.tight
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
        return _FaceMap(dims, blocks, by_dim)

    @cached_property
    def _chi_table(self) -> list[list[int]]:
        """a[k][j]: compositions with j blocks whose face has dimension k,
        the column sums of the k-faces' histograms (empty without k-faces)."""
        fm = self._face_map
        return [list(map(sum, zip(*map(fm.blocks.__getitem__, faces))))
                for faces in fm.by_dim]

    @cached_property
    def _faces_by_lowest_vertex(self) -> list[dict[int, list[int]]]:
        """For each k >= 1, the k-face masks keyed by their lowest set bit,
        the bit of their highest vertex id; entry 0 stays empty, as
        `count_k_faces` reads vertices off the mask."""
        index: list[dict[int, list[int]]] = [{} for _ in range(self.d)]
        for k, faces in enumerate(self._face_map.by_dim[1:], 1):
            for g in faces:
                index[k].setdefault(g & -g, []).append(g)
        return index

    def face_lattice(self) -> tuple[Face, ...]:
        """Every nonempty face exactly once, the polytope itself included."""
        return tuple(map(_face_from_pair, self._face_map.dims.items()))

    def count_k_faces(self, face: Face, k: int) -> int:
        """Number of k-dimensional faces of this polytope contained in ``face``
        (0 whenever k exceeds the dimension of ``face``).  ``face`` must be a
        face mask of this polytope with its dimension, or ValueError is
        raised.  For k = 0 the count is the number of vertices of ``face``.
        Otherwise a k-face lies in ``face`` only if the vertex of its lowest
        set bit does, so only the k-faces keyed by the set bits of ``face``
        are tested."""
        require_integer("k", k, 0)
        f, dim = face
        if self._face_map.dims.get(f) != dim:
            raise ValueError("not a face of this polytope")
        if k > dim:
            return 0
        if k == 0:
            return f.bit_count() - 1  # all but the sentinel
        by_low = self._faces_by_lowest_vertex[k]
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
            dims, blocks, _ = self._face_map
            row = list(self._chi_table[k])
            for f, hist in blocks.items():
                dim = dims[f]
                if dim > k:
                    n = self.count_k_faces(_face_from_pair((f, dim)), k)
                    for j, c in enumerate(hist):
                        row[j] += n * c
            self._rhs_rows[k] = row
        return binomial_sum(row, m)

    def verify_reciprocity(self, k: int, m_max: int) -> tuple[Polynomial, Report]:
        """Check the interpolated count forwards against the direct count,
        then its reflection (-1)^(d-k) poly(-m) against the weighted face
        count through `Report.reflections`, for m = 1..m_max; returns the
        polynomial and the report.  Its 2 * m_max checks are charged to
        `errors.LOOP_BUDGET` before the first."""
        require_integer("k", k, 0, self.d - 1)
        require_integer("m_max", m_max, 1)
        check_budget(2 * m_max, errors.LOOP_BUDGET, "checks")
        poly = self.chi_polynomial(k)
        report = Report()
        for m in range(1, m_max + 1):
            report.check(f"k={k} forward m={m}", poly(m), self.chi_count(k, m))
        return poly, report.reflections(f"k={k} negative m=", poly, self.d - k,
                                        lambda m: self.reciprocity_rhs(k, m), m_max)


def faces_report(P: GPerm) -> dict:
    """The fields of the `faces` report: d, the vertices as exact rationals
    and the `Face`s, which `cli.dumps` writes as {"dim", "vertices"} rows,
    by dimension and then by sorted vertex-id list.  No face contains
    another of its dimension, so where the digits of two masks of one
    dimension first differ, after the sentinel, neither id list has ended:
    the face holding that id has the larger mask and the smaller list, and
    the masks in decreasing order are the id lists in increasing order.
    The vertices are written from the scaled ones, with one string per
    distinct value."""
    by_dim: list[list[Face]] = [[] for _ in range(P.d)]
    for face in P.face_lattice():
        by_dim[face.dim].append(face)
    faces: list[Face] = []
    for rows in by_dim:
        rows.sort(reverse=True)
        faces += rows
    scale, points = P.z.scaled[0], P.z.scaled_vertices
    text = {c: str(Fraction(c, scale)) for c in {c for v in points for c in v}}
    return {
        "d": P.d,
        "vertices": [list(map(text.__getitem__, v)) for v in points],
        "faces": faces,
    }
