import functools
import itertools
import random
import warnings
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest

from gpcount import permutahedron
from gpcount.errors import BudgetExceededError, NotSubmodularError
from gpcount.generators import random_hypergraphic_setfn
from gpcount.hypergraph import Hypergraph, hypergraphic_setfn
from gpcount.permutahedron import Face, GPerm, face_lattice_to_json, vertices
from gpcount.report import Report
from gpcount.setfn import SetFn, standard_perm_setfn
from oracles import (
    all_pass,
    argmax_face,
    chain_cut_faces,
    comp_coarsens,
    compositions,
    direction_face_visits,
    face_rank,
    greedy_vertex,
    representative_direction,
    setfn_sum,
    tight_sets_by_subset_sums,
)


def perm_gp(d):
    return GPerm(standard_perm_setfn(d))


def point_gp(d):
    return GPerm(SetFn(d, (0,) * (1 << d)))


def test_composition_of_direction():
    # ties and rational values: the face depends only on the level sets
    P = perm_gp(3)
    rational = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    cases = [((5, 5, 2), ((1, 2), (3,))), ((1, 2, 3), ((3,), (2,), (1,))),
             ((2, 2, 2), ((1, 2, 3),)), (rational, ((1, 3), (2,)))]
    for y, blocks in cases:
        face = P.face_of_direction(y)
        assert face == P.face_of_direction(representative_direction(blocks))
        assert (face.vertex_ids, face.dim) == argmax_face(P, blocks)
    assert P.face_of_direction((5, 5, 2)).dim == 1
    assert P.face_of_direction(rational).dim == 1


def test_composition_counts():
    # ordered Bell numbers
    for d, expected in [(1, 1), (2, 3), (3, 13), (4, 75)]:
        comps = compositions(d)
        assert len(comps) == expected
        assert len(set(comps)) == expected


def test_vertices_examples():
    expected = sorted(itertools.permutations((1, 2, 3)))
    assert vertices(standard_perm_setfn(3)) == tuple(tuple(map(Fraction, p)) for p in expected)
    assert vertices(SetFn(2, (0, 0, 0, 0))) == ((0, 0),)
    single = hypergraphic_setfn(Hypergraph(3, (frozenset({1, 2, 3}),)))
    assert vertices(single) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    with pytest.raises(NotSubmodularError):
        vertices(SetFn(2, (0, 0, 0, 1)))


def non_integer_setfn(rng, max_d):
    """A random hypergraphic set function plus a non-integer multiple of
    the standard one."""
    z = random_hypergraphic_setfn(rng, max_d=max_d)
    scale = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    scaled = SetFn(z.d, tuple(scale * v for v in standard_perm_setfn(z.d).values))
    return setfn_sum(z, scaled)


def test_vertices_match_greedy_oracle():
    # the integer chain pass against Fraction greedy vertices, chain by chain
    rng = random.Random(47)
    cases = [standard_perm_setfn(d) for d in range(1, 6)]
    cases += [random_hypergraphic_setfn(rng, max_d=5) for _ in range(10)]
    scaled = []
    while len(scaled) < 10:
        z = random_hypergraphic_setfn(rng, max_d=5)
        scale = Fraction(rng.randint(1, 9), rng.randint(2, 7))
        z = SetFn(z.d, tuple(scale * v for v in z.values))
        if lcm(*(v.denominator for v in z.values)) > 1:
            scaled.append(z)
    for z in cases + scaled:
        chains = itertools.permutations(range(1, z.d + 1))
        assert vertices(z) == tuple(sorted({greedy_vertex(z, perm) for perm in chains}))


def test_vertices_make_one_fraction_per_value(monkeypatch):
    # pi_6 has 720 vertices of 6 coordinates each, but only 6 distinct values
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    z = standard_perm_setfn(6)
    monkeypatch.setattr(permutahedron, "Fraction", counting)
    V = vertices(z)
    assert len(V) == 720
    assert len(made) <= len({c for v in V for c in v}) == 6


def test_scaled_vertices_are_vertices_times_scale():
    rng = random.Random(61)
    cases = []
    while len(cases) < 10:
        z = non_integer_setfn(rng, max_d=6)
        if z.d >= 5 and z.scaled[0] > 1:
            cases.append(z)
    assert {z.d for z in cases} == {5, 6}
    for z in cases:
        P = GPerm(z)
        scale = z.scaled[0]
        assert all(type(c) is int for v in P._scaled_vertices for c in v)
        assert P._scaled_vertices == tuple(tuple(scale * c for c in v) for v in P.vertices)


def test_gperm_dimension():
    assert perm_gp(3).dimension == 2
    assert point_gp(2).dimension == 0


def test_face_of_direction():
    P = perm_gp(3)
    whole = P.face_of_direction((1, 1, 1))
    assert len(whole.vertex_ids) == 6
    assert whole.dim == 2
    v = P.face_of_direction((3, 2, 1))
    assert [P.vertices[i] for i in v.vertex_ids] == [(3, 2, 1)]
    assert v.dim == 0
    e = P.face_of_direction((2, 2, 1))
    assert sorted(P.vertices[i] for i in e.vertex_ids) == [(2, 3, 1), (3, 2, 1)]
    assert e.dim == 1
    with pytest.raises(ValueError):
        P.face_of_direction((1, 1))


def test_direction_and_composition_agree():
    # an order-preserving change of the values keeps the level sets, so the face
    P = perm_gp(3)
    for blocks in compositions(3):
        y = representative_direction(blocks)
        moved = [Fraction(3 * c - 7, 2) for c in y]
        assert P.face_of_direction(y) == P.face_of_direction(moved)


def test_face_lattice_counts():
    assert len(perm_gp(2).face_lattice()) == 3
    assert len(point_gp(2).face_lattice()) == 1
    faces = perm_gp(3).face_lattice()
    assert len(faces) == 13
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 6, 1: 6, 2: 1}


def test_whole_polytope_face():
    for P in (perm_gp(3), point_gp(2), GPerm(hypergraphic_setfn(
            Hypergraph(3, (frozenset({1, 2}), frozenset({2, 3})))))):
        faces = P.face_lattice()
        full = [f for f in faces if len(f.vertex_ids) == len(P.vertices)]
        assert len(full) == 1
        assert P.face_of_direction((1,) * P.d) == full[0]
        # face identity is the vertex set, so ids are unique
        assert len({f.vertex_ids for f in faces}) == len(faces)


def test_face_monotonicity():
    faces = perm_gp(3).face_lattice()
    for f, g in itertools.permutations(faces, 2):
        if set(f.vertex_ids) <= set(g.vertex_ids):
            assert f.dim <= g.dim


def test_count_k_faces():
    P = perm_gp(3)
    whole = P.face_of_direction((1, 1, 1))
    assert P.count_k_faces(whole, 0) == 6
    assert P.count_k_faces(whole, 1) == 6
    assert P.count_k_faces(whole, 2) == 1
    edge = P.face_of_direction((2, 2, 1))
    assert P.count_k_faces(edge, 0) == 2
    assert P.count_k_faces(edge, 1) == 1
    assert P.count_k_faces(edge, 2) == 0  # k above the face's own dimension
    vert = P.face_of_direction((3, 2, 1))
    assert P.count_k_faces(vert, 0) == 1
    with pytest.raises(ValueError):
        P.count_k_faces(edge, -1)
    # a negative mask, the empty mask, a bit past the last vertex id, and
    # the union of two vertices that span no edge: (1, 2, 3) and (3, 2, 1)
    opposite = 1 | 1 << 5
    assert [P.vertices[i] for i in Face(opposite, 1).vertex_ids] == [(1, 2, 3), (3, 2, 1)]
    assert opposite not in {f.mask for f in P.face_lattice()}
    for mask in (-1, 0, 1 << len(P.vertices), opposite):
        for dim in range(3):
            with pytest.raises(ValueError, match="not a face of this polytope"):
                P.count_k_faces(Face(mask, dim), 0)


def test_count_k_faces_rejects_wrong_dim():
    # a Face with the mask of a real face but another dim is no face of P
    P = perm_gp(3)
    edge = P.face_of_direction((2, 2, 1))
    for dim in (0, 2):
        with pytest.raises(ValueError, match="not a face"):
            P.count_k_faces(Face(edge.mask, dim), 0)
    assert P.count_k_faces(Face(edge.mask, 1), 0) == 2


def test_chi_count_examples():
    P = perm_gp(3)
    assert P.chi_count(0, 3) == 6
    assert P.chi_count(0, 2) == 0
    assert point_gp(2).chi_count(0, 3) == 9
    with pytest.raises(ValueError):
        P.chi_count(3, 2)
    with pytest.raises(ValueError):
        P.chi_count(0, 0)


def test_chi_polynomial_examples():
    assert perm_gp(3).chi_polynomial(0).coefficients == (0, 2, -3, 1)
    assert point_gp(2).chi_polynomial(0).coefficients == (0, 0, 1)
    assert perm_gp(2).chi_polynomial(1).coefficients == (0, 1)


def test_chi_partition():
    rng = random.Random(19)
    cases = [perm_gp(3), GPerm(random_hypergraphic_setfn(rng, max_d=4))]
    for P in cases:
        for m in range(1, 4):
            assert sum(P.chi_count(k, m) for k in range(P.d)) == m ** P.d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_point_polytope_tables(d):
    # one face, of dimension 0: every list of k-faces with k >= 1 is empty
    P = point_gp(d)
    faces = P.face_lattice()
    assert faces == (Face(1, 0),)
    for k in range(1, d):
        assert P.chi_polynomial(k).coefficients == ()
    for m in range(1, 4):
        visits = direction_face_visits(P, m)
        assert P.chi_count(0, m) == m ** d
        for k in range(d):
            if k:
                assert P.chi_count(k, m) == 0
            assert P.reciprocity_rhs(k, m) == sum(
                n * sum(1 for g in faces if g.dim == k and set(g.vertex_ids) <= set(ids))
                for ids, n in visits.items())


def test_face_is_an_immutable_value():
    face = Face(mask=0b101, dim=1)
    assert face == Face(5, 1) and face != Face(5, 0)
    assert face.mask == 5 and face.dim == 1 and face.vertex_ids == (0, 2)
    assert hash(face) == hash(Face(5, 1))
    assert len({face, Face(5, 1), Face(9, 1)}) == 2
    for field in ("mask", "dim", "vertex_ids"):
        with pytest.raises(AttributeError):
            setattr(face, field, 0)


def test_face_ids_match_mask_and_id_tuples_are_refused():
    # every face's sorted ids spell its mask, and a Face built the old way,
    # from a tuple of vertex ids, is no face of the polytope at any k
    rng = random.Random(71)
    cases = [standard_perm_setfn(d) for d in range(1, 7)]
    while len(cases) < 8:
        z = random_hypergraphic_setfn(rng, max_d=6)
        if z.d == 6:
            cases.append(z)
    for z in cases:
        P = GPerm(z)
        for f in P.face_lattice():
            ids = f.vertex_ids
            assert list(ids) == sorted(set(ids)) and set(ids) <= set(range(len(P.vertices)))
            assert f.mask == sum(1 << i for i in ids)
            for k in range(P.d):
                with pytest.raises(ValueError, match="not a face of this polytope"):
                    P.count_k_faces(Face(ids, f.dim), k)


def test_chi_degree():
    for d in range(2, 6):
        P = perm_gp(d)
        for k in range(d):
            assert P.chi_polynomial(k).degree == d - k


def test_direction_counts_match_scan():
    # the composition sums against a scan of all of [m]^d, also for
    # m > d - k + 1, where the forward check is not implied by interpolation
    rng = random.Random(37)
    cases = [perm_gp(d) for d in range(1, 5)]
    cases += [GPerm(random_hypergraphic_setfn(rng, max_d=4)) for _ in range(10)]
    for P in cases:
        faces = {f.vertex_ids: f for f in P.face_lattice()}
        for m in range(1, P.d + 3):
            visits = direction_face_visits(P, m)
            for k in range(P.d):
                assert P.chi_count(k, m) == sum(
                    n for ids, n in visits.items() if faces[ids].dim == k)
                assert P.reciprocity_rhs(k, m) == sum(
                    n * sum(1 for g in faces.values()
                            if g.dim == k and set(g.vertex_ids) <= set(ids))
                    for ids, n in visits.items())


def test_k_face_counts_match_containment_at_d5_d6():
    # the lowest-vertex index against mask containment over every pair of
    # faces, on fresh polytopes queried in two orders: reciprocity_rhs before
    # face_lattice() and after; the lazily built faces, index and counts must
    # not depend on which query comes first
    rng = random.Random(61)

    def seeded_d6():
        while True:
            z = random_hypergraphic_setfn(rng, max_d=6)
            if z.d == 6:
                return z

    # sums of three draws (a sum of hypergraphic set functions is one):
    # single draws at d = 6 are mostly polytopes with a few dozen faces
    cases = [standard_perm_setfn(5)]
    cases += [functools.reduce(setfn_sum, [seeded_d6() for _ in range(3)]) for _ in range(2)]
    while len(cases) < 4:
        z = non_integer_setfn(rng, max_d=5)
        if z.d == 5:
            cases.append(z)
    for z in cases:
        ref = GPerm(z)
        faces = ref.face_lattice()
        mask = {f: sum(1 << i for i in f.vertex_ids) for f in faces}
        inside = {f: Counter(g.dim for g in faces if not mask[g] & ~mask[f]) for f in faces}
        pairs = [(k, m) for k in range(z.d) for m in range(1, 4)]
        expected = {}
        for m in range(1, 4):
            visits = Counter(ref.face_of_direction(y)
                             for y in itertools.product(range(1, m + 1), repeat=z.d))
            for k in range(z.d):
                expected[(k, m)] = sum(n * inside[f][k] for f, n in visits.items())
        for rhs_first in (True, False):
            P = GPerm(z)
            rhs = {km: P.reciprocity_rhs(*km) for km in pairs} if rhs_first else {}
            for f in P.face_lattice():
                for k in range(z.d + 1):
                    assert P.count_k_faces(f, k) == inside[f][k]
            if not rhs_first:
                rhs = {km: P.reciprocity_rhs(*km) for km in pairs}
            assert rhs == expected


def test_reciprocity_rhs_rows_in_any_call_order():
    # the per-k rows, grown by fewest-block groups on the first m that needs
    # them, against a scan of [m]^d on fresh polytopes queried in several
    # orders: m descending, m interleaved across k, a seeded shuffle, and
    # split by face_lattice() and count_k_faces calls.  pi_4 goes up to
    # m = 6, past its last fewest-block group; pi_5 and the seeded d = 5
    # polytopes up to m = 5, their last groups, where faces of dimension k
    # and below are reached for k = 0 and 1
    rng = random.Random(67)
    cases = [(standard_perm_setfn(4), 6), (standard_perm_setfn(5), 5)]
    while len(cases) < 4:
        z = random_hypergraphic_setfn(rng, max_d=5)
        if z.d == 5:
            cases.append((z, 5))
    for z, m_top in cases:
        ref = GPerm(z)
        faces = ref.face_lattice()
        inside = {f.vertex_ids: Counter(g.dim for g in faces
                                        if set(g.vertex_ids) <= set(f.vertex_ids))
                  for f in faces}
        expected = {}
        for m in range(1, m_top + 1):
            visits = direction_face_visits(ref, m)
            for k in range(z.d):
                expected[(k, m)] = sum(n * inside[ids][k] for ids, n in visits.items())
        pairs = sorted(expected)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        orders = [
            sorted(pairs, key=lambda km: (km[0], -km[1])),  # m descending per k
            sorted(pairs, key=lambda km: (km[1], -km[0])),  # m interleaved across k
            shuffled,
        ]
        for order in orders:
            P = GPerm(z)
            assert {km: P.reciprocity_rhs(*km) for km in order} == expected
        half = len(shuffled) // 2
        P = GPerm(z)
        got = {km: P.reciprocity_rhs(*km) for km in shuffled[:half]}
        for f in P.face_lattice():
            for k in range(z.d):
                assert P.count_k_faces(f, k) == inside[f.vertex_ids][k]
        got.update({km: P.reciprocity_rhs(*km) for km in shuffled[half:]})
        assert got == expected
        assert {km: P.reciprocity_rhs(*km) for km in pairs} == expected


def test_reciprocity_rhs_counts_each_face_once_per_k(monkeypatch):
    # a repeat call with m no larger than one already asked for that k makes
    # no count_k_faces call; a larger m counts only the faces it newly
    # selects, and only those of dimension above k: a face of dimension
    # below k holds no k-face and a k-face only itself.  Over every m each
    # such (face, k) is counted exactly once
    calls = Counter()
    real = GPerm.count_k_faces

    def counted(self, face, k):
        calls[(face, k)] += 1
        return real(self, face, k)

    monkeypatch.setattr(GPerm, "count_k_faces", counted)
    P = perm_gp(5)
    # pi_5's faces by fewest blocks: 1, 30, 150, 240, 120, of dimension 4
    # down to 0
    assert [len(g) for g in P._faces_by_fewest_blocks] == [0, 1, 30, 150, 240, 120]
    P.reciprocity_rhs(1, 3)
    assert sum(calls.values()) == 181 and set(calls.values()) == {1}
    for m in (3, 2, 1, 3):
        P.reciprocity_rhs(1, m)
    assert sum(calls.values()) == 181
    P.reciprocity_rhs(1, 4)  # the 240 edges have dimension 1 = k
    assert sum(calls.values()) == 181
    P.reciprocity_rhs(1, 7)  # the 120 vertices have dimension 0 < k
    assert sum(calls.values()) == 181
    P.verify_reciprocity(1, 5)
    assert sum(calls.values()) == 181
    for k in range(5):
        P.verify_reciprocity(k, 3)
        P.reciprocity_rhs(k, 5)
    assert Counter(k for _, k in calls) == {0: 421, 1: 181, 2: 31, 3: 1}
    assert len(calls) == 634 and set(calls.values()) == {1}
    assert all(face.dim > k for face, k in calls)


def test_faces_match_argmax_oracle():
    # the faces read off the chains against a dot-product argmax over all
    # vertices, with the dimension from an independent rank
    rng = random.Random(41)
    cases = [standard_perm_setfn(d) for d in range(1, 6)]
    cases += [random_hypergraphic_setfn(rng, max_d=4) for _ in range(12)]
    cases += [non_integer_setfn(rng, max_d=4) for _ in range(12)]
    for z in cases:
        P = GPerm(z)
        seen = set()
        for comp in compositions(P.d):
            face = P.face_of_direction(representative_direction(comp))
            assert (face.vertex_ids, face.dim) == argmax_face(P, comp)
            seen.add(face)
        assert seen == set(P.face_lattice())


def test_face_dimensions_at_d6_match_rank_oracle():
    # the dimensions from block counts against an independent rank of each
    # face's vertex differences, at the dimension the benchmark runs
    rng = random.Random(43)
    cases = [standard_perm_setfn(6)]
    while len(cases) < 3:
        z = random_hypergraphic_setfn(rng, max_d=6)
        if z.d == 6:
            cases.append(z)
    gperms = [GPerm(z) for z in cases]
    assert len(gperms[0].face_lattice()) == 4683
    for P in gperms:
        for face in P.face_lattice():
            assert face.dim == face_rank(P, face.vertex_ids)


def test_face_map_matches_chain_cut_oracle():
    # the tight-set DP against the chain-cut map, face by face and in the
    # direction counts; for m <= 3 only faces of compositions with at most
    # three blocks are selected
    rng = random.Random(53)
    cases = [standard_perm_setfn(6)]
    while len(cases) < 3:
        z = random_hypergraphic_setfn(rng, max_d=6)
        if z.d == 6:
            cases.append(z)
    cases += [non_integer_setfn(rng, max_d=5) for _ in range(3)]
    for z in cases:
        P = GPerm(z)
        ref = chain_cut_faces(P)
        most = Counter()
        for blocks, ids in ref.items():
            most[ids] = max(most[ids], len(blocks))
        dim = {ids: P.d - j for ids, j in most.items()}
        for comp in compositions(P.d):
            face = P.face_of_direction(representative_direction(comp))
            assert (face.vertex_ids, face.dim) == (ref[comp], dim[ref[comp]])
        assert {(f.vertex_ids, f.dim) for f in P.face_lattice()} == set(dim.items())
        by_blocks = Counter((ids, len(blocks)) for blocks, ids in ref.items())
        members = {ids: frozenset(ids) for ids in dim}
        inside = {}  # face selected for some m <= 3 -> its faces counted by dim
        for (ids, j) in by_blocks:
            if j <= 3 and ids not in inside:
                inside[ids] = Counter(dim[g] for g in dim if members[g] <= members[ids])
        for m in range(1, 4):
            for k in range(P.d):
                assert P.chi_count(k, m) == sum(
                    n * comb(m, j) for (ids, j), n in by_blocks.items() if dim[ids] == k)
                assert P.reciprocity_rhs(k, m) == sum(
                    n * comb(m, j) * inside[ids][k]
                    for (ids, j), n in by_blocks.items() if j <= m)


def test_tight_sets_match_subset_sum_oracle():
    # the one-element DP over tight sets against the subset sums of every
    # vertex, on pi_1..pi_6 and on non-integer z, whose scaled values differ
    rng = random.Random(59)
    cases = [standard_perm_setfn(d) for d in range(1, 7)]
    cases += [non_integer_setfn(rng, max_d=6) for _ in range(6)]
    assert any(any(v.denominator > 1 for v in z.values) for z in cases)
    for z in cases:
        P = GPerm(z)
        assert P._face_map.tight == tight_sets_by_subset_sums(P)


def test_face_map_checks_dimension_against_affine_rank(monkeypatch):
    true_rank = permutahedron.affine_rank
    monkeypatch.setattr(permutahedron, "affine_rank", lambda points: true_rank(points) + 1)
    with pytest.raises(RuntimeError, match="face dimensions disagree"):
        perm_gp(3).face_lattice()
    with pytest.raises(RuntimeError, match="face dimensions disagree"):
        point_gp(2).face_lattice()


def test_reciprocity_rhs_examples():
    assert perm_gp(3).reciprocity_rhs(0, 1) == 6
    assert perm_gp(2).reciprocity_rhs(0, 2) == 6
    assert point_gp(2).reciprocity_rhs(0, 2) == 4


def test_verify_reciprocity_passes():
    rng = random.Random(23)
    assert all_pass(perm_gp(3).verify_reciprocity(0, 4)[1])
    assert all_pass(perm_gp(3).verify_reciprocity(1, 3)[1])
    assert all_pass(perm_gp(3).verify_reciprocity(2, 3)[1])
    assert all_pass(point_gp(2).verify_reciprocity(0, 3)[1])
    P = GPerm(random_hypergraphic_setfn(rng, max_d=4))
    for k in range(P.d):
        assert all_pass(P.verify_reciprocity(k, 3)[1])


def test_verify_negative_control():
    fit, report = perm_gp(2).verify_reciprocity(0, 2)
    assert fit == perm_gp(2).chi_polynomial(0)
    assert all_pass(report)
    perturbed = Report()
    first = report.entries[0]
    perturbed.check(first.label, first.lhs, first.rhs + 1)
    assert perturbed.failures == 1
    assert not all_pass(perturbed)


def test_dimension_duality():
    # the finest composition mapped to a face has d - dim(face) blocks
    rng = random.Random(29)
    for P in (perm_gp(3), GPerm(random_hypergraphic_setfn(rng, max_d=4))):
        finest = {}
        for comp in compositions(P.d):
            face = P.face_of_direction(representative_direction(comp))
            blocks = len(comp)
            if blocks > finest.get(face.vertex_ids, 0):
                finest[face.vertex_ids] = blocks
        for face in P.face_lattice():
            assert finest[face.vertex_ids] == P.d - face.dim


def test_order_reversal():
    # every composition mapped to a bigger face coarsens one mapped to a
    # smaller face it contains
    rng = random.Random(31)
    for P in (perm_gp(3), GPerm(random_hypergraphic_setfn(rng, max_d=4))):
        mapped = {}
        for comp in compositions(P.d):
            face = P.face_of_direction(representative_direction(comp))
            mapped.setdefault(face.vertex_ids, []).append(comp)
        for f, g in itertools.permutations(P.face_lattice(), 2):
            if not set(f.vertex_ids) <= set(g.vertex_ids):
                continue
            for sigma in mapped[g.vertex_ids]:
                assert any(comp_coarsens(sigma, tau) for tau in mapped[f.vertex_ids])


def test_pairwise_edge_sum_is_translate_of_standard():
    # summing all pairs {i,j} gives the standard polytope shifted by -(1,1,1);
    # adding the three singleton edges restores it exactly
    pair_edges = [frozenset(e) for e in itertools.combinations(range(1, 4), 2)]
    z_pairs = hypergraphic_setfn(Hypergraph(3, tuple(pair_edges)))
    singles = [frozenset({i}) for i in range(1, 4)]
    z_single = hypergraphic_setfn(Hypergraph(3, tuple(singles)))
    assert setfn_sum(z_pairs, z_single) == standard_perm_setfn(3)

    P, Q = GPerm(z_pairs), perm_gp(3)
    assert [tuple(c + 1 for c in v) for v in P.vertices] == list(Q.vertices)
    # identical face structure: the translate has the same normal fan
    for comp in compositions(3):
        y = representative_direction(comp)
        assert P.face_of_direction(y).vertex_ids == Q.face_of_direction(y).vertex_ids


def test_enumeration_caps():
    big = GPerm(standard_perm_setfn(7))
    with pytest.raises(BudgetExceededError):
        big.face_lattice()
    with pytest.raises(BudgetExceededError):
        big.chi_count(0, 1)  # direction counts use the capped face lattice
    with pytest.raises(BudgetExceededError):
        big.face_of_direction((1,) * 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert perm_gp(2).chi_count(0, 9) == 72  # no cap on m


def test_face_lattice_json():
    doc = face_lattice_to_json(perm_gp(3))
    assert doc["d"] == 3
    assert len(doc["vertices"]) == 6
    assert doc["vertices"][0] == ["1", "2", "3"]
    assert len(doc["faces"]) == 13
    dims = [f["dim"] for f in doc["faces"]]
    assert dims == sorted(dims)
    assert doc["faces"][-1] == {"dim": 2, "vertices": [0, 1, 2, 3, 4, 5]}
    for f in doc["faces"]:
        assert all(0 <= i < 6 for i in f["vertices"])
