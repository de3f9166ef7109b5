"""Every small hypergraphic polytope, not a sample: the reciprocity checks
of `chi` and `hg-reciprocity` on one hypergraph of each isomorphism class.

For z with nonnegative y-coordinates the normal fan of P(z), and so every
face count, depends only on the support of y, an edge set; singleton edges
only translate P(z), and repeated edges change neither its type nor the
colorings.  So the simple hypergraphs on d nodes with edges of two nodes or
more give every combinatorial type of such P(z) in R^d.  Each identity
compares polynomials of degree at most d, so checking m = 1..d + 1 proves it
for every m.  The census takes every class on 2, 3 and 4 nodes (2, 8 and
180 classes) and every graph on 5 nodes (34 classes).
"""

import itertools
import random

from gpcount.cli import _hg_reciprocity_report
from gpcount.hypergraph import Hypergraph, acyclic_headings, hypergraphic_setfn
from gpcount.permutahedron import GPerm
from oracles import canonical_form, isomorphism_classes


def edges_of(d: int, sizes) -> list:
    return [e for n in sizes for e in itertools.combinations(range(1, d + 1), n)]


FAMILIES = [(d, isomorphism_classes(d, edges_of(d, range(2, d + 1)))) for d in (2, 3, 4)]
FAMILIES.append((5, isomorphism_classes(5, edges_of(5, (2,)))))


def test_class_counts_and_canonical_forms():
    assert [len(forms) for _, forms in FAMILIES] == [2, 8, 180, 34]
    rng = random.Random(23)
    for d, forms in FAMILIES:
        assert len(set(forms)) == len(forms)
        for edges in forms:
            assert canonical_form(d, edges) == edges
            perm = rng.sample(range(1, d + 1), d)
            assert canonical_form(d, [[perm[i - 1] for i in e] for e in edges]) == edges


def test_reciprocity_holds_on_every_class():
    checks = 0
    failed = []
    for d, forms in FAMILIES:
        for edges in forms:
            h = Hypergraph(d, edges)
            P = GPerm(hypergraphic_setfn(h))
            reports = [P.verify_reciprocity(k, d + 1)[1] for k in range(d)]
            reports.append(_hg_reciprocity_report(h, P, acyclic_headings(h), d + 1)[1])
            for report in reports:
                checks += len(report.entries)
                failed += [(d, edges, e.label) for e in report.entries if not e.passed]
    assert failed == []
    assert checks == 13106
