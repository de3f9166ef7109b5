"""Every small lattice polygon, not a sample: its dilation counts against
Pick's theorem (Beck-Robins, ch. 2).

For a lattice polygon with area A and B boundary points, the t-dilate holds
A t^2 + B t / 2 + 1 lattice points and its interior A t^2 - B t / 2 + 1.
Both sides come from the vertices alone and share no code with `_scan`, so
the census catches an error that `em_reciprocity_check` cannot: one that
enters the closed and the open count alike, such as the strict flag of a
row inverted, which swaps the two counts and keeps their reciprocity.  The
census takes the convex hull of every subset of {0..3}^2, 1 633 polygons up
to translation, at t = 1..4.
"""

import json
from collections import Counter

from gpcount.ehrhart import HPolytope, count_lattice, em_reciprocity_check
from oracles import hpolytope_to_json, lattice_polygon, lattice_polygons, pick_counts

T_MAX = 4


def census(polygons) -> tuple[list, int]:
    """What fails on each polygon, as (polygon, "closed t=<t>" or
    "open t=<t>") for a count that disagrees with Pick and (polygon,
    "reciprocity") for an `em_reciprocity_check` at degree 2, period 1 and
    t = 1..T_MAX that fails, and the number of counts compared."""
    failures, compared = [], 0
    for vertices in polygons:
        P = lattice_polygon(vertices)
        interior = P.interior()
        for t in range(1, T_MAX + 1):
            closed, open_ = pick_counts(vertices, t)
            for side, poly, expected in (("closed", P, closed), ("open", interior, open_)):
                compared += 1
                if count_lattice(poly, t) != expected:
                    failures.append((P, f"{side} t={t}"))
        if em_reciprocity_check(P, 2, 1, T_MAX)[1].failures:
            failures.append((P, "reciprocity"))
    return failures, compared


def test_every_lattice_polygon_counts_as_pick_says():
    polygons = lattice_polygons(3)
    assert len(polygons) == 1633
    failures, compared = census(polygons)
    assert compared == 2 * T_MAX * len(polygons)
    assert not failures, (f"{len(failures)} failures, the first {failures[0][1]} on "
                          f"{json.dumps(hpolytope_to_json(failures[0][0]))}")


def test_an_inverted_strict_flag_fails_pick_and_passes_reciprocity(monkeypatch):
    # every row of the compiled frame with its strict flag inverted: each
    # closed count is the open one and the other way round, so every count
    # disagrees with Pick while every reciprocity check still holds
    frame = HPolytope.frame.func

    def inverted(poly):
        zero, folds, rest, scanned = frame(poly)
        return (tuple((b, 1 - strict) for b, strict in zero),
                tuple((lo, hi, tuple((c, b, 1 - s) for c, b, s in up),
                       tuple((c, b, 1 - s) for c, b, s in down))
                      for lo, hi, up, down in folds),
                tuple((a, b, 1 - strict) for a, b, strict in rest),
                scanned)
    monkeypatch.setattr(HPolytope, "frame", property(inverted))
    polygons = lattice_polygons(2)
    assert len(polygons) == 119
    failures, compared = census(polygons)
    sides = Counter(what.split()[0] for _, what in failures)
    assert sides == {"closed": T_MAX * len(polygons), "open": T_MAX * len(polygons)}
    assert compared == sum(sides.values())
