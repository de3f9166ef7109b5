"""Every submodular z on four elements with values 0..2, not a sample: the
direction-count reciprocity of `chi` at every k on one z of each class.

Relabelling the ground set permutes the coordinates of P(z) and so keeps
every face count, so one z per class up to S_4 stands for all 13 180.  Most
of these z are not hypergraphic (some y_S < 0), the shapes `verify-all`
never draws.  Each identity compares polynomials of degree at most 4, so
checking m = 1..5 proves it for every m.
"""

import json

from gpcount.permutahedron import GPerm
from gpcount.setfn import SetFn
from oracles import setfn_classes, setfn_to_json, submodular_values

D, TOP, M_MAX = 4, 2, 5


def test_reciprocity_holds_on_every_class():
    tables = submodular_values(D, TOP)
    classes = setfn_classes(D, tables)
    checks, failed = 0, []
    for values in classes:
        z = SetFn(D, values)
        P = GPerm(z)
        for k in range(D):
            entries = P.verify_reciprocity(k, M_MAX)[1].entries
            checks += len(entries)
            failed += [(z, e.label) for e in entries if not e.passed]
    first = (f"; the first, {failed[0][1]}, on {json.dumps(setfn_to_json(failed[0][0]))}"
             if failed else "")
    # 2 checks at each m = 1..5 and each k < 4 on each class
    assert (len(tables), len(classes), checks, len(failed)) == (13180, 916, 36640, 0), (
        f"{len(failed)} failed checks{first}")
