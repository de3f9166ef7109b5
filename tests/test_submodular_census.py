"""Every submodular z on four elements with values 0..2, not a sample: the
direction-count reciprocity of `chi` at every k on one z of each class.

Relabelling the ground set permutes the coordinates of P(z) and so keeps
every face count, so one z per class up to S_4 stands for all 13 180.  Most
of these z are not hypergraphic (some y_S < 0), the shapes `verify-all`
never draws.  Each identity compares polynomials of degree at most 4, so
checking m = 1..5 proves it for every m.

Run as a script, `PYTHONPATH=src python tests/test_submodular_census.py`,
it takes the values 0..3 (405 483 z, about half a minute) and prints the
counts and the first failing z, if any, exiting 0 either way.
"""

import json

from gpcount.permutahedron import GPerm
from gpcount.setfn import SetFn
from oracles import setfn_classes, setfn_to_json, submodular_values

D, TOP, M_MAX = 4, 2, 5


def census(top):
    """The submodular z on D elements with values 0..top, their classes up
    to S_D, the checks made at every k on one z of each class and the
    failed ones as (z, label) pairs."""
    tables = submodular_values(D, top)
    classes = setfn_classes(D, tables)
    checks, failed = 0, []
    for values in classes:
        z = SetFn(D, values)
        P = GPerm(z)
        for k in range(D):
            entries = P.verify_reciprocity(k, M_MAX)[1].entries
            checks += len(entries)
            failed += [(z, e.label) for e in entries if not e.passed]
    return len(tables), len(classes), checks, failed


def first_failure(failed):
    return (f"; the first, {failed[0][1]}, on {json.dumps(setfn_to_json(failed[0][0]))}"
            if failed else "")


def test_reciprocity_holds_on_every_class():
    z_count, class_count, checks, failed = census(TOP)
    # 2 checks at each m = 1..5 and each k < 4 on each class
    assert (z_count, class_count, checks, len(failed)) == (13180, 916, 36640, 0), (
        f"{len(failed)} failed checks{first_failure(failed)}")


if __name__ == "__main__":
    z_count, class_count, checks, failed = census(3)
    print(f"values 0..3 on {D} elements: {z_count} submodular z in {class_count} classes, "
          f"{checks} checks, {len(failed)} failed{first_failure(failed)}")
