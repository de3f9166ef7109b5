"""Every work budget refuses through `errors.check_budget`, in one form:
`<size> <what> exceed the budget of <budget>`, raised as
`BudgetExceededError` before the work starts.  Each guard is pinned at its
boundary: refused with the budget one below the size it charges, run with
the budget equal to it.  Every budget is a module constant read at call
time, so monkeypatching it takes effect, through the CLI too."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from gpcount import cli, ehrhart, hypergraph, permutahedron
from gpcount.ehrhart import (
    count_lattice,
    cumulative_pruned_count,
    em_reciprocity_check,
    normal_fan_of,
    standard_simplex,
    unit_cube,
)
from gpcount.errors import BudgetExceededError
from gpcount.hypergraph import Hypergraph, acyclic_headings, chromatic_count
from gpcount.permutahedron import GPerm
from gpcount.setfn import standard_perm_setfn
from test_hypergraph import RUNNING  # 3 * 2 * 2 headings

ONE_FORM = re.compile(r"(\d+) .+ exceed the budget of (\d+)")
PI_3 = Path(__file__).resolve().parent / "golden" / "pi_3.json"


def pi(d):
    return GPerm(standard_perm_setfn(d))


# (module, constant, size the call charges, call on fresh objects)
GUARDS = {
    "scan prefixes": (ehrhart, "SCAN_BUDGET", 16,
                      lambda: count_lattice(standard_simplex(3), 3)),
    "sweep steps": (ehrhart, "SCAN_BUDGET", 352,
                    lambda: cumulative_pruned_count(unit_cube(3), normal_fan_of(pi(3)), 3)),
    "scan depth": (ehrhart, "SCAN_DEPTH", 3,
                   lambda: count_lattice(standard_simplex(3), 1)),
    "checks": (ehrhart, "LOOP_BUDGET", 5,
               lambda: em_reciprocity_check(standard_simplex(2), 2, 1, 5)),
    "fit nodes": (ehrhart, "LOOP_BUDGET", 12,
                  lambda: em_reciprocity_check(standard_simplex(2), 2, 3, 1)),
    "colorings": (hypergraph, "COLORING_BUDGET", 27,
                  lambda: chromatic_count(Hypergraph(3, ()), 2)),
    "headings": (hypergraph, "HEADING_BUDGET", 12,
                 lambda: acyclic_headings(RUNNING)),
    "face cap": (permutahedron, "FACE_ENUM_MAX_D", 3,
                 lambda: pi(3).face_lattice()),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_every_guard_refuses_in_one_form(monkeypatch, guard):
    module, constant, size, call = GUARDS[guard]
    monkeypatch.setattr(module, constant, size - 1)
    with pytest.raises(BudgetExceededError) as refused:
        call()
    match = ONE_FORM.fullmatch(str(refused.value))
    assert match, str(refused.value)
    assert (int(match[1]), int(match[2])) == (size, size - 1)
    monkeypatch.setattr(module, constant, size)
    call()


def test_cli_reads_the_loop_budget_at_call_time(monkeypatch):
    # chi --m-max 2 makes 2 * 2 checks
    argv = ["chi", "--setfn", str(PI_3), "--m-max", "2"]
    for budget, rc, err in ((3, 2, "error: 4 checks exceed the budget of 3\n"), (4, 0, "")):
        monkeypatch.setattr(ehrhart, "LOOP_BUDGET", budget)
        out, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            assert cli.run(argv) == rc
        assert errors.getvalue() == err
