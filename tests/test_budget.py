"""Every work budget refuses through `errors.check_budget`, in one form:
`<size> <what> exceed the budget of <budget>`, raised as
`BudgetExceededError` before the work starts.  Each guard is pinned at its
boundary: refused with the budget one below the size it charges, run with
the budget equal to it.  Every budget is a module constant read at call
time, so monkeypatching it takes effect, through the CLI too.  Only three
remain, `errors.WORK_BUDGET`, `errors.LOOP_BUDGET` and `ehrhart.SCAN_DEPTH`,
and every `check_budget` call in the package reads one of them.  The other
refusal rule in `errors`, `require_integer`, is the only place that refuses
an argument for not being an integer, a positive or a nonnegative one.
Every module-level cache of the package states a finite bound."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import gpcount
from gpcount import cli, ehrhart, errors
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
from conftest import package_caches
from test_hypergraph import RUNNING  # 3 * 2 * 2 headings

ONE_FORM = re.compile(r"(\d+) .+ exceed the budget of (\d+)")
GOLDEN = Path(__file__).resolve().parent / "golden"
PI_3 = GOLDEN / "pi_3.json"


def pi(d):
    return GPerm(standard_perm_setfn(d))


# (module, constant, size the call charges, call on fresh objects)
GUARDS = {
    "scan prefixes": (errors, "WORK_BUDGET", 16,
                      lambda: count_lattice(standard_simplex(3), 3)),
    "sweep steps": (errors, "WORK_BUDGET", 352,
                    lambda: cumulative_pruned_count(unit_cube(3), normal_fan_of(pi(3)), 3)),
    "scan depth": (ehrhart, "SCAN_DEPTH", 3,
                   lambda: count_lattice(standard_simplex(3), 1)),
    "checks": (errors, "LOOP_BUDGET", 5,
               lambda: em_reciprocity_check(standard_simplex(2), 2, 1, 5)),
    "fit nodes": (errors, "LOOP_BUDGET", 12,
                  lambda: em_reciprocity_check(standard_simplex(2), 2, 3, 1)),
    "colorings": (errors, "WORK_BUDGET", 27,
                  lambda: chromatic_count(Hypergraph(3, ()), 2)),
    "headings": (errors, "WORK_BUDGET", 12,
                 lambda: acyclic_headings(RUNNING)),
    # 3^3 subset pairs times pi_3's 6 vertices
    "face cap": (errors, "WORK_BUDGET", 162,
                 lambda: pi(3).face_lattice()),
}
BUDGETS = {("errors", "WORK_BUDGET"), ("errors", "LOOP_BUDGET"), (None, "SCAN_DEPTH")}


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


def _refused_below_the_boundary(monkeypatch, module, constant, argv, boundary, refused):
    # argv runs at the boundary budget, is refused one below it, runs at the
    # boundary again and is refused again.  The CLI keeps the last polytope
    # and its reciprocity checks, and a kept one is refused exactly where a
    # fresh one is
    for budget, rc, err in ((boundary, 0, ""), (boundary - 1, 2, f"error: {refused}\n"),
                            (boundary, 0, ""), (boundary - 1, 2, f"error: {refused}\n")):
        monkeypatch.setattr(module, constant, budget)
        out, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
            assert cli.run(argv) == rc
        assert stderr.getvalue() == err


CHI = ["chi", "--setfn", str(PI_3), "--m-max", "2"]
# a fit of degree 2 and period 2 counts (2 + 2) * 2 nodes; the triangle's
# rows involve all 3 coordinates, and a sweep fixes both of the rectangle's
EHRHART = ["ehrhart", "--poly", str(GOLDEN / "triangle_q2.json"),
           "--degree", "2", "--period", "2", "--t-max", "4"]
PRUNED = ["pruned", "--poly", str(GOLDEN / "rect_q2.json"),
          "--fan", str(GOLDEN / "fan_diag_q.json"),
          "--degree", "2", "--period", "2", "--t-max", "4"]


@pytest.mark.parametrize("argv, boundary, refused", [
    (CHI, 4, "4 checks exceed the budget of 3"),  # 2 * 2 checks
    (EHRHART, 8, "8 fit nodes exceed the budget of 7"),
    (PRUNED, 8, "8 fit nodes exceed the budget of 7"),
], ids=["chi", "ehrhart", "pruned"])
def test_cli_reads_the_loop_budget_at_call_time(monkeypatch, argv, boundary, refused):
    _refused_below_the_boundary(monkeypatch, errors, "LOOP_BUDGET", argv, boundary, refused)


@pytest.mark.parametrize("argv, boundary, refused", [
    # 3^3 subset pairs times pi_3's 6 vertices charged to the face map
    (CHI, 162, "162 face-map steps (3^3 subset pairs times 6 vertices)"
               " exceed the budget of 161"),
    # the largest dilate, the fit's last node t = 8
    (EHRHART, 525, "525 prefixes of the last coordinate at t=8 exceed the budget of 524"),
    (PRUNED, 437, "437 steps (209 box points and 19 runs of 12 fan row reads) at t=8 "
                  "exceed the budget of 436"),
], ids=["chi", "ehrhart", "pruned"])
def test_cli_reads_the_work_budget_at_call_time(monkeypatch, argv, boundary, refused):
    _refused_below_the_boundary(monkeypatch, errors, "WORK_BUDGET", argv, boundary, refused)


@pytest.mark.parametrize("argv, boundary, refused", [
    (EHRHART, 3, "3 coordinates scanned at t=8 exceed the budget of 2"),
    (PRUNED, 2, "2 coordinates scanned at t=8 exceed the budget of 1"),
], ids=["ehrhart", "pruned"])
def test_cli_reads_the_scan_depth_at_call_time(monkeypatch, argv, boundary, refused):
    _refused_below_the_boundary(monkeypatch, ehrhart, "SCAN_DEPTH", argv, boundary, refused)


def _budget_reads(tree):
    """(module or None, name) of the budget argument of each `check_budget`
    call in `tree`, called by name, by an imported alias or through a
    module, with the budget given by position or by keyword."""
    names = {"check_budget"} | {alias.asname for node in ast.walk(tree)
                                if isinstance(node, ast.ImportFrom)
                                for alias in node.names
                                if alias.name == "check_budget" and alias.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in names
                or isinstance(func, ast.Attribute) and func.attr == "check_budget"):
            continue
        budget = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "budget"), None)
        if isinstance(budget, ast.Attribute) and isinstance(budget.value, ast.Name):
            yield budget.value.id, budget.attr
        elif isinstance(budget, ast.Name):
            yield None, budget.id
        else:
            yield None, budget and ast.unparse(budget)


def test_every_guard_reads_one_of_three_budgets():
    # a new guard reuses a budget instead of adding a constant, whatever
    # form its call takes
    forms = ("from .errors import check_budget as cb\n"
             "check_budget(1, errors.WORK_BUDGET, 'a')\n"
             "cb(1, OTHER_BUDGET, 'b')\n"
             "errors.check_budget(1, budget=errors.LOOP_BUDGET, what='c')\n"
             "check_budget(1, 10, 'd')\n")
    reads = list(_budget_reads(ast.parse(forms)))
    assert [r in BUDGETS for r in reads] == [True, False, True, False]
    package = Path(gpcount.__file__).resolve().parent
    reads = [(path.name, read) for path in sorted(package.glob("*.py"))
             for read in _budget_reads(ast.parse(path.read_text(), str(path)))]
    assert len(reads) >= len(GUARDS)
    assert [r for r in reads if r[1] not in BUDGETS] == []


def _module_caches(tree):
    """(name, bound) of each function at the top level of `tree` decorated
    with `lru_cache` or `cache`, by name or through `functools`, called or
    not: the bound is the int `maxsize` the decorator states, or None when
    it states none, or states None."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("lru_cache", "cache"):
                continue
            given = None
            if name == "lru_cache" and call:
                given = call.args[0] if call.args else next(
                    (k.value for k in call.keywords if k.arg == "maxsize"), None)
            bound = given.value if isinstance(given, ast.Constant) else None
            yield node.name, bound if type(bound) is int else None


def test_every_module_cache_is_bounded_and_emptied_before_each_test():
    # a module-level cache states a finite bound, so a long process cannot
    # grow it without limit, and `conftest` finds it and empties it before
    # every test
    forms = ("@lru_cache(maxsize=64)\ndef a(): pass\n"
             "@functools.lru_cache(8, typed=True)\ndef b(): pass\n"
             "@lru_cache\ndef c(): pass\n"
             "@lru_cache(maxsize=None)\ndef d(): pass\n"
             "@functools.cache\ndef e(): pass\n"
             "class F:\n    @lru_cache(maxsize=None)\n    def g(self): pass\n")
    assert list(_module_caches(ast.parse(forms))) == [
        ("a", 64), ("b", 8), ("c", None), ("d", None), ("e", None)]
    package = Path(gpcount.__file__).resolve().parent
    caches = {f"{path.stem}.{name}": bound for path in sorted(package.glob("*.py"))
              for name, bound in _module_caches(ast.parse(path.read_text(), str(path)))}
    assert {"cli._last_polytope", "cli._kept_reciprocity",
            "polynomial._newton_columns"} <= set(caches)
    assert [name for name, bound in caches.items() if not bound or bound < 1] == []
    assert set(caches) == set(package_caches())


# an argument's name, or a placeholder for it, before the phrase; `cli`'s
# flag converters raise the phrase alone, as they check a flag's text and
# `parse` puts the flag in front
INTEGER_RULE = re.compile(r"[\w}] must be (?:an|a positive|a nonnegative) integer")


def _integer_refusals(tree):
    """The source of each `raise ValueError(message)` in `tree` whose
    message says that an argument must be an integer."""
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id == "ValueError" and exc.args
                and INTEGER_RULE.search(ast.unparse(exc.args[0]))):
            yield ast.unparse(exc.args[0])


def test_only_errors_refuses_a_non_integer_argument():
    # a new integer argument calls `errors.require_integer` instead of
    # writing the check and its message again
    forms = ('raise ValueError(f"{name} must be a positive integer, got {value!r}")\n'
             'raise ValueError("k must be an integer") from None\n'
             'raise ValueError("degree must be a nonnegative integer")\n'
             'raise ValueError(f"must be an integer, got {text!r}")\n'
             'raise ValueError("bbox bounds must be integers")\n')
    assert len(list(_integer_refusals(ast.parse(forms)))) == 3
    package = Path(gpcount.__file__).resolve().parent
    found = [(path.name, text) for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for text in _integer_refusals(ast.parse(path.read_text(), str(path)))]
    assert found == []
