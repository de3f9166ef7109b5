"""Exception types shared across the package, the work budgets, and the
two refusal rules: `check_budget`, by which an enumeration refuses work
before it starts, and `require_integer`, by which a function refuses an
integer argument (a dilation t, a number of colors m, a face dimension k, a
size or a step) that is not an int or lies outside its range.

Every guard charges the size of what it is about to do to one of three
limits, read from this module at call time, so that a monkeypatched value
reaches every guard, through the CLI too.  `WORK_BUDGET` bounds the steps
of any one enumeration: scan prefixes, sweep steps, tie tests, headings and
face-map steps.  `LOOP_BUDGET` bounds the checks one command makes and the
nodes one fit counts, loops that flags drive.  `SCAN_DEPTH` bounds the
coordinates a lattice scan fixes, one recursion level each: depth, not work.
`limits()` reads all three now: it is the key under which `cli` keeps a
result between calls, so a kept result refuses exactly what a fresh one
would, and a limit added here is in that key too.

An integer argument is an int and never a bool: `True` passes a range test
as 1 and `1.0` as 1, so a range test alone would count the wrong thing or
fail later with a `TypeError`.  A refusal is a `ValueError` naming the
argument and its range.
"""

WORK_BUDGET = 10 ** 7  # steps of any one enumeration
LOOP_BUDGET = 10 ** 4  # checks one command makes; nodes (degree + 2) * period one fit counts
SCAN_DEPTH = 500  # coordinates one scan fixes, one recursion level each; Python allows 1000


def limits() -> tuple[int, ...]:
    """Every limit of this module, read now: the key of each kept result."""
    return WORK_BUDGET, LOOP_BUDGET, SCAN_DEPTH


class GpcountError(Exception):
    """Base class for package-specific failures."""


class NotSubmodularError(GpcountError):
    """A vertex-producing operation was handed a non-submodular set function."""


class BudgetExceededError(GpcountError):
    """An enumeration would exceed its configured budget."""


class InterpolationMismatchError(GpcountError):
    """A declared degree/period failed verification at an extra node."""


class IncompleteFanError(GpcountError):
    """The cones do not form a complete fan: a counted lattice point lies in
    no cone, or strictly inside two."""


class InputFormatError(GpcountError):
    """A JSON input document is malformed."""


def check_budget(size: int, budget: int, what: str, *fields) -> None:
    """Refuse `size` units of work, described by `what`, when they exceed
    `budget`; every enumeration's guard raises here, in one form.  `what` is
    a `str.format` template for `fields`, filled only on refusal, so a guard
    under its budget formats nothing."""
    if size > budget:
        raise BudgetExceededError(f"{size} {what.format(*fields)} exceed the budget of {budget}")


def require_integer(name: str, value, low: int | None = None,
                    high: int | None = None) -> int:
    """Return `value` when it is an int, not a bool, in low..high, where a
    None bound is open and a range open above starts at None, 0 or 1;
    otherwise raise ValueError naming the argument `name` and its range."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    if high is not None:
        need = f"in {low}..{high}" if type(value) is int else f"an integer in {low}..{high}"
    else:
        need = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[low]
    raise ValueError(f"{name} must be {need}, got {value!r}")
