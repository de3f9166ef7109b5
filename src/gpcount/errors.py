"""Exception types shared across the package, the work budgets, and
`check_budget`, the one rule by which an enumeration refuses work before it
starts.

Every guard charges the size of the work it is about to do to one of two
budgets, read from this module at call time, so that a monkeypatched value
reaches every guard, through the CLI too.  `WORK_BUDGET` bounds the steps
of any one enumeration: scan prefixes, sweep steps, tie tests, headings and
face-map steps.  `LOOP_BUDGET` bounds the checks one command makes and the
nodes one fit counts, loops that flags drive.  The one other limit,
`ehrhart.SCAN_DEPTH`, bounds recursion depth, not work.
"""

WORK_BUDGET = 10 ** 7  # steps of any one enumeration
LOOP_BUDGET = 10 ** 4  # checks one command makes; nodes (degree + 2) * period one fit counts


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


def check_budget(size: int, budget: int, what: str) -> None:
    """Refuse `size` units of work, described by `what`, when they exceed
    `budget`; every enumeration's guard raises here, in one form."""
    if size > budget:
        raise BudgetExceededError(f"{size} {what} exceed the budget of {budget}")
