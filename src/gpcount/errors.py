"""Exception types shared across the package."""


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
