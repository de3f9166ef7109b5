"""Pass/fail check reports shared by the verification entry points.

The package checks four reciprocity theorems of one form, (-1)^n f(-x) =
g(x): Ehrhart-Macdonald, the pruned inside-out identity, Aguiar-Ardila /
Billera-Jia-Reiner for the direction counts and Aval-Karaboghossian-Tanasa
for hypergraph colorings.  `reflected(f, n, x)` is the left side, and
`Report.reflections` checks it against a count g(x) for x = 1..last; every
sign flip of the package is made here.
"""

from __future__ import annotations

from .value import Frozen, Value


def reflected(f, n: int, x: int):
    """(-1)^n f(-x): f read at -x, negated when n is odd."""
    return -f(-x) if n % 2 else f(-x)


class CheckEntry(Frozen):
    _fields = ("label", "lhs", "rhs")
    label: str
    lhs: object
    rhs: object

    def __init__(self, label: str, lhs: object, rhs: object):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class Report(Value):
    _fields = ("entries",)
    entries: list[CheckEntry]

    def __init__(self, entries: list[CheckEntry] | None = None):
        self.entries = [] if entries is None else entries

    def check(self, label: str, lhs, rhs) -> CheckEntry:
        entry = CheckEntry(label, lhs, rhs)
        self.entries.append(entry)
        return entry

    def reflections(self, prefix: str, f, n: int, count, last: int) -> "Report":
        """Check `reflected(f, n, x)` against `count(x)` for x = 1..last, in
        that order, each labelled "<prefix><x>"; returns this report."""
        for x in range(1, last + 1):
            self.check(f"{prefix}{x}", reflected(f, n, x), count(x))
        return self

    def merge(self, other: "Report", prefix: str) -> None:
        """Append the checks of ``other``, each label as "<prefix>: <label>"."""
        for e in other.entries:
            self.entries.append(CheckEntry(f"{prefix}: {e.label}", e.lhs, e.rhs))

    @property
    def failures(self) -> int:
        return sum(1 for e in self.entries if not e.passed)

    def to_json(self) -> dict:
        """The report's fields: "checks", its entries themselves, which
        `cli.dumps` writes as {"label", "lhs", "rhs", "pass"} dicts, and
        "summary"."""
        return {
            "checks": list(self.entries),
            "summary": {"checks": len(self.entries), "failures": self.failures},
        }
