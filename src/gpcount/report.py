"""Pass/fail check reports shared by the verification entry points."""

from __future__ import annotations

from .rational import format_rat
from .value import Frozen, Value


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_rat(value)


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

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "lhs": _render(self.lhs),
            "rhs": _render(self.rhs),
            "pass": self.passed,
        }


class Report(Value):
    _fields = ("entries",)
    entries: list[CheckEntry]

    def __init__(self, entries: list[CheckEntry] | None = None):
        self.entries = [] if entries is None else entries

    def check(self, label: str, lhs, rhs) -> CheckEntry:
        entry = CheckEntry(label, lhs, rhs)
        self.entries.append(entry)
        return entry

    def merge(self, other: "Report", prefix: str) -> None:
        """Append the checks of ``other``, each label as "<prefix>: <label>"."""
        for e in other.entries:
            self.entries.append(CheckEntry(f"{prefix}: {e.label}", e.lhs, e.rhs))

    @property
    def failures(self) -> int:
        return sum(1 for e in self.entries if not e.passed)

    def to_json(self) -> dict:
        return {
            "checks": [e.to_json() for e in self.entries],
            "summary": {"checks": len(self.entries), "failures": self.failures},
        }
