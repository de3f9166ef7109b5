"""Pass/fail check reports shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import format_rat


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_rat(value)


@dataclass(frozen=True)
class CheckEntry:
    label: str
    lhs: object
    rhs: object

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


@dataclass
class Report:
    entries: list[CheckEntry] = field(default_factory=list)

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
