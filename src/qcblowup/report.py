"""Pass/fail reports produced by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False


@dataclass
class CheckReport:
    """An ordered list of named checks; a report is ok when nothing failed
    (skipped entries do not count as failures)."""

    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, passed, detail))

    def skip(self, name: str, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, True, detail, skipped=True))

    def merge(self, other: CheckReport) -> None:
        self.entries.extend(replace(e) for e in other.entries)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def as_dicts(self) -> list[dict]:
        return [
            {
                "name": e.name,
                "passed": e.passed,
                "skipped": e.skipped,
                "detail": e.detail,
            }
            for e in self.entries
        ]

    def __str__(self) -> str:
        lines = []
        for e in self.entries:
            tag = "skip" if e.skipped else ("ok" if e.passed else "FAIL")
            suffix = f" ({e.detail})" if e.detail else ""
            lines.append(f"[{tag}] {e.name}{suffix}")
        return "\n".join(lines)
