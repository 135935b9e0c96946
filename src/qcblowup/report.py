"""Pass/fail reports produced by the verification suites."""

from __future__ import annotations

from .records import Record


class CheckEntry(Record):
    __slots__ = _fields = ("name", "passed", "detail", "skipped")

    def __init__(self, name: str, passed: bool, detail: str = "", skipped: bool = False) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail
        self.skipped = skipped


class CheckReport(Record):
    """An ordered list of named checks; a report is ok when nothing failed
    (skipped entries do not count as failures)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: list[CheckEntry] | None = None) -> None:
        self.entries = [] if entries is None else entries

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, passed, detail))

    def skip(self, name: str, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, True, detail, skipped=True))

    def merge(self, other: CheckReport) -> None:
        self.entries.extend(
            CheckEntry(e.name, e.passed, e.detail, e.skipped) for e in other.entries
        )

    @property
    def ok(self) -> bool:
        return not self.failures()

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
