"""Pass/fail reports produced by the verification routines."""

from __future__ import annotations

from collections import namedtuple

Check = namedtuple("Check", "name passed")


class Report:
    """A titled list of checks; equal to another Report with the same title and checks, and not hashable."""

    def __init__(self, title: str, checks: list[Check] | None = None) -> None:
        self.title = title
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return f"Report(title={self.title!r}, checks={self.checks!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.title == other.title and self.checks == other.checks

    def add(self, name: str, passed: bool) -> None:
        self.checks.append(Check(name, passed))

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.passed]

    def lines(self) -> list[str]:
        """One PASS or FAIL line per check, then the verdict line."""
        return self._walk()[0]

    def render(self) -> tuple[str, bool]:
        """str(self) and self.passed, from one walk over the checks."""
        lines, failed = self._walk()
        return "\n".join(lines), not failed

    def _walk(self) -> tuple[list[str], int]:
        """The lines and the number of failed checks."""
        out = []
        failed = 0
        for check in self.checks:
            if check.passed:
                out.append("PASS  " + check.name)
            else:
                failed += 1
                out.append("FAIL  " + check.name)
        verdict = f"{failed} FAILED" if failed else "all passed"
        out.append(f"{self.title}: {len(self.checks)} checks, {verdict}")
        return out, failed

    def __str__(self) -> str:
        return "\n".join(self.lines())
