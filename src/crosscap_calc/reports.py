"""Uniform pass/fail reports shared by the verification routines.

A report never stores one entry per successful item (some checks run
millions of items); it keeps counts, the labels of failures, and the
caveat strings that qualify what a pass actually certifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable


class CapExceededError(ValueError):
    """The requested size is past the configured desk-scale cap."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification routine at one parameter point."""

    check: str
    scope: tuple[tuple[str, int], ...]
    passed: int
    failed: int
    failures: tuple[str, ...] = ()
    caveats: tuple[str, ...] = ()
    details: tuple[str, ...] = ()

    MAX_FAILURES = 50

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        data: dict = {"check": self.check}
        data.update({k: v for k, v in self.scope})
        data["passed"] = self.passed
        data["failed"] = self.failed
        data["failures"] = list(self.failures)
        if self.caveats:
            data["caveats"] = list(self.caveats)
        if self.details:
            data["details"] = list(self.details)
        return data


class ReportBuilder:
    """Accumulates item outcomes, truncating the failure list."""

    def __init__(self, check: str, **scope: int) -> None:
        self.check = check
        self.scope = tuple(scope.items())
        self.passed = 0
        self.failed = 0
        self.failures: list[str] = []
        self.caveats: list[str] = []
        self.details: list[str] = []

    def record(self, ok: bool, label: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < CheckReport.MAX_FAILURES:
                self.failures.append(label)
        return ok

    def tally(self, passed: int, failed: int, labels: Iterable[str]) -> None:
        """Count items in bulk.  ``labels`` yields the failures' labels in
        item order and is read only as far as the truncated list has room."""
        self.passed += passed
        self.failed += failed
        room = max(CheckReport.MAX_FAILURES - len(self.failures), 0)
        self.failures.extend(itertools.islice(labels, room))

    def caveat(self, text: str) -> None:
        if text not in self.caveats:
            self.caveats.append(text)

    def detail(self, text: str) -> None:
        self.details.append(text)

    def build(self) -> CheckReport:
        return CheckReport(
            check=self.check,
            scope=self.scope,
            passed=self.passed,
            failed=self.failed,
            failures=tuple(self.failures),
            caveats=tuple(self.caveats),
            details=tuple(self.details),
        )
