"""Record coverage: which report call sites in ``src/`` ever record a failure.

    PYTHONPATH=src:tools python -m pytest -p check_coverage [--record-coverage PATH]

A pytest plugin.  While the session runs, ``ReportBuilder.record`` and
``ReportBuilder.tally`` are wrapped; each call from a module of the
package is keyed by its caller's ``file:line`` (relative to the
repository) and the report's check name.  ``record`` counts its ``ok``
as a pass or a failure; ``tally`` counts one failure when its ``failed``
is positive, else one pass.  At the end the counts are written as a JSON
list of ``{"site", "check", "passes", "failures"}`` (default
``record-coverage.json``), and the sites that never failed are printed,
each marked when ``tools/never_failing.txt``, which gives every site
expected to stay that way its reason, does not list it.  A site leaves
that list only with a test that makes it fail, or with its check.

Tests that run the program in a subprocess are not seen, so the
never-failing list is an upper bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import crosscap_calc
from crosscap_calc.reports import ReportBuilder

PACKAGE = Path(crosscap_calc.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
LISTED = Path(__file__).resolve().parent / "never_failing.txt"


class RecordCoverage:
    """Pass and failure counts per (site, check), while installed."""

    def __init__(self) -> None:
        #: (file, line, check) -> [passes, failures]
        self.counts: dict[tuple[str, int, str], list[int]] = {}
        self._saved: tuple | None = None

    def _count(self, builder: ReportBuilder, failed: bool) -> None:
        caller = sys._getframe(2)  # past the wrapper
        path = Path(caller.f_code.co_filename).resolve()
        if PACKAGE in path.parents:
            key = (str(path.relative_to(ROOT)), caller.f_lineno, builder.check)
            self.counts.setdefault(key, [0, 0])[failed] += 1

    def install(self) -> None:
        record, tally = self._saved = ReportBuilder.record, ReportBuilder.tally
        count = self._count

        def counted_record(builder, ok, label):
            count(builder, not ok)
            return record(builder, ok, label)

        def counted_tally(builder, passed, failed, labels):
            count(builder, failed > 0)
            return tally(builder, passed, failed, labels)

        ReportBuilder.record, ReportBuilder.tally = counted_record, counted_tally

    def uninstall(self) -> None:
        if self._saved is not None:
            ReportBuilder.record, ReportBuilder.tally = self._saved
            self._saved = None

    def rows(self) -> list[dict]:
        return [
            {"site": f"{path}:{line}", "check": check, "passes": passes, "failures": failures}
            for (path, line, check), (passes, failures) in sorted(self.counts.items())
        ]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.rows(), indent=1) + "\n")

    def never_failing(self) -> list[dict]:
        return [row for row in self.rows() if row["failures"] == 0]


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--record-coverage", default="record-coverage.json",
        help="where check_coverage writes its JSON (default: %(default)s)",
    )


def pytest_configure(config) -> None:
    config._record_coverage = RecordCoverage()
    config._record_coverage.install()


def pytest_unconfigure(config) -> None:
    config._record_coverage.uninstall()
    config._record_coverage.write(Path(config.getoption("--record-coverage")))


def listed_sites(path: Path = LISTED) -> set[tuple[str, str]]:
    """(site, check) of each line of the never-failing list; a line is
    ``SITE CHECK reason...``, and ``#`` starts a comment."""
    lines = (line.split("#", 1)[0].split() for line in path.read_text().splitlines())
    return {(fields[0], fields[1]) for fields in lines if fields}


def pytest_terminal_summary(terminalreporter, config) -> None:
    never = {(row["site"], row["check"]) for row in config._record_coverage.never_failing()}
    listed = listed_sites()
    write = terminalreporter.write_line
    terminalreporter.write_sep("-", f"{len(never)} report call sites never recorded a failure")
    for row in config._record_coverage.never_failing():
        site, check = row["site"], row["check"]
        write(f"{site} {check}{'' if (site, check) in listed else '  (not listed)'}")
    for site, check in sorted(listed - never):
        write(f"listed but failed or not reached: {site} {check}")
