"""``tools/check_coverage.py`` on a tiny in-process run, and the
never-failing list it reads."""

import importlib.util
import json
from pathlib import Path

from crosscap_calc import words
from crosscap_calc.cli import RunConfig, run
from crosscap_calc.reports import ReportBuilder

ROOT = Path(__file__).resolve().parent.parent


def load_plugin():
    spec = importlib.util.spec_from_file_location(
        "check_coverage", ROOT / "tools" / "check_coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_are_keyed_by_site_and_check(monkeypatch, tmp_path):
    plugin = load_plugin()
    coverage = plugin.RecordCoverage()
    saved = ReportBuilder.record, ReportBuilder.tally
    coverage.install()
    try:
        run(RunConfig("chain", (2, 2), "k"))
        with monkeypatch.context() as mp:
            mp.setattr(words, "braid_equal", lambda u, v: True)
            run(RunConfig("chain", (2, 2), "k"))
        # a call from outside the package is not a site
        ReportBuilder("outside").record(False, "ignored")
        ReportBuilder("outside").tally(0, 1, ())
    finally:
        coverage.uninstall()
    assert (ReportBuilder.record, ReportBuilder.tally) == saved
    rows = coverage.rows()
    # the three chain-relation records, in line order
    assert [row["check"] for row in rows] == ["chain-relation"] * 3
    assert all(row["site"].startswith("src/crosscap_calc/cli.py:") for row in rows)
    assert [(row["passes"], row["failures"]) for row in rows] == [(2, 0), (2, 0), (1, 1)]
    assert coverage.never_failing() == rows[:2]
    coverage.write(tmp_path / "coverage.json")
    assert json.loads((tmp_path / "coverage.json").read_text()) == rows


def test_every_listed_site_is_a_report_call():
    # the list keys sites by line: one that drifted off its call fails here
    listed = load_plugin().listed_sites()
    assert listed
    for site, check in listed:
        path, line = site.rsplit(":", 1)
        source = (ROOT / path).read_text().splitlines()[int(line) - 1]
        assert "rb.record(" in source or "rb.tally(" in source, (site, check)
