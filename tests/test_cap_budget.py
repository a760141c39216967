"""Smoke test of ``tools/cap_budget.py``: its exit code and output shape,
never its timings."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cap_budget.py"


def test_cap_budget_prints_three_runs_per_value_and_the_largest_fit():
    # each run shows its wall time and the peak RSS the child reports
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "chain", "1", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for value, line in zip((1, 2), lines):
        run = r"(\d+\.\d\d s \d+\.\d MiB|failed|timeout)"
        assert re.fullmatch(rf"chain {value}: {run}(, {run}){{2}}; (fits|over)", line), line
    assert re.fullmatch(r"largest within 2 s: [12]", lines[2]), lines[2]


def test_cap_budget_rejects_an_unknown_check():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "no-such-check", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "unknown check 'no-such-check'" in proc.stderr
