"""Smoke test of ``tools/cap_budget.py``: its exit code and output shape,
never its timings."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cap_budget.py"


def run_script(*argv, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_cap_budget_prints_three_runs_per_value_and_the_largest_fit():
    # each run shows its wall time and the peak RSS the child reports
    proc = run_script("chain", "1", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert re.fullmatch(r"python \S+; PYTHONDONTWRITEBYTECODE (un)?set in the children", lines[0])
    for value, line in zip((1, 2), lines[1:]):
        run = r"(\d+\.\d\d s \d+\.\d MiB|failed|timeout)"
        assert re.fullmatch(rf"chain {value}: {run}(, {run}){{2}}; (fits|over)", line), line
    assert re.fullmatch(r"largest within 2 s: [12]", lines[3]), lines[3]


@pytest.mark.parametrize("value, shown", [("1", "set"), ("", "unset"), (None, "unset")])
def test_cap_budget_header_says_whether_children_write_no_bytecode(value, shown, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)  # any bytecode written stays out of the tree
    if value is not None:
        env["PYTHONDONTWRITEBYTECODE"] = value
    proc = run_script("chain", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        f"python {platform.python_version()}; PYTHONDONTWRITEBYTECODE {shown} in the children"
    )


def test_cap_budget_rejects_an_unknown_check():
    proc = run_script("no-such-check", "1", timeout=60)
    assert proc.returncode == 2
    assert "unknown check 'no-such-check'" in proc.stderr
