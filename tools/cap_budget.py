"""Measure which scope values of a check fit the 2 s cap budget.

    python tools/cap_budget.py CHECK VALUE...

The first line names the Python version and whether the children, which
inherit this environment, run with ``PYTHONDONTWRITEBYTECODE`` set.  Set
in a checkout with no cached bytecode, it makes each child compile every
module it imports, and the times include that.  Then, for each value,
runs ``cli.CHECKS[CHECK].run(value, 0)`` in three fresh interpreters,
one after another, and prints each run's wall time
(interpreter start included) and peak resident set size, which the
child reads from its own ``ru_maxrss``.  A run passes when every report
it yields is ok and it finishes inside the budget; a run past
``TIMEOUT_S`` is killed.  The last line names the largest value whose three runs all
passed, the one ``cli.CHECKS`` may take as the check's cap.  Exits 1
when no value fits.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BUDGET_S = 2.0
TIMEOUT_S = 30.0
RUNS = 3
SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import resource, sys
from crosscap_calc import cli
reports = list(cli.CHECKS[sys.argv[1]].run(int(sys.argv[2]), 0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(0 if all(r.ok for r in reports) else 1)
"""


def time_run(check: str, value: int) -> tuple[float, float] | str:
    """Wall seconds and peak MiB of one fresh-process run, or why it did
    not pass."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, check, str(value)],
            env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return "failed"
    return elapsed, int(proc.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check")
    parser.add_argument("values", nargs="+", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from crosscap_calc import cli

    if args.check not in cli.CHECKS:
        parser.error(f"unknown check {args.check!r}; choose from {', '.join(cli.CHECKS)}")
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    print(f"python {platform.python_version()}; PYTHONDONTWRITEBYTECODE {bytecode} in the children")
    fits = []
    for value in args.values:
        runs = [time_run(args.check, value) for _ in range(RUNS)]
        shown = ", ".join(
            r if isinstance(r, str) else f"{r[0]:.2f} s {r[1]:.1f} MiB" for r in runs
        )
        ok = all(not isinstance(r, str) and r[0] <= BUDGET_S for r in runs)
        print(f"{args.check} {value}: {shown}; {'fits' if ok else 'over'}")
        if ok:
            fits.append(value)
    if not fits:
        print(f"no value fits {BUDGET_S:g} s")
        return 1
    print(f"largest within {BUDGET_S:g} s: {max(fits)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
