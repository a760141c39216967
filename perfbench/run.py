"""Cold-process benchmark for crosscap-calc: time to an exact verdict.

Run from the repository root::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Every repetition runs the workload in a fresh interpreter, because a
command-line user pays cold ``functools.cache`` state on every run; a
warm in-process loop would time dictionary lookups.  One lane per CPU
(at most two), pinned to it, starts repetitions back to back until
``--seconds`` have passed, at least one each.  Each end-to-end metric is
the median within each lane, averaged over the lanes:

* ``verdict_s``: from the workload's first check call to its last
  verdict, tracing off;
* ``setup_s``: interpreter spawn, imports and input generation, up to
  the first check call; also sampled by set-up-only spawns;
* ``peak_rss_mib``: ``ru_maxrss`` of the workload process.

Every verdict is compared with a known answer; the share of operations
that miss it (``fail_share``) is printed and is ``failed / attempted``
in the result line.  ``--trace 1`` runs untraced and traced repetitions
in pairs, checks that their verdicts agree, and reports the per-layer
metrics of ``tracing.py`` plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "workloads.py"
SCRATCH = ROOT / ".perfbench_tmp"

#: the whole invocation must end well inside three minutes
DEADLINE_S = 170

#: set-ups per lane at least: one per repetition, topped up by
#: set-up-only spawns
SETUP_SPAWNS = 5

#: concurrent lanes of repetitions, one per CPU
LANES = 2

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def child_env(tmp: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, and the program's own default caps
    env["PYTHONHASHSEED"] = "0"
    env.pop("CROSSCAP_CAP_OVERRIDE", None)
    env["PERFBENCH_TMP"] = tmp
    return env


def spawn(args, mode: str, trace: bool, tmp: str, started: float) -> dict:
    """One fresh-interpreter run of the workload; adds ``setup_s``."""
    remaining = DEADLINE_S - (workloads.clock() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    argv = [sys.executable, str(CHILD), args.workload, str(args.seed), mode,
            "1" if trace else "0"]
    spawned = workloads.clock()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(tmp), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def verdicts(rep: dict) -> list:
    return [[label, verdict] for label, verdict, _ok in rep["outcomes"]]


def tally(reps: list[dict]) -> tuple[int, int]:
    attempted = sum(len(r["outcomes"]) for r in reps)
    failed = sum(1 for r in reps for _label, _v, ok in r["outcomes"] if not ok)
    return attempted, failed


@dataclass
class Lane:
    """The repetitions one CPU ran."""

    cpu: int
    reps: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)


def run_lane(args, tmp: str, started: float, cpu: int) -> Lane:
    """Repetitions back to back on one CPU until ``--seconds`` have
    passed: untraced ones, and with ``--trace 1`` a traced one after each;
    then set-up-only spawns up to ``SETUP_SPAWNS``."""
    # pins this thread, and so every child it spawns, to one CPU
    os.sched_setaffinity(0, {cpu})
    lane = Lane(cpu)
    while True:
        lane.setups.append(spawn(args, "setup", False, tmp, started)["setup_s"])
        lane.reps.append(spawn(args, "run", False, tmp, started))
        if args.trace:
            lane.traced.append(spawn(args, "run", True, tmp, started))
        if workloads.clock() - started >= args.seconds:
            break
    while len(lane.setups) < SETUP_SPAWNS:
        lane.setups.append(spawn(args, "setup", False, tmp, started)["setup_s"])
    lane.setups += [r["setup_s"] for r in lane.reps]
    return lane


def measure(args, tmp: str) -> list[Lane]:
    """One lane per CPU, up to ``LANES``, each running whole repetitions.

    A repetition is single-threaded, so the lanes share no CPU and a
    second lane doubles the samples in a run.
    """
    started = workloads.clock()
    cpus = sorted(os.sched_getaffinity(0))[:LANES]
    with ThreadPoolExecutor(len(cpus)) as pool:
        futures = [pool.submit(run_lane, args, tmp, started, cpu) for cpu in cpus]
        return [f.result() for f in futures]


def across_lanes(values: list[list[float]]) -> float:
    """The median within each lane, then the mean over the lanes: each CPU
    weighs the same, however many repetitions it finished."""
    return statistics.fmean(statistics.median(v) for v in values)


def end_to_end(lanes: list[Lane]) -> dict[str, float]:
    return {
        "verdict_s": across_lanes([[r["verdict_s"] for r in ln.reps] for ln in lanes]),
        "setup_s": across_lanes([ln.setups for ln in lanes]),
        "peak_rss_mib": across_lanes([[r["peak_rss_mib"] for r in ln.reps] for ln in lanes]),
    }


def per_layer(lanes: list[Lane]) -> dict[str, float]:
    traced = [t for ln in lanes for t in ln.traced]
    layers = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = (
        across_lanes([[t["verdict_s"] for t in ln.traced] for ln in lanes])
        - across_lanes([[r["verdict_s"] for r in ln.reps] for ln in lanes])
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crosscap_calc" / "__init__.py").is_file():
        print(f"error: no crosscap_calc sources under {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        lanes = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    runs = [r for ln in lanes for r in ln.reps + ln.traced]
    first = runs[0]
    agree = all(verdicts(r) == verdicts(first) for r in runs)
    attempted, failed = tally(runs)
    controls = [o for o in first["outcomes"] if o[0].startswith("control")]

    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
        f" nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}"
        f" lanes={len(lanes)}"
    )
    if args.trace:
        values, unit = per_layer(lanes), tracing.unit
    else:
        values, unit = end_to_end(lanes), END_TO_END_UNITS.get
    metrics = {
        name: {"value": value, "unit": unit(name)} for name, value in sorted(values.items())
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for ln in lanes:
        print(
            f"cpu {ln.cpu}: verdict_s", " ".join(f"{r['verdict_s']:.4f}" for r in ln.reps),
            "| setup_s", " ".join(f"{s:.4f}" for s in ln.setups),
        )
    print(
        f"fail_share = {failed / attempted:.6g} ({failed} of {attempted} operations"
        f" missed the known answer; {len(controls)} negative control(s) per repetition,"
        f" known verdict FAIL; {first['vacuous_entries']} vacuous entries not counted;"
        f" verdicts {'agree' if agree else 'DISAGREE'} across repetitions)"
    )
    for label, verdict, ok in first["outcomes"]:
        if not ok:
            print(f"  missed: {label}: {verdict}")
    print(json.dumps({
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
