"""Tests of the benchmark itself: span arithmetic, known-answer checks,
negative controls, seed plumbing, and agreement with BENCHMARK.json."""

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads
from crosscap_calc import cli, fpres, gf2, rschreier

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_times_subtract_covered_child_time():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["e", 8.0, 12.0, 0],  # overlaps d and outlives a: counted once, clipped
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    inner_w = tracing._span_wrapper(tracer, "m.inner", inner, None, ())

    def outer():
        return inner_w() + inner_w()

    outer_w = tracing._span_wrapper(tracer, "m.outer", outer, None, ())
    assert outer_w() == 2
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    # outer 0..5, inners 1..2 and 3..4
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_install_wraps_cross_module_names_and_undo_restores():
    original = fpres.build_quotient_map
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert rschreier.build_quotient_map is fpres.build_quotient_map
        assert fpres.build_quotient_map is not original
        rschreier.verify_transversal(3)
    finally:
        undo()
    assert fpres.build_quotient_map is original
    assert rschreier.build_quotient_map is original
    names = {s[0] for s in tracer.spans}
    assert {"rschreier.verify_transversal", "fpres.build_quotient_map"} <= names
    assert tracer.counts["fpres.word_image.calls"] > 0


def _entry(check, passed, failed, **scope):
    return {"check": check, **scope, "passed": passed, "failed": failed, "failures": []}


def test_known_answer_checker_flags_a_flipped_verdict():
    report = {
        "overall_pass": True,
        "checks": [
            _entry("quotient-rank", 2, 0, g=3),
            _entry("o2-generation", 1, 0, g=4),
            _entry("tst-membership", 0, 0, g=7),
        ],
    }
    outcomes, vacuous = workloads.check_cli_report(0, report)
    assert vacuous == 1
    assert len(outcomes) == 3 and all(ok for _l, _v, ok in outcomes)

    report["checks"][1] = _entry("o2-generation", 0, 1, g=4)
    outcomes, _ = workloads.check_cli_report(0, report)
    assert [ok for _l, _v, ok in outcomes] == [True, True, False]

    report["overall_pass"] = False
    outcomes, _ = workloads.check_cli_report(1, report)
    assert outcomes[0][2] is False


def test_vacuous_entries_are_not_counted_as_passes():
    report = {"overall_pass": True, "checks": [_entry("tst-membership", 0, 0, g=8)]}
    outcomes, vacuous = workloads.check_cli_report(0, report)
    assert vacuous == 1
    assert [label for label, _v, _ok in outcomes] == ["verify all: exit code, overall_pass"]


def test_negative_controls_fail_as_known(tmp_path):
    assert workloads.relator_control(3, [0.5, 0.5, 0.5, 0.5])[2]
    assert workloads.rs_word_control(4, 0.3, 0.7)[2]
    assert workloads.transposition_control(4)[1] == [24, False]
    assert workloads.transposition_control(4)[2]


def test_negative_controls_catch_a_program_that_passes_everything(monkeypatch):
    monkeypatch.setattr(gf2, "generate_group", lambda g, gens: gf2.enumerate_o2(g))
    assert not workloads.transposition_control(4)[2]
    monkeypatch.setattr(fpres.QuotientMap, "word_image", lambda self, w: 0)
    assert not workloads.rs_word_control(4, 0.3, 0.7)[2]
    identity = fpres.exactmat.identity
    monkeypatch.setattr(fpres, "eval_symbol_word", lambda g, w: identity(g - 1))
    assert not workloads.relator_control(3, [0.5, 0.5, 0.5, 0.5])[2]


def test_golden_control_detects_the_flip(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "quotient-rank", "--g", "3..4", "--out", str(out)]) == 0
    label, code, ok = workloads.golden_control(str(out), str(tmp_path / "f.json"), 0.9)
    assert (code, ok) == (1, True)


class _Reached(BaseException):
    """Raised by the spy at the program's first sampling draw."""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reaches_the_programs_sampling(name, monkeypatch, tmp_path):
    seed = 918_273
    seen = []

    class Spy(random.Random):
        def __init__(self, x=None):
            seen.append(x)
            super().__init__(x)

        def randrange(self, *args):
            raise _Reached

    spy = types.SimpleNamespace(Random=Spy)
    monkeypatch.setattr(gf2, "random", spy)
    monkeypatch.setattr(rschreier, "random", spy)
    # verify-all reaches sampling only in the stabilizer check; run that one
    monkeypatch.setattr(cli, "CHECK_NAMES", ("stabilizer",))

    steps = [s for s in workloads.BUILDERS[name](seed, str(tmp_path)).steps if s.seeded]
    assert steps
    with pytest.raises(_Reached):
        for step in reversed(steps):  # the largest, sampled scopes come last
            step.call()
    assert seen[-1] == seed


def test_per_layer_names_and_units_match_benchmark_json():
    produced = tracing.layer_metrics(tracing.Tracer(), tracing.cache_counts())
    produced["trace.overhead_s"] = 0.0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: tracing.unit(name) for name in produced}


def test_end_to_end_and_workloads_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"][1] == "perfbench/run.py"
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "o2-reach",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
