"""Command line driver: runners, caps, report schema, golden comparison."""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import crosscap_calc
from crosscap_calc import SCHEMA_VERSION, __version__, cli, exactmat, fpres, gf2, rschreier
from crosscap_calc.cli import (
    CHECK_NAMES,
    RunConfig,
    SchemaMismatchError,
    ascii_int,
    golden_compare,
    main,
    parse_range,
    run,
)
from crosscap_calc.reports import CheckReport, ReportBuilder


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def chain_capped_at_6(monkeypatch):
    """``chain`` with its old cap k=6, so a range past the cap runs k <= 6."""
    monkeypatch.setitem(cli.CHECKS, "chain", replace(cli.CHECKS["chain"], cap=6))


CAPPED = [name for name, check in cli.CHECKS.items() if check.cap is not None]


class TestParsing:
    def test_parse_range(self):
        assert parse_range("5") == (5, 5)
        assert parse_range("3..8") == (3, 8)

    def test_ascii_int(self):
        assert ascii_int("0") == 0
        assert ascii_int("10") == 10
        for bad in ("", "1_0", " 3", "3 ", "+3", "-3", "\u0663", "\uff14", "3.0"):
            with pytest.raises(ValueError):
                ascii_int(bad)

    def test_parse_range_rejects_junk(self):
        # int() takes the last six: an underscore, spaces, a sign and
        # fullwidth digits
        for bad in ("", "8..3", "3..", "a..b", "3-8",
                    "1_0", " 4", "4 ", "+4", "\uff14", "3..\uff18"):
            with pytest.raises(ValueError):
                parse_range(bad)

    def test_config_caps_is_the_table_of_scope_caps(self):
        # the caps every report records under config.caps
        report = run(RunConfig(check="chain", value_range=(1, 1)))
        assert report["config"]["caps"] == {
            "presentation": 72, "commutation": 48, "quotient-rank": 64,
            "main-theorem": 64, "chain": 48, "commutator-lemma": 3072,
            "case-identities": 16,
        }

    @given(st.text())
    def test_parse_range_parses_or_raises_value_error(self, text):
        try:
            lo, hi = parse_range(text)
        except ValueError:
            return
        assert lo <= hi


# environment values cannot hold NUL or unpaired surrogates
env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"))


@settings(phases=[Phase.explicit])
@given(env_text)
@example("chain=1")
@example("chain=25,commutation=99")
@example("o2=x")
def test_the_old_override_variable_changes_nothing(text):
    # the variable once raised or lowered a cap; now k=2 passes and one
    # past the cap is refused whatever it holds, with the same
    # config.caps and entries
    scopes = (2, cli.CHECKS["chain"].cap + 1)
    expected = [run(RunConfig("chain", (k, k), "k")) for k in scopes]
    with mock.patch.dict(os.environ, {"CROSSCAP_CAP_OVERRIDE": text}):
        got = [run(RunConfig("chain", (k, k), "k")) for k in scopes]
    assert [r["overall_pass"] for r in got] == [True, False]
    assert [golden_compare(r, want) for r, want in zip(got, expected)] == [[], []]


class TestRun:
    def test_report_shape(self):
        report = run(RunConfig(check="chain", value_range=(1, 2)))
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["tool"] == "crosscap-calc"
        assert report["tool_version"] == __version__
        assert report["config"]["check"] == "chain"
        assert report["config"]["range"] == "1..2"
        assert report["overall_pass"] is True
        assert {e["k"] for e in report["checks"]} == {1, 2}
        for entry in report["checks"]:
            assert entry["failed"] == 0
            assert isinstance(entry["duration_ms"], int)

    def test_every_check_runs_at_minimum_scope(self):
        for name in CHECK_NAMES:
            lo = cli.CHECKS[name].floor
            report = run(RunConfig(check=name, value_range=(lo, lo)))
            assert report["overall_pass"] is True, name

    @pytest.mark.usefixtures("chain_capped_at_6")
    def test_cap_violation_is_reported_not_raised(self):
        report = run(RunConfig(check="chain", value_range=(1, 7)))
        assert report["overall_pass"] is False
        names = [e["check"] for e in report["checks"]]
        assert "chain:cap" in names
        cap_entry = next(e for e in report["checks"] if e["check"] == "chain:cap")
        assert cap_entry["failed"] == 1

    @pytest.mark.usefixtures("chain_capped_at_6")
    def test_a_range_stops_at_its_first_capped_value(self):
        # one entry for the rest of the range, however long it is
        report = run(RunConfig(check="chain", value_range=(1, 10**12), range_param="k"))
        assert [(e["check"], e["k"]) for e in report["checks"]] == [
            ("chain-relation", k) for k in range(1, 7)
        ] + [("chain:cap", 7)]
        assert report["checks"][-1]["failures"] == [
            f"k=7 exceeds cap 6; the range to k={10**12} stops here"
        ]
        assert report["overall_pass"] is False

    @pytest.mark.parametrize("name", CAPPED)
    def test_one_past_a_scope_cap_runs_nothing(self, name, capsys, monkeypatch):
        def forbidden(value, seed):
            raise AssertionError(f"{name} ran past its cap")

        check = cli.CHECKS[name]
        monkeypatch.setitem(cli.CHECKS, name, replace(check, run=forbidden))
        past = check.cap + 1
        code, report = run_json(capsys, "verify", name, f"--{check.scope}", str(past))
        assert code == 1
        [entry] = report["checks"]
        assert (entry["check"], entry[check.scope]) == (f"{name}:cap", past)
        assert entry["failures"] == [f"{check.scope}={past} exceeds cap {check.cap}"]

    @pytest.mark.parametrize(
        "name, value",
        [("chain", 7), ("presentation", 9), ("commutation", 17),
         ("commutator-lemma", 17), ("case-identities", 9)],
    )
    def test_one_past_each_old_cap_passes(self, name, value):
        report = run(RunConfig(check=name, value_range=(value, value)))
        assert report["overall_pass"] is True
        assert all(e["passed"] > 0 for e in report["checks"])

    def test_library_cap_becomes_a_cap_entry(self, capsys):
        # the transversal walk raises CapExceededError before listing anything
        code, report = run_json(capsys, "verify", "transversal", "--g", "8..9")
        assert code == 1
        [entry] = report["checks"]
        assert (entry["check"], entry["g"], entry["failed"]) == ("transversal:cap", 8, 1)
        assert entry["failures"] == [
            "transversal has 2^22 elements, past the dimension cap 16;"
            " the range to g=9 stops here"
        ]

    @pytest.mark.parametrize("name", ["o2", "stabilizer"])
    def test_enumeration_cap_fires_before_any_closure(self, name, capsys, monkeypatch):
        # g=7 is past gf2.ENUMERATION_CAP: one cap entry, and no coset
        # closure is started
        calls = []
        monkeypatch.setattr(gf2, "generate_group", lambda *args: calls.append(args))
        code, report = run_json(capsys, "verify", name, "--g", "7")
        assert code == 1
        [entry] = report["checks"]
        assert (entry["check"], entry["g"], entry["failed"]) == (f"{name}:cap", 7, 1)
        assert entry["failures"] == ["frame enumeration capped at g <= 6, got 7"]
        assert calls == []

    def test_rs_past_the_dimension_cap_builds_nothing(self, capsys, monkeypatch):
        def forbidden(g):
            raise AssertionError("rs builds a table past the cap")

        # neither the generating set nor the quotient reduction is started
        monkeypatch.setattr(rschreier, "level2_generating_set", forbidden)
        monkeypatch.setattr(rschreier, "build_quotient_map", forbidden)
        monkeypatch.setattr(fpres, "_quotient_pivots", forbidden)
        code, report = run_json(capsys, "verify", "rs", "--g", "8")
        assert code == 1
        [entry] = report["checks"]
        assert (entry["check"], entry["g"]) == ("rs:cap", 8)
        assert entry["failures"] == [
            "transversal has 2^22 elements, past the dimension cap 16"
        ]

    def test_commutation_multiplies_no_matrices(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("the commutation check must not call mat_mul")

        monkeypatch.setattr(exactmat, "mat_mul", forbidden)
        assert run(RunConfig(check="commutation", value_range=(3, 5)))["overall_pass"]

    def test_rs_covers_family_4_at_genus_6(self, capsys):
        # family 4 has 460,800 words at g=6
        code, report = run_json(capsys, "verify", "rs", "--g", "6")
        assert code == 0
        entries = {e["check"]: e for e in report["checks"]}
        assert all(e["failed"] == 0 for e in entries.values())
        assert "family 4: 460800 words" in entries["family-zero-image"]["details"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run(RunConfig(check="nonsense"))


def _relator_entries(g):
    report = run(RunConfig(check="presentation", value_range=(g, g)))
    entries = {e["check"]: e for e in report["checks"]}
    return entries["relators:PROP_1_TO_4"], entries["relators:COR_WITH_5"]


class TestPresentationRunner:
    def test_builds_no_presentation(self, monkeypatch):
        # family (1)-(4) is read per class from the table, family (5)'s
        # presentation is built directly
        def forbidden(g, variant):
            raise AssertionError("the presentation check must not build a presentation")

        monkeypatch.setattr(fpres, "build_presentation", forbidden)
        assert run(RunConfig(check="presentation", value_range=(3, 5)))["overall_pass"]

    def test_an_identity_evaluator_fails_only_the_control(self, monkeypatch):
        # every word evaluates to I: the relator entries pass vacuously,
        # and only the representation control can say so.  Each I is a
        # fresh copy of the cached one, as a product would be, so a
        # control that compared by object identity fails here too
        def identity_evaluator(g, w):
            return exactmat.IntMatrix(exactmat.identity(g - 1).rows)

        monkeypatch.setattr(fpres, "eval_symbol_word", identity_evaluator)
        assert fpres.degenerate_representation_control(4) is False
        report = run(RunConfig("presentation", (4, 4), "g"))
        entries = {e["check"]: (e["passed"], e["failed"]) for e in report["checks"]}
        assert entries["representation-control"] == (0, 1)
        for name in ("relators:PROP_1_TO_4", "relators:COR_WITH_5"):
            assert entries[name][0] > 0 and entries[name][1] == 0, name
        assert report["overall_pass"] is False

    def test_a_broken_family_row_fails_both_entries_alike(self, break_family_row):
        # Y[i,j] Y[k,i] squared is not a relator: every family 2a relator fails
        break_family_row("2a", ((0, 1), (2, 0)))
        prop, cor = _relator_entries(5)
        rels = fpres.build_presentation(5, fpres.VARIANT_PROP).relators
        labels = [f"2a{rel.indices}" for rel in rels if rel.family == "2a"]
        assert len(labels) == 36
        assert prop["failures"] == cor["failures"] == labels
        assert (prop["passed"], prop["failed"]) == (len(rels) - 36, 36)
        # COR_WITH_5 adds the g - 1 = 4 family (5) relators, which pass
        assert (cor["passed"], cor["failed"]) == (len(rels) - 36 + 4, 36)

    def test_folded_entry_equals_one_pass_over_cor(self, monkeypatch, break_family_row):
        # every family 3b relator and every family (5) relator fail: more
        # than 50 failures, so the truncated list is compared as well
        break_family_row("3b", ((0, 2), (0, 3)))
        relator5_word = fpres.relator5_word
        monkeypatch.setattr(
            fpres, "relator5_word", lambda g, i: relator5_word(g, i) + relator5_word(g, i)[:1]
        )
        one_pass = fpres.verify_relators(fpres.build_presentation(5, fpres.VARIANT_COR))
        _prop, cor = _relator_entries(5)
        del cor["duration_ms"]
        assert one_pass.failed > CheckReport.MAX_FAILURES
        assert cor == one_pass.to_json()


class TestO2Runner:
    def test_two_subset_transvections_generate_only_the_permutations(
        self, capsys, monkeypatch
    ):
        # the 2-subset transvections generate the g! permutation matrices:
        # all of O(3, F2) = S_3, but not O(4, F2) or O(5, F2)
        standard = gf2.standard_twist_generators
        monkeypatch.setattr(gf2, "standard_twist_generators", lambda g: standard(g, (2,)))
        code, report = run_json(capsys, "verify", "o2", "--g", "3..5")
        assert code != 0
        entries = {e["g"]: e for e in report["checks"]}
        assert (entries[3]["passed"], entries[3]["failed"]) == (1, 0)
        assert entries[4]["failures"] == ["generated 24 elements != enumerated 48"]
        assert entries[5]["failures"] == ["generated 120 elements != enumerated 720"]


class TestMainVerify:
    def test_json_emission(self, capsys):
        code, report = run_json(capsys, "verify", "quotient-rank", "--g", "3..6")
        assert code == 0
        assert report["overall_pass"] is True
        assert len(report["checks"]) == 4

    def test_an_entry_that_checked_nothing_fails_the_run(self, capsys, monkeypatch):
        def empty(g, seed):
            yield ReportBuilder("empty", g=g).build()

        check = cli.CHECKS["quotient-rank"]
        monkeypatch.setitem(cli.CHECKS, "quotient-rank", replace(check, run=empty))
        code, report = run_json(capsys, "verify", "quotient-rank", "--g", "3")
        assert code == 1
        assert report["overall_pass"] is False
        [entry] = report["checks"]
        assert (entry["check"], entry["passed"], entry["failed"]) == ("empty", 0, 0)

    def test_markdown_emission(self, capsys):
        code = main(["verify", "chain", "--k", "1..3", "--emit", "markdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "| check | scope | passed | failed | notes |" in out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["verify", "o2", "--g", "3", "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["config"]["check"] == "o2"
        assert capsys.readouterr().out == ""  # --out writes the file, nothing else

    def test_out_into_missing_directory_exits_two(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "report.json"
        assert main(["verify", "chain", "--k", "1", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not path.parent.exists()

    @pytest.mark.usefixtures("chain_capped_at_6")
    def test_cap_violation_exit_code(self, capsys):
        code, report = run_json(capsys, "verify", "chain", "--k", "7")
        assert code == 1
        assert report["checks"][0]["check"] == "chain:cap"

    def test_wrong_scope_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "chain", "--g", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quotient-rank", "--g", ""], "bad range ''"),
            (["chain", "--k", ""], "bad range ''"),
            (["commutator-lemma", "--n", ""], "bad range ''"),
            (["all", "--g", ""], "bad range ''"),
            (["chain", "--g", ""], "is scoped by --k, not --g"),
        ],
    )
    def test_an_empty_scope_flag_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_conflicting_scope_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--g", "4", "--k", "2"])
        assert exc.value.code == 2

    def test_all_restricts_ranges_per_check(self, capsys):
        code, report = run_json(capsys, "verify", "all", "--g", "3..4")
        assert code == 0
        # the g-scoped checks honor the cut-down range ...
        assert {e["g"] for e in report["checks"] if "g" in e} == {3, 4}
        # ... while k/n-scoped checks keep their defaults
        assert {e["k"] for e in report["checks"] if "k" in e} == set(range(1, 7))
        assert {e["n"] for e in report["checks"] if "n" in e} == set(range(1, 9))

    def test_seed_is_threaded_through(self, capsys):
        code, report = run_json(capsys, "verify", "stabilizer", "--g", "5", "--seed", "3")
        assert code == 0
        assert report["config"]["seed"] == 3

    # int() takes all four: an underscore, a space, a sign, an Arabic-Indic digit
    @pytest.mark.parametrize("seed", ["1_0", " 3", "+3", "\u0663"])
    def test_a_seed_not_in_ascii_digits_is_a_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "quotient-rank", "--g", "3", "--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: invalid ascii_int value: {seed!r}" in captured.err


class TestModuleEntryPoint:
    """``python -m crosscap_calc.cli`` and ``python -m crosscap_calc`` run
    the command, not nothing."""

    @staticmethod
    def run_module(*argv, module="crosscap_calc.cli"):
        env = dict(os.environ)
        src = str(Path(crosscap_calc.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_verify_emits_a_report_and_exits_zero(self):
        proc = self.run_module("verify", "quotient-rank", "--g", "3")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["overall_pass"] is True
        assert [e["g"] for e in report["checks"]] == [3]

    def test_bad_genus_exits_two(self):
        proc = self.run_module("verify", "quotient-rank", "--g", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_package_runs_as_a_module(self):
        proc = self.run_module("verify", "quotient-rank", "--g", "3", module="crosscap_calc")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["overall_pass"] is True
        proc = self.run_module("verify", "quotient-rank", "--g", "2", module="crosscap_calc")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_o2_runs_at_genus_6(self):
        proc = self.run_module("verify", "o2", "--g", "6")
        assert proc.returncode == 0, proc.stderr
        [entry] = json.loads(proc.stdout)["checks"]
        assert entry["details"] == ["group order 23040"]

    def test_stabilizer_runs_at_genus_6(self):
        proc = self.run_module("verify", "stabilizer", "--g", "6")
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)["checks"]
        # Stab(e1) is O(5); every element of O(6) fixes the all-ones class
        assert [(e["check"], e["failed"], e["details"]) for e in entries] == [
            (f"stabilizer:{case}", 0,
             [f"stabilizer order {order}, closure order {closure}, elements checked 100"])
            for case, order, closure in (
                ("alpha1", 720, 720), ("alpha12", 768, 96), ("alpha_all", 23_040, 23_040)
            )
        ]


class TestGolden:
    @pytest.fixture()
    def report_path(self, tmp_path):
        path = tmp_path / "report.json"
        assert main(["verify", "chain", "--k", "1..2", "--out", str(path)]) == 0
        return path

    def test_match(self, report_path, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        # timings differ run to run; comparison must ignore them
        fresh = tmp_path / "fresh.json"
        assert main(["verify", "chain", "--k", "1..2", "--out", str(fresh)]) == 0
        golden.write_text(report_path.read_text())
        assert main(["golden", str(fresh), str(golden)]) == 0

    def test_tamper_detected(self, report_path, tmp_path, capsys):
        doc = json.loads(report_path.read_text())
        doc["checks"][0]["passed"] = 999
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(doc))
        assert main(["golden", str(report_path), str(golden)]) == 1
        out = capsys.readouterr().out
        assert "checks[0].passed" in out

    def test_schema_mismatch(self, report_path, tmp_path, capsys):
        doc = json.loads(report_path.read_text())
        doc["schema_version"] = 99
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(doc))
        assert main(["golden", str(report_path), str(golden)]) == 2

    def test_missing_file_exits_two(self, report_path, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["golden", missing, str(report_path)]) == 2
        assert main(["golden", str(report_path), missing]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and "missing.json" in err

    def test_malformed_file_exits_two(self, report_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]"):
            bad.write_text(text)
            assert main(["golden", str(bad), str(report_path)]) == 2
            assert main(["golden", str(report_path), str(bad)]) == 2
        bad.write_bytes(b"\xff\xfe")
        assert main(["golden", str(bad), str(report_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_golden_compare_units(self):
        a = {"schema_version": SCHEMA_VERSION, "x": 1, "checks": [{"duration_ms": 5}]}
        b = {"schema_version": SCHEMA_VERSION, "x": 1, "checks": [{"duration_ms": 9}]}
        assert golden_compare(a, b) == []
        b["x"] = 2
        assert golden_compare(a, b) == ["x: 1 != golden 2"]
        b["schema_version"] = 0
        with pytest.raises(SchemaMismatchError):
            golden_compare(a, b)


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@functools.cache
def _verify_all_seed0():
    return run(RunConfig(check="all", seed=0))


def test_verify_all_matches_the_checked_in_golden():
    """``verify all --seed 0`` at default scopes equals the frozen report
    in ``tests/golden``, timings ignored: a speedup must not move a count,
    a failure label, a detail or a verdict."""
    golden = json.loads((GOLDEN_DIR / "verify_all_seed0.json").read_text())
    assert golden_compare(_verify_all_seed0(), golden) == []


def test_verify_all_has_no_entry_that_checked_nothing():
    report = _verify_all_seed0()
    assert report["overall_pass"] is True
    assert all(e["passed"] + e["failed"] > 0 for e in report["checks"])
