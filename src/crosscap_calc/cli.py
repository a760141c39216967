"""Command-line driver for the verification suite.

``crosscap-calc verify CHECK`` runs one named check (or ``all``) across a
parameter range, emits a machine-readable report, and exits nonzero when
anything fails.  ``crosscap-calc golden REPORT GOLDEN`` compares a report
against a frozen one, ignoring timings.

``CHECKS`` is the one table of what each check is: runner, scope flag,
default range and the check's one limit, so a mistyped range cannot
start a week-long enumeration.  A check's limit lives where its cost is
paid: a scope cap here, or, for ``o2``, ``stabilizer``, ``transversal``
and ``rs``, the library's own (``gf2.ENUMERATION_CAP``,
``rschreier.TRANSVERSAL_DIM_CAP``), which raises ``CapExceededError``
before anything large is built.  Each scope cap is the largest value
measured to run within 2 s as a fresh process; none is ever lowered, so
``main-theorem`` keeps g=64 past that budget.  Nothing overrides a cap:
a library call is the way past one.  Cost rises with the scope, so the
first value past either limit ends the range as one failing
``<check>:cap`` entry rather than an exception, and batch runs continue.
The program's own refusals (``ArithmeticError``: an inconsistent
quotient, a slide that is not a level-2 involution, a closed-form
mismatch, a coset overflow) become one failing ``<check>:error`` entry
for their value, and the range goes on: an error at one value says
nothing about the next.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import SCHEMA_VERSION, __version__, exactmat, fpres, gf2, rschreier, words
from .reports import CapExceededError, CheckReport, ReportBuilder

TOOL_NAME = "crosscap-calc"

#: stabilizer checks are exhaustive up to this genus, sampled above it
STABILIZER_EXHAUSTIVE_LIMIT = 4

STABILIZER_SAMPLE = 100


def quotient_dim_bound(g: int) -> int:
    """Closed form for the quotient rank: the expected value that
    ``quotient-rank`` and ``main-theorem`` check the solved rank against."""
    return math.comb(g - 1, 2) + (1 if g % 2 == 0 else 0)


# ---------------------------------------------------------------------------
# check runners: one generator of CheckReports per selector


def _run_presentation(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    yield fpres.verify_prop_families(g)
    # COR_WITH_5 is PROP_1_TO_4 plus family (5): its entry checks only (5)
    yield fpres.verify_relators(
        fpres.Presentation(g, fpres.VARIANT_COR, (), fpres.family5_relators(g))
    )
    rb = ReportBuilder("representation-control", g=g)
    rb.record(
        fpres.degenerate_representation_control(g),
        "(Y[1,2]Y[1,3])^3 evaluates to the identity; representation degenerate",
    )
    yield rb.build()


def _run_commutation(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    yield fpres.verify_commutation_lemma(g)
    rb = ReportBuilder("commutation-control", g=g)
    a, b = ((1, 2), 1), ((2, 1), 1)
    rb.record(
        exactmat.eval_word(g, (a, b)) != exactmat.eval_word(g, (b, a)),
        "Y[1,2] and Y[2,1] unexpectedly commute",
    )
    yield rb.build()


def _run_quotient_rank(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    rb = ReportBuilder("quotient-rank", g=g)
    expected = quotient_dim_bound(g)
    got = fpres.quotient_rank(g)
    rb.record(got == expected, f"rank {got} != closed form {expected}")
    rb.detail(f"rank {got}")
    yield rb.build()


def _run_main_theorem(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    rb = ReportBuilder("main-theorem", g=g)
    expected = quotient_dim_bound(g) - 1
    got = fpres.twist_quotient_rank(g)
    rb.record(got == expected, f"twist quotient rank {got} != {expected}")
    rb.detail(f"level-2 group is index 2^{got} over the twist-subgroup part")
    yield rb.build()
    yield fpres.symbol_kernel_report(g)


def _run_o2(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    rb = ReportBuilder("o2-generation", g=g)
    enumerated = gf2.enumerate_o2(g)
    generated = gf2.generate_group(g, gf2.standard_twist_generators(g).values())
    rb.record(
        generated == enumerated,
        f"generated {len(generated)} elements != enumerated {len(enumerated)}",
    )
    rb.detail(f"group order {len(enumerated)}")
    yield rb.build()


def _run_stabilizer(g: int, seed: int) -> Iterator[CheckReport]:
    sample = None if g <= STABILIZER_EXHAUSTIVE_LIMIT else STABILIZER_SAMPLE
    for case in gf2.STABILIZER_CASES:
        yield gf2.stabilizer_case_check(g, case, sample_count=sample, seed=seed)


def _run_chain(k: int, seed: int) -> Iterator[CheckReport]:
    del seed
    rb = ReportBuilder("chain-relation", k=k)
    factors = words.chain_square_decomposition(k)
    rb.record(
        len(factors) == k * (k + 1) // 2,
        f"{len(factors)} factors != k(k+1)/2 = {k * (k + 1) // 2}",
    )
    rb.record(
        words.braid_equal(words.chain_power(k), words.decomposition_product(factors)),
        "(s1...sk)^(k+1) != product of the conjugated squares",
    )
    s1 = words.BraidWord(k + 1, (1,))
    s2 = words.BraidWord(k + 1, (2,)) if k >= 2 else words.BraidWord(k + 1, (-1,))
    rb.record(not words.braid_equal(s1, s2), "distinct braid letters compare equal")
    yield rb.build()


def _run_commutator_lemma(n: int, seed: int) -> Iterator[CheckReport]:
    del seed
    rb = ReportBuilder("commutator-lemma", n=n)
    rb.record(
        words.verify_commutator_lemma(n),
        f"free-group commutator identity fails at n={n}",
    )
    yield rb.build()


def _run_transversal(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    yield rschreier.verify_transversal(g)


def _run_rs(g: int, seed: int) -> Iterator[CheckReport]:
    yield rschreier.verify_rs_zero_images(g, seed=seed)
    yield rschreier.verify_family_zero_images(g, seed=seed)


def _run_case_identities(g: int, seed: int) -> Iterator[CheckReport]:
    del seed
    yield rschreier.verify_case_identities(g)


Runner = Callable[[int, int], Iterator[CheckReport]]


@dataclass(frozen=True)
class Check:
    """One ``verify`` selector."""

    run: Runner
    default_range: tuple[int, int]
    #: upper bound on the scope value, the largest measured to run within
    #: 2 s as a fresh process; None when the library bounds the check
    #: itself and raises ``CapExceededError`` past its limit
    cap: int | None
    #: the flag that scopes the check: genus ``g``, chain length ``k`` or
    #: factor count ``n``
    scope: str = "g"

    @property
    def floor(self) -> int:
        return 3 if self.scope == "g" else 1


CHECKS: dict[str, Check] = {
    "presentation": Check(_run_presentation, (3, 8), 72),
    "commutation": Check(_run_commutation, (3, 8), 48),
    "quotient-rank": Check(_run_quotient_rank, (3, 12), 64),
    "main-theorem": Check(_run_main_theorem, (3, 12), 64),
    "o2": Check(_run_o2, (3, 5), None),
    "stabilizer": Check(_run_stabilizer, (3, 5), None),
    "chain": Check(_run_chain, (1, 6), 48, scope="k"),
    "commutator-lemma": Check(_run_commutator_lemma, (1, 8), 3072, scope="n"),
    "transversal": Check(_run_transversal, (3, 7), None),
    "rs": Check(_run_rs, (3, 5), None),
    "case-identities": Check(_run_case_identities, (5, 6), 16),
}

CHECK_NAMES = tuple(CHECKS)


# ---------------------------------------------------------------------------
# configuration and the run loop


@dataclass(frozen=True)
class RunConfig:
    """One resolved ``verify`` invocation."""

    check: str
    value_range: tuple[int, int] | None = None
    # which scope flag the range came from ("g", "k", or "n"); in ``all`` mode
    # the range only restricts checks scoped by this parameter
    range_param: str | None = None
    seed: int = 0


def ascii_int(text: str) -> int:
    """``int(text)`` for ASCII digits only: no sign, space, underscore or
    other script's digit, all of which ``int`` would take."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def parse_range(text: str) -> tuple[int, int]:
    """``"5"`` or ``"3..8"`` (inclusive), each bound an ``ascii_int``."""
    lo, sep, hi = text.partition("..")
    try:
        a, b = ascii_int(lo), ascii_int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"bad range {text!r}: expected N or N..M") from None
    if a > b:
        raise ValueError(f"bad range {text!r}: empty")
    return a, b


def _refusal_entry(name: str, kind: str, value: int, message: str, start: float) -> dict:
    """The one failing ``<check>:<kind>`` entry for a refused scope value."""
    scope = ((CHECKS[name].scope, value),)
    entry = CheckReport(f"{name}:{kind}", scope, 0, 1, (message,)).to_json()
    entry["duration_ms"] = round((time.perf_counter() - start) * 1000)
    return entry


def run(config: RunConfig) -> dict:
    """Execute the configured checks and assemble the report document."""
    if config.check == "all":
        selected = CHECK_NAMES
    elif config.check in CHECKS:
        selected = (config.check,)
    else:
        raise ValueError(
            f"unknown check {config.check!r}; expected one of: all,"
            f" {', '.join(CHECK_NAMES)}"
        )
    entries: list[dict] = []
    all_ok = True
    for name in selected:
        check = CHECKS[name]
        range_applies = config.value_range is not None and (
            config.range_param is None or config.range_param == check.scope
        )
        lo, hi = config.value_range if range_applies else check.default_range
        for value in range(max(lo, check.floor), hi + 1):
            start = time.perf_counter()
            try:
                if check.cap is not None and value > check.cap:
                    raise CapExceededError(
                        f"{check.scope}={value} exceeds cap {check.cap}"
                    )
                for rep in check.run(value, config.seed):
                    now = time.perf_counter()
                    entry = rep.to_json()
                    entry["duration_ms"] = round((now - start) * 1000)
                    start = now
                    entries.append(entry)
                    # an entry that checked nothing is not a pass
                    all_ok = all_ok and rep.ok and rep.passed > 0
            except CapExceededError as exc:
                # cost rises with the scope: every later value is capped too
                stop = f"; the range to {check.scope}={hi} stops here" if hi > value else ""
                entries.append(_refusal_entry(name, "cap", value, f"{exc}{stop}", start))
                all_ok = False
                break
            except ArithmeticError as exc:
                # a refusal at one value says nothing about the next
                entries.append(_refusal_entry(name, "error", value, str(exc), start))
                all_ok = False
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "tool_version": __version__,
        "config": {
            "check": config.check,
            "range": None
            if config.value_range is None
            else f"{config.value_range[0]}..{config.value_range[1]}",
            "seed": config.seed,
            "caps": {
                name: check.cap for name, check in CHECKS.items() if check.cap is not None
            },
        },
        "checks": entries,
        "overall_pass": all_ok,
    }


# ---------------------------------------------------------------------------
# emission and golden comparison


def render_markdown(report: dict) -> str:
    config = report["config"]
    lines = [
        "# crosscap-calc verification report",
        "",
        f"- tool: {report['tool']} {report['tool_version']}"
        f" (schema {report['schema_version']})",
        f"- check: {config['check']}, range: {config['range'] or 'defaults'},"
        f" seed: {config['seed']}",
        f"- overall: {'PASS' if report['overall_pass'] else 'FAIL'}",
        "",
        "| check | scope | passed | failed | notes |",
        "|---|---|---:|---:|---|",
    ]
    for entry in report["checks"]:
        scope = ", ".join(
            f"{key}={entry[key]}" for key in ("g", "k", "n") if key in entry
        )
        if entry["failed"]:
            notes = entry["failures"][0]
        elif entry.get("caveats"):
            notes = f"{len(entry['caveats'])} caveat(s)"
        else:
            notes = ""
        lines.append(
            f"| {entry['check']} | {scope} | {entry['passed']}"
            f" | {entry['failed']} | {notes} |"
        )
    lines.append("")
    return "\n".join(lines)


def emit_report(report: dict, emit: str, out: str | None) -> None:
    if emit == "json":
        text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    elif emit == "markdown":
        text = render_markdown(report)
    else:
        raise ValueError(f"unknown emit format {emit!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


class SchemaMismatchError(ValueError):
    """The two reports use different report schema versions."""


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k != "duration_ms"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def _diff(a, b, path: str, out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                out.append(f"{sub}: only in golden")
            elif key not in b:
                out.append(f"{sub}: only in report")
            else:
                _diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} entries != {len(b)} in golden")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", out)
    elif a != b or type(a) is not type(b):
        out.append(f"{path}: {a!r} != golden {b!r}")


def _load_report(path: str) -> dict:
    """Read a JSON report; ValueError if the file is not a JSON object."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON report: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON report: top level is not an object")
    return doc


def golden_compare(report: dict, golden: dict) -> list[str]:
    """Differences between a report and a frozen golden, ignoring timings.

    A schema version mismatch is an error, not a difference list: the
    comparison itself is undefined across schemas.
    """
    if report.get("schema_version") != golden.get("schema_version"):
        raise SchemaMismatchError(
            f"schema_version {report.get('schema_version')!r} !="
            f" golden {golden.get('schema_version')!r}"
        )
    diffs: list[str] = []
    _diff(_strip_timing(report), _strip_timing(golden), "", diffs)
    return diffs


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="exact-arithmetic verification suite for the level-2"
        " crosscap-slide action",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one check or all of them")
    verify.add_argument("check", choices=("all",) + CHECK_NAMES)
    verify.add_argument("--g", dest="g", help="genus or genus range, e.g. 5 or 3..8")
    verify.add_argument("--k", dest="k", help="chain length or range (chain only)")
    verify.add_argument(
        "--n", dest="n", help="factor count or range (commutator-lemma only)"
    )
    verify.add_argument("--seed", type=ascii_int, default=0, help="RNG seed for sampling")
    verify.add_argument("--emit", choices=("json", "markdown"), default="json")
    verify.add_argument("--out", help="write the report here instead of stdout")

    golden = sub.add_parser("golden", help="compare a report against a golden file")
    golden.add_argument("report", help="freshly produced JSON report")
    golden.add_argument("golden", help="frozen JSON report to compare against")
    return parser


def _resolve_range(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Return ``(scope_key, (lo, hi))`` from --g/--k/--n, or ``(None, None)``."""
    given = {
        key: getattr(args, key) for key in ("g", "k", "n") if getattr(args, key) is not None
    }
    if not given:
        return None, None
    if len(given) > 1:
        parser.error("give at most one of --g/--k/--n")
    key, text = next(iter(given.items()))
    if args.check == "all":
        check = next(c for c in CHECKS.values() if c.scope == key)
    else:
        check = CHECKS[args.check]
        if key != check.scope:
            parser.error(
                f"check {args.check!r} is scoped by --{check.scope}, not --{key}"
            )
    try:
        lo, hi = parse_range(text)
    except ValueError as exc:
        parser.error(str(exc))
    if lo < check.floor:
        parser.error(f"--{key} must start at {check.floor} or above, got {lo}")
    return key, (lo, hi)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "golden":
        try:
            report = _load_report(args.report)
            golden = _load_report(args.golden)
            diffs = golden_compare(report, golden)
        except (OSError, ValueError) as exc:
            # unreadable or malformed input, or a schema mismatch: exit 1
            # is reserved for two readable reports that differ
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in diffs:
            print(line)
        if diffs:
            print(f"{len(diffs)} difference(s)", file=sys.stderr)
            return 1
        print("reports match (timings ignored)")
        return 0

    range_param, value_range = _resolve_range(args, parser)
    try:
        report = run(RunConfig(args.check, value_range, range_param, args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_report(report, args.emit, args.out)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
