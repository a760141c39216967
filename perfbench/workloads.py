"""The benchmark's workloads, their known answers, and the child process
that runs one of them in a fresh interpreter.

A workload is built from the seed as a list of steps.  Each step makes
one check call into ``crosscap_calc`` and turns what came back into
outcomes ``(label, verdict, ok)``: ``verdict`` is the program's
answer, ``ok`` says whether it equals an answer known without the code
under test.  Negative controls are generated from the seed and have a
known verdict of FAIL, so a program that passes everything loses them.

Run as a script it is the child process of ``run.py``::

    python3 perfbench/workloads.py WORKLOAD SEED MODE TRACE

MODE ``setup`` stops after set-up; ``run`` also runs the steps.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

#: genus range of the two library-level workloads; g=6 is past the CLI
#: ``o2`` cap and the level-2 sweep's most expensive affordable point
GENERA = (3, 4, 5, 6)

#: stabilizer checks enumerate O(g) and O(g-1): exhaustive up to 4,
#: sampled at 5, as ``crosscap-calc verify stabilizer`` does
STABILIZER_GENERA = (3, 4, 5)
STABILIZER_EXHAUSTIVE = 4
STABILIZER_SAMPLE = 100

#: |O(g, F2)| for g = 3..6: the orthogonal group of the standard dot
#: product, |O(2m+1)| = |Sp(2m, F2)| and |O(2m)| = 2^(2m-1) |Sp(2m-2, F2)|
O2_ORDER = {3: 6, 4: 48, 5: 720, 6: 23_040}

FAMILIES = ("1", "2", "3", "4")

#: the RS-word control picks among the first generators with a nonempty
#: transversal part, so its cost does not grow with the genus drawn
CONTROL_RS_WINDOW = 500

Outcome = tuple[str, object, bool]


@dataclass(frozen=True)
class Step:
    """One check call and the known answers its result is held to."""

    label: str
    call: Callable[[], list[Outcome]]
    #: hands the workload seed to the program's sampling
    seeded: bool = False


@dataclass
class Workload:
    steps: list[Step]
    #: report entries that checked nothing: neither passes nor failures
    vacuous_entries: int = 0


def quotient_rank_closed_form(g: int) -> int:
    """C(g-1, 2) + [g even], the rank of the level-2 mod-2 quotient.

    Kept apart from ``cli.quotient_dim_bound`` on purpose: a known answer
    must not come from the code under test."""
    return math.comb(g - 1, 2) + (1 if g % 2 == 0 else 0)


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def passes(label: str, report) -> Outcome:
    """A library CheckReport whose known verdict is PASS with items."""
    verdict = [report.passed, report.failed]
    return label, verdict, report.failed == 0 and report.passed > 0


# ---------------------------------------------------------------------------
# verify-all


def check_cli_report(code: int, report: dict) -> tuple[list[Outcome], int]:
    """Outcomes of one ``verify all`` run: the overall verdict and one per
    entry, each known to pass.  Entries that checked nothing are neither
    passes nor failures; they are returned as a count instead."""
    outcomes: list[Outcome] = [(
        "verify all: exit code, overall_pass",
        [code, report["overall_pass"]],
        code == 0 and report["overall_pass"] is True,
    )]
    vacuous = 0
    for entry in report["checks"]:
        if entry["passed"] == 0 and entry["failed"] == 0:
            vacuous += 1
            continue
        scope = ",".join(f"{k}={entry[k]}" for k in ("g", "k", "n") if k in entry)
        verdict = [entry["passed"], entry["failed"]]
        outcomes.append((f"verify all: {entry['check']} {scope}", verdict, entry["failed"] == 0))
    return outcomes, vacuous


def relator_control(g: int, picks: list[float]) -> Outcome:
    """Negative control: a family (1)-(4) relator with one extra slide
    letter spliced in.  A relator a b evaluates to I, so a Y b is
    conjugate to Y != I: checking it must FAIL."""
    from crosscap_calc import fpres

    rel_pick, i_pick, j_pick, pos_pick = picks
    pres = fpres.build_presentation(g, fpres.VARIANT_PROP)
    rel = pres.relators[int(rel_pick * len(pres.relators))]
    i = 1 + int(i_pick * (g - 1))
    others = [j for j in range(1, g + 1) if j != i]
    j = others[int(j_pick * len(others))]
    pos = int(pos_pick * (len(rel.word) + 1))
    bad = rel.word[:pos] + ((fpres.yslide(i, j), 1),) + rel.word[pos:]
    rep = fpres.verify_relators(fpres.Presentation(
        g=g,
        variant=fpres.VARIANT_PROP,
        generators=pres.generators,
        relators=(fpres.Relator(rel.family, rel.indices, bad),),
    ))
    verdict = [rep.passed, rep.failed]
    return f"control: relator with an extra slide letter g={g}", verdict, verdict == [0, 1]


def golden_control(out: str, flipped: str, pick: float) -> Outcome:
    """Negative control: the report against a copy with one entry's
    verdict flipped must not compare equal."""
    from crosscap_calc import cli

    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    live = [e for e in report["checks"] if e["passed"] > 0]
    entry = live[int(pick * len(live))]
    entry["passed"] -= 1
    entry["failed"] += 1
    with open(flipped, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    code = cli.main(["golden", out, flipped])
    return "control: golden against a flipped verdict", code, code == 1


def verify_all(seed: int, workdir: str) -> Workload:
    from crosscap_calc import cli

    rng = random.Random(seed)
    control_g = rng.randrange(3, 9)
    control_picks = [rng.random() for _ in range(4)]
    flip_pick = rng.random()
    out = os.path.join(workdir, "report.json")
    flipped = os.path.join(workdir, "flipped.json")
    workload = Workload([])

    def run_all() -> list[Outcome]:
        code = cli.main(["verify", "all", "--seed", str(seed), "--out", out])
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        outcomes, workload.vacuous_entries = check_cli_report(code, report)
        return outcomes

    def golden_self() -> list[Outcome]:
        code = cli.main(["golden", out, out])
        return [("golden: report against itself", code, code == 0)]

    workload.steps = [
        Step("verify all", run_all, seeded=True),
        Step("golden", golden_self),
        Step("control golden", lambda: [golden_control(out, flipped, flip_pick)]),
        Step("control relator", lambda: [relator_control(control_g, control_picks)]),
    ]
    return workload


# ---------------------------------------------------------------------------
# level2-sweep


def rs_word_control(g: int, pick: float, drop: float) -> Outcome:
    """Negative control: an RS generator word f x rep(fx)^-1 with one
    letter of f dropped.  The word's image was zero, so the result has
    the image of the dropped basis slide, a nonzero basis vector."""
    from crosscap_calc import fpres, rschreier

    gens = (r for r in rschreier.iter_rs_generators(g) if r.f.pairs)
    window = list(itertools.islice(gens, CONTROL_RS_WINDOW))
    gen = window[int(pick * len(window))]
    pos = int(drop * len(gen.f.pairs))
    bad = gen.word[:pos] + gen.word[pos + 1:]
    image = fpres.build_quotient_map(g).word_image(bad)
    return f"control: RS word with a letter dropped g={g}", image, image != 0


def level2_sweep(seed: int, workdir: str) -> Workload:
    from crosscap_calc import fpres, rschreier

    rng = random.Random(seed)
    control_g = rng.choice(GENERA)
    control_pick, control_drop = rng.random(), rng.random()

    def steps(g: int) -> list[Step]:
        rank = quotient_rank_closed_form(g)

        def rank_check() -> list[Outcome]:
            got = fpres.quotient_rank(g)
            return [(f"quotient_rank g={g}", got, got == rank)]

        def size_check() -> list[Outcome]:
            size = len(rschreier.transversal(g))
            return [(f"transversal size g={g}", size, size == 1 << rank)]

        return [
            Step(f"verify_transversal g={g}", lambda: [
                passes(f"verify_transversal g={g}", rschreier.verify_transversal(g))
            ]),
            Step(f"quotient_rank g={g}", rank_check),
            Step(f"transversal g={g}", size_check),
            Step(f"verify_rs_zero_images g={g}", lambda: [passes(
                f"verify_rs_zero_images g={g}",
                rschreier.verify_rs_zero_images(g, seed=seed),
            )], seeded=True),
            Step(f"verify_family_zero_images g={g}", lambda: [passes(
                f"verify_family_zero_images 1-4 g={g}",
                rschreier.verify_family_zero_images(g, FAMILIES, seed=seed),
            )], seeded=True),
        ]

    control = Step(
        "control RS word",
        lambda: [rs_word_control(control_g, control_pick, control_drop)],
    )
    return Workload([step for g in GENERA for step in steps(g)] + [control])


# ---------------------------------------------------------------------------
# o2-reach


def transposition_control(g: int) -> Outcome:
    """Negative control: the size-2 transvections are the transposition
    matrices, which generate the g! permutation matrices, not O(g)."""
    from crosscap_calc import gf2

    gens = gf2.standard_twist_generators(g, sizes=(2,))
    generated = gf2.generate_group(g, gens.values())
    verdict = [len(generated), generated == gf2.enumerate_o2(g)]
    known = [math.factorial(g), False]
    return f"control: size-2 transvections only g={g}", verdict, verdict == known


def o2_reach(seed: int, workdir: str) -> Workload:
    from crosscap_calc import gf2

    rng = random.Random(seed)
    control_g = rng.choice((4, 5, 6))

    def order_check(g: int) -> list[Outcome]:
        got = len(gf2.enumerate_o2(g))
        return [(f"enumerate_o2 g={g}", got, got == O2_ORDER[g])]

    def generation_check(g: int) -> list[Outcome]:
        gens = gf2.standard_twist_generators(g)
        generated = gf2.generate_group(g, gens.values())
        verdict = [len(generated), generated == gf2.enumerate_o2(g)]
        return [(f"generate_group g={g}", verdict, verdict == [O2_ORDER[g], True])]

    def stabilizer_check(g: int, case: str) -> list[Outcome]:
        sample = None if g <= STABILIZER_EXHAUSTIVE else STABILIZER_SAMPLE
        report = gf2.stabilizer_case_check(g, case, sample_count=sample, seed=seed)
        return [passes(f"stabilizer_case_check {case} g={g}", report)]

    steps = []
    for g in GENERA:
        steps.append(Step(f"enumerate_o2 g={g}", functools.partial(order_check, g)))
        steps.append(Step(f"generate_group g={g}", functools.partial(generation_check, g)))
    for g in STABILIZER_GENERA:
        for case in gf2.STABILIZER_CASES:
            steps.append(Step(
                f"stabilizer {case} g={g}",
                functools.partial(stabilizer_check, g, case),
                seeded=True,
            ))
    steps.append(Step("control transvections", lambda: [transposition_control(control_g)]))
    return Workload(steps)


BUILDERS = {"verify-all": verify_all, "level2-sweep": level2_sweep, "o2-reach": o2_reach}
WORKLOADS = tuple(BUILDERS)


def run_steps(steps: list[Step]) -> list[Outcome]:
    """Run every step; a step that raises is one failed outcome."""
    outcomes: list[Outcome] = []
    for step in steps:
        try:
            outcomes.extend(step.call())
        except Exception as exc:  # a raised check is a wrong verdict, not a crash
            outcomes.append((f"{step.label} raised", f"{type(exc).__name__}: {exc}", False))
    return outcomes


def child(workload: str, seed: int, mode: str, trace: bool) -> dict:
    """Set up (and in ``run`` mode, run) one workload in this process."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    with tempfile.TemporaryDirectory(dir=os.environ.get("PERFBENCH_TMP")) as workdir:
        built = BUILDERS[workload](seed, workdir)
        ready = clock()
        result: dict = {"ready": ready}
        if mode == "setup":
            return result
        outcomes = run_steps(built.steps)
        result["verdict_s"] = clock() - ready
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(
        peak_rss_mib=rss_kib / 1024,
        outcomes=outcomes,
        vacuous_entries=built.vacuous_entries,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, tracing.cache_counts())
    return result


if __name__ == "__main__":
    name, seed_text, mode_text, trace_text = sys.argv[1:5]
    if name not in BUILDERS or mode_text not in ("setup", "run"):
        sys.exit(f"usage: {sys.argv[0]} WORKLOAD SEED setup|run 0|1")
    print(json.dumps(child(name, int(seed_text), mode_text, trace_text == "1")))
