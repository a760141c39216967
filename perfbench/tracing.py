"""Per-layer tracing for the benchmark, installed from outside the package.

The layers are the modules of ``crosscap_calc``.  ``install`` replaces
the public functions each layer exposes to its callers with wrappers
that record a span (name, start, end, parent) or, for the per-element
hot functions, only a count.  A function imported by name into another
module is replaced there too, so calls across layers are seen.  Spans
stay in memory until ``layer_metrics`` folds them into the per-layer
numbers at the end of the run.

Self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable

#: per-element functions: counted, never spanned (a span each would
#: cost more than the call it measures); mat_mul is counted too
HOT_F2_MUL = "gf2.F2Matrix.__mul__"
HOT_WORD_IMAGE = "fpres.word_image"

#: the cached public functions whose cache_info() is reported
CACHED = (
    ("exactmat", "make_y"),
    ("fpres", "phi_image"),
    ("fpres", "build_quotient_map"),
    ("rschreier", "transversal"),
    ("gf2", "enumerate_o2"),
)

LAYERS = ("exactmat", "fpres", "rschreier", "gf2", "words", "cli")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(int)

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [name, self.clock(), 0.0, parent]
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = self.clock()
        self.stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# measures taken at a span boundary: each returns {counter suffix: amount}


def _report_items(_args, report) -> dict:
    return {"items": report.passed + report.failed}


def _distinct_len(seen: set) -> Callable:
    # cached functions hand back the same object on a hit; count it once
    def measure(_args, result) -> dict:
        if id(result) in seen:
            return {}
        seen.add(id(result))
        return {"elements": len(result)}

    return measure


def _found(_args, group) -> dict:
    return {"found": len(group) - 1}  # the identity is seeded, not found


def _braid_letters(args, _result) -> dict:
    u, v = args[0], args[1]
    return {"calls": 1, "letters": len(u.letters) + len(v.letters)}


def _entries(_args, report) -> dict:
    checks = report["checks"]
    vacuous = sum(1 for e in checks if e["passed"] == 0 and e["failed"] == 0)
    return {"entries": len(checks), "vacuous_entries": vacuous}


def _emitted_bytes(args, _result) -> dict:
    out = args[2] if len(args) > 2 else None
    if out is None:
        return {}
    return {"bytes": os.path.getsize(out)}


def _eval_letters(args, _result) -> dict:
    return {"letters": len(args[1])}


#: (module, attribute, measure or None, hot counters to attribute to the span)
def _span_table() -> list[tuple[str, str, Callable | None, tuple[str, ...]]]:
    return [
        ("exactmat", "eval_word", _eval_letters, ()),
        ("fpres", "build_presentation", None, ()),
        ("fpres", "verify_relators", _report_items, ()),
        ("fpres", "verify_commutation_lemma", _report_items, ()),
        ("fpres", "degenerate_representation_control", None, ()),
        ("fpres", "phi_word_matrix", None, ()),
        ("fpres", "symbol_kernel_report", _report_items, ()),
        ("fpres", "build_quotient_map", None, ()),
        ("fpres", "quotient_rank", None, ()),
        ("fpres", "twist_quotient_rank", None, ()),
        ("rschreier", "transversal", _distinct_len(set()), ()),
        ("rschreier", "verify_transversal", _report_items, ()),
        ("rschreier", "verify_rs_zero_images", _report_items, (HOT_WORD_IMAGE,)),
        ("rschreier", "verify_family_zero_images", _report_items, (HOT_WORD_IMAGE,)),
        ("rschreier", "verify_reduced4_constraint", _report_items, ()),
        ("rschreier", "construction_counts", None, ()),
        ("rschreier", "verify_case_identities", _report_items, ()),
        ("rschreier", "verify_tst_membership", _report_items, ()),
        ("gf2", "enumerate_o2", _distinct_len(set()), ()),
        ("gf2", "standard_twist_generators", None, ()),
        ("gf2", "generate_group", _found, (HOT_F2_MUL,)),
        ("gf2", "word_table", None, ()),
        ("gf2", "stabilizer_case_check", _report_items, ()),
        ("words", "braid_equal", _braid_letters, ()),
        ("words", "verify_commutator_lemma", None, ()),
        ("words", "chain_square_decomposition", None, ()),
        ("words", "chain_power", None, ()),
        ("words", "decomposition_product", None, ()),
        ("cli", "main", None, ()),
        ("cli", "run", _entries, ()),
        ("cli", "emit_report", _emitted_bytes, ()),
        ("cli", "golden_compare", None, ()),
    ]


def _span_wrapper(tracer: Tracer, name: str, fn, measure, inner) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        marks = [counts[c + ".calls"] for c in inner]
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        for c, mark in zip(inner, marks):
            counts[f"{name}.inner.{c}"] += counts[c + ".calls"] - mark
        if measure is not None:
            for key, amount in measure(args, result).items():
                counts[f"{name}.{key}"] += amount
        return result

    return wrapper


def _counting_wrapper(tracer: Tracer, name: str, fn, letters: bool) -> Callable:
    counts = tracer.counts
    calls = name + ".calls"
    if letters:
        key = name + ".letters"

        def wrapper(self, w):
            counts[calls] += 1
            counts[key] += len(w)
            return fn(self, w)

    else:

        def wrapper(*args):
            counts[calls] += 1
            return fn(*args)

    return functools.wraps(fn)(wrapper)


def _package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "crosscap_calc" or name.startswith("crosscap_calc."))
    ]


def _layers() -> dict:
    """The package's modules by short name, every layer imported."""
    from crosscap_calc import cli, exactmat, fpres, gf2, rschreier, words  # noqa: F401

    return {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}


def _replace_everywhere(original, replacement, restore: list) -> None:
    """Rebind every module-level name in the package that refers to the
    original, so callers that imported it by name go through the wrapper."""
    for m in _package_modules():
        for attr, value in list(vars(m).items()):
            if value is original:
                setattr(m, attr, replacement)
                restore.append((m, attr, original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layers' public functions; returns a function undoing it."""
    mods = _layers()
    restore: list = []
    for mod, attr, measure, inner in _span_table():
        fn = getattr(mods[mod], attr)
        wrapper = _span_wrapper(tracer, f"{mod}.{attr}", fn, measure, inner)
        _replace_everywhere(fn, wrapper, restore)
    for attr in ("mat_mul", "mat_inv", "det"):
        fn = getattr(mods["exactmat"], attr)
        wrapper = _counting_wrapper(tracer, f"exactmat.{attr}", fn, letters=False)
        _replace_everywhere(fn, wrapper, restore)
    for cls, attr, name, letters in (
        (mods["gf2"].F2Matrix, "__mul__", HOT_F2_MUL, False),
        (mods["fpres"].QuotientMap, "word_image", HOT_WORD_IMAGE, True),
    ):
        fn = cls.__dict__[attr]
        setattr(cls, attr, _counting_wrapper(tracer, name, fn, letters))
        restore.append((cls, attr, fn))

    def undo() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return undo


def cache_counts() -> dict[str, int]:
    """functools cache hits and misses of the five cached public functions."""
    mods = _layers()
    out = {}
    for mod, attr in CACHED:
        fn = getattr(mods[mod], attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__  # under a span wrapper
        info = fn.cache_info()
        out[f"{mod}.{attr}.cache_hits"] = info.hits
        out[f"{mod}.{attr}.cache_misses"] = info.misses
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_item"):
        return "1/item"
    if name.endswith("_per_product"):
        return "1/product"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches: dict[str, int]) -> dict[str, float]:
    """Fold spans and counters into the per-layer metrics, by name."""
    c = tracer.counts
    by_name: defaultdict[str, float] = defaultdict(float)
    by_layer: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name[span[0]] += own
        by_layer[span[0].split(".", 1)[0]] += own

    def self_s(name: str) -> float:
        return by_name[name]

    rs, fam = "rschreier.verify_rs_zero_images", "rschreier.verify_family_zero_images"
    gen = "gf2.generate_group"
    m: dict[str, float] = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m.update(
        {
            "exactmat.mat_mul.calls": c["exactmat.mat_mul.calls"],
            "exactmat.mat_inv.calls": c["exactmat.mat_inv.calls"],
            "exactmat.det.calls": c["exactmat.det.calls"],
            "exactmat.eval_word.self_s": self_s("exactmat.eval_word"),
            "exactmat.eval_word.letters": c["exactmat.eval_word.letters"],
            "fpres.build_presentation.self_s": self_s("fpres.build_presentation"),
            "fpres.verify_relators.self_s": self_s("fpres.verify_relators"),
            "fpres.verify_relators.items": c["fpres.verify_relators.items"],
            "fpres.phi_word_matrix.self_s": self_s("fpres.phi_word_matrix"),
            "fpres.symbol_kernel_report.self_s": self_s("fpres.symbol_kernel_report"),
            "fpres.build_quotient_map.self_s": self_s("fpres.build_quotient_map"),
            "fpres.quotient_rank.self_s": self_s("fpres.quotient_rank"),
            "fpres.word_image.calls": c[HOT_WORD_IMAGE + ".calls"],
            "fpres.word_image.letters": c[HOT_WORD_IMAGE + ".letters"],
            "rschreier.transversal.self_s": self_s("rschreier.transversal"),
            "rschreier.transversal.elements": c["rschreier.transversal.elements"],
            "rschreier.verify_transversal.self_s": self_s("rschreier.verify_transversal"),
            f"{rs}.self_s": self_s(rs),
            f"{rs}.items": c[f"{rs}.items"],
            f"{fam}.self_s": self_s(fam),
            f"{fam}.items": c[f"{fam}.items"],
            "rschreier.refolds_per_item": _ratio(
                c[f"{rs}.inner.{HOT_WORD_IMAGE}"] + c[f"{fam}.inner.{HOT_WORD_IMAGE}"],
                c[f"{rs}.items"] + c[f"{fam}.items"],
            ),
            "rschreier.construction_counts.self_s": self_s("rschreier.construction_counts"),
            "rschreier.verify_case_identities.self_s": self_s(
                "rschreier.verify_case_identities"
            ),
            HOT_F2_MUL + ".calls": c[HOT_F2_MUL + ".calls"],
            "gf2.enumerate_o2.self_s": self_s("gf2.enumerate_o2"),
            "gf2.enumerate_o2.elements": c["gf2.enumerate_o2.elements"],
            f"{gen}.self_s": self_s(gen),
            f"{gen}.products": c[f"{gen}.inner.{HOT_F2_MUL}"],
            f"{gen}.new_per_product": _ratio(
                c[f"{gen}.found"], c[f"{gen}.inner.{HOT_F2_MUL}"]
            ),
            "gf2.word_table.self_s": self_s("gf2.word_table"),
            "gf2.stabilizer_case_check.self_s": self_s("gf2.stabilizer_case_check"),
            "gf2.stabilizer_case_check.items": c["gf2.stabilizer_case_check.items"],
            "words.braid_equal.calls": c["words.braid_equal.calls"],
            "words.braid_equal.letters": c["words.braid_equal.letters"],
            "words.braid_equal.self_s": self_s("words.braid_equal"),
            "words.verify_commutator_lemma.self_s": self_s("words.verify_commutator_lemma"),
            "cli.run.self_s": self_s("cli.run"),
            "cli.run.entries": c["cli.run.entries"],
            "cli.run.vacuous_entries": c["cli.run.vacuous_entries"],
            "cli.emit_report.self_s": self_s("cli.emit_report"),
            "cli.emit_report.bytes": c["cli.emit_report.bytes"],
            "cli.golden_compare.self_s": self_s("cli.golden_compare"),
            "trace.spans": len(tracer.spans),
        }
    )
    m.update(caches)
    return m
