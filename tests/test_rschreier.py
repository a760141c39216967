"""Schreier transversal, subgroup generators, family words, case identities."""

import dataclasses
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crosscap_calc
from crosscap_calc import fpres, rschreier
from crosscap_calc.fpres import (
    build_quotient_map,
    pair_set,
    phi_word_matrix,
    quotient_rank,
    twist_sq,
    winv,
    word,
    yslide,
)
from crosscap_calc.reports import CheckReport, ReportBuilder
from crosscap_calc.rschreier import (
    CASE_CHAINED,
    CASE_INTERLEAVED,
    CASE_NESTED,
    CASE_SEPARATED,
    CASE_SHARED_FIRST,
    CASE_SHARED_SECOND,
    TransversalElement,
    case_identity_words,
    classify_pair_case,
    construction_counts,
    iter_family_words,
    iter_rs_generators,
    level2_generating_set,
    transversal,
    uses_subset_twist_generators,
    verify_case_identities,
    verify_family_zero_images,
    verify_reduced4_constraint,
    verify_rs_zero_images,
    verify_transversal,
    verify_tst_membership,
)

# frozen construction sizes
GENERATING_SET_SIZES = {3: 4, 4: 10, 5: 20, 6: 35}
RS_COUNTS = {3: 15, 4: 305, 5: 2497}

FAMILIES = ("1", "2", "3", "4")


def count_word_images(monkeypatch):
    """Patch QuotientMap.word_image to count calls; returns the live counter."""
    calls = [0]
    word_image = fpres.QuotientMap.word_image

    def counting(self, w):
        calls[0] += 1
        return word_image(self, w)

    monkeypatch.setattr(fpres.QuotientMap, "word_image", counting)
    return calls


def image_labels(walk, basis, start=0):
    """The failure label of each listed element whose pairs, read as
    basis bits, do not spell out its position."""
    bit = {p: 1 << k for k, p in enumerate(basis)}
    labels = []
    for n, pairs in enumerate(walk, start):
        image = sum(bit[p] for p in pairs)
        if image != n:
            labels.append(f"element {n} {pairs} has image {image}")
    return labels


def count_draws(monkeypatch):
    """Patch random.Random.randrange to count calls; returns the live counter."""
    draws = [0]
    randrange = random.Random.randrange

    def counting(self, *args):
        draws[0] += 1
        return randrange(self, *args)

    monkeypatch.setattr(random.Random, "randrange", counting)
    return draws


def reference_rs_sweep(g):
    """The per-word RS oracle: every ``iter_rs_generators`` word folded
    letter by letter through ``word_image``, no sample, then the count
    against the closed form.  Reads the map through ``rschreier``, so a
    substituted map reaches it as it reaches the sweep."""
    qmap = rschreier.build_quotient_map(g)
    rb = ReportBuilder("reference", g=g)
    emitted = 0
    for gen in iter_rs_generators(g):
        emitted += 1
        ok = qmap.word_image(gen.word) == 0
        rb.record(ok, f"f={gen.f.pairs} x={gen.x.label()} sign={gen.sign}")
    closed = construction_counts(g)["rs_generator_count"]
    if emitted != closed:
        rb.record(False, f"emitted {emitted} generators, closed form {closed}")
    return rb.build()


def reference_transversal_check(g):
    """The per-element transversal oracle: each walked element's image
    folded from its pairs and its order checked, one element at a time.
    Reads the walk and the map through ``rschreier``, so a substituted
    one reaches it as it reaches the check."""
    walk = rschreier._walk(g)
    rank = fpres.quotient_rank(g)
    image_of = rschreier._pairs_image(rschreier.build_quotient_map(g))
    rb = ReportBuilder("transversal", g=g)
    n = -1
    for n, pairs in enumerate(walk):
        image = image_of(pairs)
        if image != n:
            rb.record(False, f"element {n} {pairs} has image {image}")
        elif not all(map(operator.lt, pairs, pairs[1:])):
            rb.record(False, f"element {n} {pairs} has pairs out of order")
    size = n + 1
    rb.passed += size - rb.failed
    rb.record(size == 1 << rank, f"size {size} != 2^{rank}")
    return rb.build()


def outcome(rep):
    return rep.passed, rep.failed, rep.failures


def served_walk(walk, monkeypatch):
    """Serve ``walk`` as the transversal, through an uncached
    ``transversal``; returns the walk."""
    monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
    monkeypatch.setattr(rschreier, "transversal", transversal.__wrapped__)
    return walk


def swapped_walk(g, a, b, monkeypatch):
    """Serve the transversal with elements a and b swapped; returns the
    swapped walk."""
    walk = [t.pairs for t in transversal(g)]
    walk[a], walk[b] = walk[b], walk[a]
    return served_walk(walk, monkeypatch)


def certified_sweep(g):
    """``verify_rs_zero_images(g)``, checked to take its verdict from
    ``verify_transversal(g)``: every emitted word passes with it, or every
    one fails, labeled by the not-certified line and then the transversal
    check's labels, as far as the report keeps them."""
    rep = verify_rs_zero_images(g)
    placed = verify_transversal(g)
    emitted = int(re.match(r"emitted (\d+) generators;", rep.details[0])[1])
    closed = construction_counts(g)["rs_generator_count"]
    labels = () if placed.ok else (
        f"{emitted} words not certified: the transversal check failed",
        *placed.failures,
    )
    if emitted != closed:
        labels += (f"emitted {emitted} generators, closed form {closed}",)
    assert rep.passed == (emitted if placed.ok else 0)
    assert rep.failed == (0 if placed.ok else emitted) + (emitted != closed)
    assert rep.failures == labels[:CheckReport.MAX_FAILURES]
    return rep


def flipped_map(g, sym, bit):
    """``build_quotient_map(g)`` with bit ``bit`` of one slide's mask flipped."""
    qmap = build_quotient_map(g)
    masks = {**qmap.slide_masks, sym: qmap.slide_masks[sym] ^ 1 << bit}
    return dataclasses.replace(qmap, slide_masks=masks)


def reference_family_sweep(g, families):
    """The per-word family oracle: every ``iter_family_words`` word folded
    letter by letter through ``word_image``, no sample, then the count
    against the closed form.  Reads the map through ``rschreier``, so a
    substituted map reaches it as it reaches the sweep."""
    qmap = rschreier.build_quotient_map(g)
    rb = ReportBuilder("reference", g=g)
    walked = 0
    for family in families:
        for f, indices, w in iter_family_words(g, family):
            walked += 1
            rb.record(qmap.word_image(w) == 0, f"family {family} f={f.pairs} indices {indices}")
    total = sum(construction_counts(g)["families"][family] for family in families)
    if walked != total:
        rb.record(False, f"walked {walked} words, closed form {total}")
    return rb.build()


def failing_core(monkeypatch):
    """Give T^2(2, 3) quotient image 1: its family 1 core fails."""
    real = fpres.QuotientMap.image
    bad = twist_sq(2, 3)
    monkeypatch.setattr(
        fpres.QuotientMap, "image",
        lambda self, s: 1 if s == bad else real(self, s),
    )


def dropping_winv(monkeypatch, holds=None):
    """``rschreier.winv`` leaving out the first letter of the inverse, of
    every word or only of words holding the letter ``holds``."""
    real = rschreier.winv
    monkeypatch.setattr(
        rschreier, "winv",
        lambda w: real(w)[1:] if holds is None or holds in w else real(w),
    )


def rschreier_steps(run):
    """``run()`` under a trace counting the events of frames in
    ``rschreier``; returns (its result, the count)."""
    steps = [0]

    def trace(frame, _event, _arg):
        if frame.f_code.co_filename != rschreier.__file__:
            return None
        steps[0] += 1
        return trace

    sys.settrace(trace)
    try:
        return run(), steps[0]
    finally:
        sys.settrace(None)


class TestTransversal:
    def test_genus3_frozen(self):
        assert [t.pairs for t in transversal(3)] == [(), ((2, 3),)]

    def test_size_is_two_to_the_rank(self):
        for g in (3, 4, 5, 6):
            assert len(transversal(g)) == 1 << quotient_rank(g)

    def test_elements_are_prefix_closed_and_distinct_images(self):
        for g in (3, 4, 5):
            rep = verify_transversal(g)
            assert rep.ok, rep.failures[:3]

    def test_check_fails_when_an_element_is_missing(self, monkeypatch):
        # without element 2, ((2, 3),), every later element sits one place
        # early, and the walk is one short
        walk = [t.pairs for t in transversal(4)]
        assert walk.pop(2) == ((2, 3),)
        monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
        rep = verify_transversal(4)
        assert rep.failures[0] == "element 2 ((1, 4), (2, 3)) has image 3"
        assert rep.failures == (
            *(f"element {n} {walk[n]} has image {n + 1}" for n in range(2, 15)),
            "size 15 != 2^4",
        )
        assert (rep.passed, rep.failed) == (2, 14)

    def test_check_fails_when_images_collide(self, monkeypatch):
        # clearing the first basis bit merges the cosets it separates: each
        # odd element has the image of the even one before it
        word_image = fpres.QuotientMap.word_image
        monkeypatch.setattr(
            fpres.QuotientMap, "word_image", lambda self, w: word_image(self, w) & ~1
        )
        rep = verify_transversal(4)
        elems = transversal(4)
        assert rep.failures == tuple(
            f"element {n} {elems[n].pairs} has image {n - 1}" for n in range(1, 16, 2)
        )
        assert (rep.passed, rep.failed) == (9, 8)

    def test_an_image_past_the_quotient_fails(self, monkeypatch):
        # each basis slide gains bit 4: an element of odd size lands past
        # the 2^4 images
        word_image = fpres.QuotientMap.word_image
        monkeypatch.setattr(
            fpres.QuotientMap, "word_image", lambda self, w: word_image(self, w) | 1 << 4
        )
        rep = verify_transversal(4)
        odd = [n for n in range(16) if bin(n).count("1") % 2]
        elems = transversal(4)
        assert rep.failures == tuple(
            f"element {n} {elems[n].pairs} has image {n | 16}" for n in odd
        )
        assert (rep.passed, rep.failed) == (17 - len(odd), len(odd)) == (9, 8)

    def test_element_validation(self):
        TransversalElement(((2, 3), (2, 4)))  # strictly increasing: fine
        with pytest.raises(
            ValueError, match=r"pairs must strictly increase, got \(\(2, 4\), \(2, 3\)\)"
        ):
            TransversalElement(((2, 4), (2, 3)))
        with pytest.raises(ValueError, match="pairs must strictly increase"):
            TransversalElement(((2, 3), (2, 3)))

    def test_element_is_its_field_tuple(self):
        # hash of the frozen dataclass it replaced: hash((pairs,))
        for t in transversal(4):
            assert hash(t) == hash((t.pairs,))
            assert t == (t.pairs,)
        t = TransversalElement(((2, 3),))
        assert repr(t) == "TransversalElement(pairs=((2, 3),))"
        assert TransversalElement(()) < t

    def test_genus5_counting_order_pinned(self):
        # each code lists an element's pairs as positions in the basis;
        # "-" is the empty element
        basis = ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
        order = (
            "- 0 1 01 2 02 12 012 3 03 13 013 23 023 123 0123 4 04 14 014 24 024"
            " 124 0124 34 034 134 0134 234 0234 1234 01234 5 05 15 015 25 025 125"
            " 0125 35 035 135 0135 235 0235 1235 01235 45 045 145 0145 245 0245"
            " 1245 01245 345 0345 1345 01345 2345 02345 12345 012345"
        )
        expected = [
            tuple(basis[int(d)] for d in code.strip("-")) for code in order.split()
        ]
        assert [t.pairs for t in transversal(5)] == expected

    def test_transversal_check_validates_each_symbol_once(self, symbol_constructions):
        assert verify_transversal(6).ok
        symbol_constructions.assert_each_once(6)

    def test_word_is_the_slides_of_its_pairs(self):
        t = TransversalElement(((2, 3), (2, 4)))
        assert t.word() == word(yslide(2, 3), yslide(2, 4))

    def test_dimension_cap(self):
        with pytest.raises(rschreier.CapExceededError):
            transversal(12)

    def test_dimension_cap_boundary(self, monkeypatch):
        # g=7 has quotient dimension 15: a cap of 15 admits it, 14 does not
        transversal.cache_clear()
        try:
            monkeypatch.setattr(rschreier, "TRANSVERSAL_DIM_CAP", 15)
            assert len(transversal(7)) == 2**15
            transversal.cache_clear()
            monkeypatch.setattr(rschreier, "TRANSVERSAL_DIM_CAP", 14)
            with pytest.raises(rschreier.CapExceededError, match="2\\^15 elements"):
                transversal(7)
        finally:
            transversal.cache_clear()

    @pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
    def test_element_n_holds_the_pairs_at_the_bits_of_n(self, g):
        # an oracle independent of the walk: n's set bits pick the basis
        # pairs, and the element's word folds to image n
        basis = fpres.quotient_basis(g)
        qmap = build_quotient_map(g)
        got = transversal(g)
        assert len(got) == 1 << len(basis)
        sample = range(len(got)) if g < 7 else random.Random(7).sample(range(len(got)), 500)
        for n in sample:
            t = got[n]
            assert t.pairs == tuple(p for k, p in enumerate(basis) if n >> k & 1), n
            assert qmap.word_image(t.word()) == n
        assert all(type(t) is TransversalElement for t in got)
        assert list(rschreier._walk(g)) == [t.pairs for t in got]


    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_element_image_is_the_xor_of_its_slide_images(self, g):
        # the lemma the streamed check reads images by
        qmap = build_quotient_map(g)
        slide = {p: qmap.word_image(((yslide(*p), 1),)) for p in qmap.basis}
        for t in transversal(g):
            xor = 0
            for p in t.pairs:
                xor ^= slide[p]
            assert qmap.word_image(t.word()) == xor, t.pairs

    def test_streamed_check_folds_once_per_basis_pair(self, monkeypatch):
        build_quotient_map(6)  # built outside the count
        calls = count_word_images(monkeypatch)
        assert verify_transversal(6).ok
        # one one-letter fold per basis slide, none per element
        assert calls[0] == len(fpres.quotient_basis(6)) == 11

    def test_a_walk_listed_by_size_fails_where_it_leaves_counting_order(
        self, monkeypatch
    ):
        # prefix closed and complete, but element n no longer has image n
        walk = sorted(rschreier._walk(5), key=len)
        basis = fpres.quotient_basis(5)
        wrong = image_labels(walk, basis)
        assert 0 < len(wrong) < 64
        monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
        rep = verify_transversal(5)
        assert rep.failures == tuple(wrong[: CheckReport.MAX_FAILURES])
        assert (rep.passed, rep.failed) == (65 - len(wrong), len(wrong))

    def test_an_element_ahead_of_its_prefix_fails_where_it_moved(self, monkeypatch):
        # element 6, ((2, 3), (2, 4)), moved ahead of its prefix, element 2
        walk = [t.pairs for t in transversal(4)]
        walk.insert(2, walk.pop(6))
        monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
        rep = verify_transversal(4)
        assert rep.failures == (
            "element 2 ((2, 3), (2, 4)) has image 6",
            "element 3 ((2, 3),) has image 2",
            "element 4 ((1, 4), (2, 3)) has image 3",
            "element 5 ((2, 4),) has image 4",
            "element 6 ((1, 4), (2, 4)) has image 5",
        )
        assert (rep.passed, rep.failed) == (12, 5)

    def test_a_swapped_walk_fails_at_the_two_elements(self, monkeypatch):
        g, a, b = 4, 2, 5
        walk = swapped_walk(g, a, b, monkeypatch)
        assert image_labels(walk, fpres.quotient_basis(g)) == [
            f"element {a} {walk[a]} has image {b}",
            f"element {b} {walk[b]} has image {a}",
        ]
        rep = verify_transversal(g)
        assert rep.failures == tuple(image_labels(walk, fpres.quotient_basis(g)))
        assert (rep.passed, rep.failed) == (15, 2)

    def test_a_walk_out_of_basis_order_fails_at_that_element(self, monkeypatch):
        # element 7 keeps its pairs and its image but lists them out of
        # order, so its prefix ((2, 4), (1, 4)) is listed nowhere
        walk = [t.pairs for t in transversal(4)]
        assert walk[7] == ((1, 4), (2, 3), (2, 4))
        walk[7] = ((2, 4), (1, 4), (2, 3))
        monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
        rep = verify_transversal(4)
        assert rep.failures == ("element 7 ((2, 4), (1, 4), (2, 3)) has pairs out of order",)
        assert (rep.passed, rep.failed) == (16, 1)

    def test_a_repeated_pair_fails_though_the_image_matches(self, monkeypatch):
        # ((2, 3), (2, 3), (2, 4)) folds to the image of ((2, 4),), element 4
        walk = [t.pairs for t in transversal(4)]
        assert walk[4] == ((2, 4),)
        walk[4] = ((2, 3), (2, 3), (2, 4))
        monkeypatch.setattr(rschreier, "_walk", lambda g: iter(walk))
        rep = verify_transversal(4)
        assert rep.failures == ("element 4 ((2, 3), (2, 3), (2, 4)) has pairs out of order",)
        assert (rep.passed, rep.failed) == (16, 1)

    def test_check_streams_without_building_the_transversal(self):
        # building and caching all 2^15 elements would peak near 10 MiB
        build_quotient_map(7)
        quotient_rank(7)
        transversal.cache_clear()
        tracemalloc.start()
        try:
            rep = verify_transversal(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert transversal.cache_info().currsize == 0
        assert (rep.passed, rep.failed) == (32769, 0)

    def test_check_refuses_past_the_cap_before_folding(self, monkeypatch):
        calls = count_word_images(monkeypatch)
        with pytest.raises(
            rschreier.CapExceededError,
            match=r"^transversal has 2\^22 elements, past the dimension cap 16$",
        ):
            verify_transversal(8)
        assert calls[0] == 0

    @pytest.mark.parametrize(
        "check", [verify_rs_zero_images, verify_family_zero_images]
    )
    def test_zero_image_checks_refuse_before_the_reduction(self, check, monkeypatch):
        def forbidden(g):
            raise AssertionError("the quotient reduction runs past the cap")

        monkeypatch.setattr(rschreier, "build_quotient_map", forbidden)
        monkeypatch.setattr(fpres, "_quotient_pivots", forbidden)
        with pytest.raises(rschreier.CapExceededError, match=r"2\^22 elements"):
            check(8)


WALK_CORRUPTIONS = (
    "swap", "drop", "duplicate", "permute", "append", "flip-low", "flip-high"
)


class TestTransversalBlocksAgainstOracle:
    """``verify_transversal`` checks the halves' pieces once and compares
    whole blocks; every verdict must be the per-element oracle's."""

    @pytest.mark.parametrize("corruption", WALK_CORRUPTIONS)
    @settings(max_examples=20, deadline=None)
    @given(g=st.integers(4, 6), data=st.data())
    def test_same_verdicts_and_labels(self, corruption, g, data):
        walk = [t.pairs for t in transversal(g)]
        qmap = build_quotient_map(g)
        index = st.integers(0, len(walk) - 1)
        if corruption == "swap":
            a, b = data.draw(index), data.draw(index)
            walk[a], walk[b] = walk[b], walk[a]
        elif corruption == "drop":
            walk.pop(data.draw(index))
        elif corruption == "duplicate":
            walk.insert(data.draw(index), walk[data.draw(index)])
        elif corruption == "permute":
            n = data.draw(st.sampled_from([n for n, pairs in enumerate(walk) if len(pairs) > 1]))
            walk[n] = tuple(data.draw(st.permutations(walk[n])))
        elif corruption == "append":
            walk.append(data.draw(st.sampled_from(walk)))
        else:
            low, high = rschreier._halves(g)
            pair = data.draw(st.sampled_from((low if corruption == "flip-low" else high)[-1]))
            qmap = flipped_map(g, yslide(*pair), data.draw(st.integers(0, len(qmap.basis) - 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rschreier, "_walk", lambda g: iter(walk))
            mp.setattr(rschreier, "build_quotient_map", lambda g: qmap)
            assert outcome(verify_transversal(g)) == outcome(reference_transversal_check(g))

    def test_a_swap_across_blocks_at_genus7(self, monkeypatch):
        # blocks hold 2^8 elements at g=7: 2 sits in block 0, 300 in block 1
        g, a, b = 7, 2, 300
        walk = swapped_walk(g, a, b, monkeypatch)
        rep = verify_transversal(g)
        assert rep.failures == tuple(image_labels(walk, fpres.quotient_basis(g)))
        assert (rep.passed, rep.failed) == (32767, 2)
        assert outcome(rep) == outcome(reference_transversal_check(g))

    def test_halves_out_of_order_fail_where_they_meet(self, monkeypatch):
        # swap the last low and first high basis pair, and their masks, so
        # every piece keeps its image and its order: only elements holding
        # both pairs list them out of order
        g = 5
        qmap = build_quotient_map(g)
        basis = list(qmap.basis)
        h = (len(basis) + 1) // 2
        p, q = basis[h - 1], basis[h]
        basis[h - 1], basis[h] = q, p
        masks = dict(qmap.slide_masks)
        for (i, j), (k, l) in ((p, q), (q, p)):
            masks[yslide(i, j)] = masks[yslide(j, i)] = qmap.slide_masks[yslide(k, l)]
        swapped = dataclasses.replace(qmap, basis=tuple(basis), slide_masks=masks)
        monkeypatch.setattr(rschreier, "quotient_basis", lambda g: tuple(basis))
        monkeypatch.setattr(rschreier, "build_quotient_map", lambda g: swapped)
        rep = verify_transversal(g)
        assert rep.failed == 1 << (len(basis) - 2) == 16
        assert all(label.endswith("has pairs out of order") for label in rep.failures)
        assert outcome(rep) == outcome(reference_transversal_check(g))

    def test_a_passing_check_steps_per_block_not_per_element(self):
        # traced rschreier events at g=7: 140,652 with the block check,
        # 983,087 with one fold and one order check per element
        build_quotient_map(7)
        quotient_rank(7)
        rep, steps = rschreier_steps(lambda: verify_transversal(7))
        assert (rep.passed, rep.failed) == (32769, 0)
        assert steps < 200_000

    def test_walk_is_the_low_half_inside_the_high_half(self):
        for g in (3, 4, 5, 6):
            low, high = rschreier._halves(g)
            assert len(low) * len(high) == len(transversal(g))
            assert len(high) <= len(low) <= 2 * len(high)
            walk = list(rschreier._walk(g))
            assert walk[:len(low)] == low
            assert walk[::len(low)] == high


def test_rschreier_leaves_gf2_unimported():
    # the cap error lives in reports, so rschreier needs no gf2 module
    env = dict(os.environ)
    src = str(Path(crosscap_calc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, crosscap_calc.rschreier; print('crosscap_calc.gf2' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    from crosscap_calc import cli, gf2, reports

    assert gf2.CapExceededError is rschreier.CapExceededError is reports.CapExceededError
    assert cli.CapExceededError is reports.CapExceededError


class TestGeneratingSet:
    def test_sizes_frozen(self):
        for g, n in GENERATING_SET_SIZES.items():
            assert len(level2_generating_set(g)) == n

    def test_genus3_substitute_is_slides_only(self):
        assert not uses_subset_twist_generators(3)
        assert level2_generating_set(3) == (
            yslide(1, 2), yslide(1, 3), yslide(2, 3), yslide(2, 1)
        )

    def test_genus4_and_up_include_subset_twists(self):
        assert uses_subset_twist_generators(4)
        kinds = {s.kind for s in level2_generating_set(4)}
        assert kinds == {"yslide", "subset_sq"}


class TestRsGenerators:
    def test_counts_frozen(self):
        for g, n in RS_COUNTS.items():
            assert len(tuple(iter_rs_generators(g))) == n
            assert construction_counts(g)["rs_generator_count"] == n

    @pytest.mark.parametrize(
        "g, swap",
        [(3, None), (4, None), (5, None), (6, None), (5, (2, 5))],
        ids=["3", "4", "5", "6", "5-swapped"],
    )
    def test_skip_rule_matches_independent_enumeration(self, g, swap, monkeypatch):
        qmap = build_quotient_map(g)
        if swap:
            # the representative of f x is the element listed at position
            # n ^ image(x), wherever the walk put the true one
            walk = swapped_walk(g, *swap, monkeypatch)
            elems = [TransversalElement(pairs) for pairs in walk]
            rep_of = lambda n, x: elems[n ^ qmap.image(x)]
        else:
            elems = transversal(g)
            by_mask = {qmap.word_image(t.word()): t for t in elems}
            rep_of = lambda n, x: by_mask[qmap.word_image(elems[n].word()) ^ qmap.image(x)]
        basis = set(qmap.basis)
        expected = set()
        for n, f in enumerate(elems):
            for x in level2_generating_set(g):
                rep = rep_of(n, x)
                for sign in (1, -1):
                    skip = (
                        sign == 1
                        and x.kind == "yslide"
                        and x.indices in basis
                        and rep.pairs == f.pairs + (x.indices,)
                    )
                    if not skip:
                        expected.add((f.pairs, x, sign))
        got = [(r.f.pairs, r.x, r.sign) for r in iter_rs_generators(g)]
        assert len(got) == len(set(got))
        assert set(got) == expected
        # the sweep counts its skips from each element's last pair alone
        rep = verify_rs_zero_images(g)
        assert rep.details[0].startswith(f"emitted {len(expected)} generators;")

    @pytest.mark.parametrize("g", [4, 5])
    def test_words_build_each_element_word_once(self, g, monkeypatch):
        calls = []
        real = TransversalElement.word
        monkeypatch.setattr(
            TransversalElement, "word", lambda self: calls.append(self) or real(self)
        )
        gens = list(iter_rs_generators(g))
        n_reps = len({r.rep for r in gens})
        assert len(calls) <= len(transversal(g)) + n_reps
        # elements in counting order, then symbols as listed, then +1 before -1
        position = {t: n for n, t in enumerate(transversal(g))}
        xs = level2_generating_set(g)
        keys = [(position[r.f], xs.index(r.x), -r.sign) for r in gens]
        assert keys == sorted(set(keys))

    def test_words_have_zero_image_by_direct_fold(self):
        for g in (3, 4):
            qmap = build_quotient_map(g)
            for r in iter_rs_generators(g):
                assert qmap.word_image(r.word) == 0
                assert r.word == r.f.word() + ((r.x, r.sign),) + winv(r.rep.word())
            for family in FAMILIES:
                for f, indices, w in iter_family_words(g, family):
                    assert qmap.word_image(w) == 0, (family, f, indices)

    def test_closed_form_count_matches_enumeration(self):
        for g in range(3, 7):
            enumerated = sum(1 for _ in iter_rs_generators(g))
            assert construction_counts(g)["rs_generator_count"] == enumerated, g

    def test_verify_rs_zero_images(self):
        for g in (3, 4, 5):
            rep = verify_rs_zero_images(g)
            assert rep.ok, rep.failures[:3]
            assert rep.passed == RS_COUNTS[g]

    @pytest.mark.parametrize("g", [4, 6])
    def test_sweep_builds_no_word_and_folds_once_per_basis_pair(self, g, monkeypatch):
        build_quotient_map(g)  # built outside the count
        calls = count_word_images(monkeypatch)

        def forbidden(*_args):
            raise AssertionError("the RS sweep builds a word")

        monkeypatch.setattr(TransversalElement, "word", forbidden)
        monkeypatch.setattr(rschreier, "winv", forbidden)
        rep = verify_rs_zero_images(g)
        total = construction_counts(g)["rs_generator_count"]
        assert (rep.passed, rep.failed) == (total, 0)
        assert calls[0] == len(fpres.quotient_basis(g))
        n_trans = len(transversal(g))
        assert rep.details == (
            f"emitted {total} generators; verdicts read from {n_trans} element images",
        )

    def test_sweep_genus7_is_exact_and_draws_nothing(self, monkeypatch):
        build_quotient_map(7)  # built outside the count
        draws = count_draws(monkeypatch)
        calls = count_word_images(monkeypatch)
        rep = verify_rs_zero_images(7)
        assert (rep.passed, rep.failed) == (3_637_249, 0)
        assert draws[0] == 0
        assert calls[0] == len(fpres.quotient_basis(7)) == 15
        assert rep.details == (
            "emitted 3637249 generators; verdicts read from 32768 element images",
        )

    def test_each_inverse_word_is_built_once_when_first_needed(self, monkeypatch):
        # not for all 2^15 transversal elements before the first yield, and
        # not again for a representative met before
        calls = []
        real = rschreier.winv
        monkeypatch.setattr(rschreier, "winv", lambda w: calls.append(w) or real(w))
        next(iter_rs_generators(7))
        assert len(calls) == 1
        calls.clear()
        reps = {r.rep for r in iter_rs_generators(4)}
        assert len(calls) == len(reps) == len(transversal(4))

    def test_genus3_report_flags_substitute_generators(self):
        assert verify_rs_zero_images(3).caveats
        assert not verify_rs_zero_images(4).caveats


class TestFamilyWords:
    def test_counts_frozen_genus4(self):
        counts = construction_counts(4)
        assert counts["transversal_size"] == 16
        assert counts["families"] == {"1": 96, "2": 96, "3": 16, "4": 576}

    def test_words_are_conjugates(self):
        for f, indices, w in iter_family_words(4, "1"):
            n = len(f.word())
            assert w[:n] == f.word()
            assert w[len(w) - n :] == winv(f.word())
            assert w[n][0] == twist_sq(*indices)

    def test_family_generators_cover_all_families(self):
        assert rschreier.FAMILY_NAMES == ("1", "2", "3", "4")
        fams = {f: list(iter_family_words(3, f)) for f in rschreier.FAMILY_NAMES}
        assert len(fams["1"]) == 6
        assert len(fams["3"]) == 0  # no subset twists exist at genus 3

    def test_a_family_without_cores_draws_nothing(self, monkeypatch):
        draws = count_draws(monkeypatch)
        rep = verify_family_zero_images(3, ("3",))  # no subset twists at g=3
        assert (rep.passed, rep.failed) == (0, 0)
        assert "letter-folded 0 assembled words" in rep.details
        assert draws[0] == 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            list(iter_family_words(4, "5"))

    def test_zero_images_small(self):
        for g in (3, 4, 5):
            rep = verify_family_zero_images(g, ("1", "2", "3", "4"))
            assert rep.ok, rep.failures[:3]

    @pytest.mark.parametrize("g", [4, 6])
    def test_a_nonzero_twist_image_fails_every_conjugate(self, g, monkeypatch):
        failing_core(monkeypatch)
        build_quotient_map(g)  # built outside the count
        calls = count_word_images(monkeypatch)
        rep = verify_family_zero_images(g, FAMILIES)
        n_trans = len(transversal(g))
        total = sum(construction_counts(g)["families"].values())
        assert rep.failed == n_trans
        assert rep.passed == total - n_trans
        assert all(label.startswith("family 1 ") for label in rep.failures)
        assert all(label.endswith("indices (2, 3)") for label in rep.failures)
        # one fold per index tuple, then one refold per transversal element
        n_cores = {4: 49, 6: 265}[g]
        assert calls[0] == n_cores + n_trans
        assert f"letter-folded {n_trans} assembled words" in rep.details

    def test_sweep_pinned_genus6(self, monkeypatch):
        qmap = build_quotient_map(6)  # built outside the count
        transversal(6)
        calls = letters = 0
        word_image = fpres.QuotientMap.word_image

        def counting(self, w):
            nonlocal calls, letters
            calls += 1
            letters += len(w)
            return word_image(self, w)

        monkeypatch.setattr(fpres.QuotientMap, "word_image", counting)
        draws = count_draws(monkeypatch)
        rep = verify_family_zero_images(6, FAMILIES, seed=0)
        assert (rep.passed, rep.failed) == (542_720, 0)
        assert rep.details[-2:] == (
            "letter-folded 2048 assembled words",
            "one refold per transversal element, its core drawn with seed 0",
        )
        # one fold per index tuple (15 + 15 + 10 + 225), one refold and
        # one draw per transversal element
        assert calls == 265 + 2048
        assert draws[0] == 2048
        assert letters == 30_715
        assert qmap is build_quotient_map(6)

    def test_reduced4_constraint(self):
        for g in (3, 4, 5):
            rep = verify_reduced4_constraint(g)
            assert rep.ok, rep.failures[:3]

    def test_reduced4_count_genus6(self):
        rep = verify_reduced4_constraint(6)
        assert rep.ok
        assert rep.passed == 2086

    def test_reduced4_is_a_proper_subset(self):
        full = sum(1 for _ in iter_family_words(4, "4"))
        reduced = sum(1 for _ in iter_family_words(4, "4", reduced4=True))
        assert 0 < reduced < full


class TestCaseIdentities:
    def test_classification_covers_all_shapes(self):
        assert classify_pair_case((1, 2), (1, 3)) == CASE_SHARED_FIRST
        assert classify_pair_case((1, 3), (2, 3)) == CASE_SHARED_SECOND
        assert classify_pair_case((1, 2), (2, 3)) == CASE_CHAINED
        assert classify_pair_case((1, 3), (2, 4)) == CASE_INTERLEAVED
        assert classify_pair_case((1, 2), (3, 4)) == CASE_SEPARATED
        assert classify_pair_case((1, 4), (2, 3)) == CASE_NESTED

    def test_requires_lexicographic_order(self):
        for p, q in (((2, 3), (1, 2)), ((1, 3), (1, 2)), ((1, 2), (1, 2))):
            message = f"need (i,j) < (k,l) lexicographically, got {p}, {q}"
            with pytest.raises(ValueError, match=re.escape(message)):
                classify_pair_case(p, q)

    def test_every_pair_combination_is_classified(self):
        for p, q in itertools.combinations(pair_set(6), 2):
            classify_pair_case(p, q)

    def test_disjoint_cases_have_empty_right_side(self):
        for p, q in (((1, 2), (3, 4)), ((1, 4), (2, 3))):
            case, lhs, rhs = case_identity_words(p, q)
            assert rhs == ()
            assert phi_word_matrix(5, lhs) == phi_word_matrix(5, rhs)

    def test_chained_case_holds_in_matrices(self):
        case, lhs, rhs = case_identity_words((1, 2), (2, 3))
        assert case == CASE_CHAINED
        for g in (4, 5):
            assert phi_word_matrix(g, lhs) == phi_word_matrix(g, rhs)

    def test_exhaustive_verification(self):
        for g in (4, 5):
            rep = verify_case_identities(g)
            assert rep.ok, rep.failures[:3]
            assert rep.passed == len(list(itertools.combinations(pair_set(g), 2)))

    def test_reports_carry_representation_caveat(self):
        assert verify_case_identities(4).caveats

    @pytest.mark.parametrize("flip, failing", [(2, 4), (7, 4), (0, 0), (6, 0)])
    def test_a_flipped_chained_letter_fails_the_chained_records(
        self, monkeypatch, flip, failing
    ):
        """Negative control: the chained right side with one letter's
        exponent flipped.  A t^2 letter (positions 2, 7) fails exactly the
        four chained records of g=4's fifteen.  A y or b letter (positions
        0, 6) fails none: every slide is an involution in homology, so the
        matrix check cannot see the exponent of a slide or of a two-sided
        twist built from slides, and only a t^2 flip is a control."""
        genuine = case_identity_words

        def flipped(p, q):
            case, lhs, rhs = genuine(p, q)
            if case == CASE_CHAINED:
                sym, exp = rhs[flip]
                rhs = (*rhs[:flip], (sym, -exp), *rhs[flip + 1 :])
            return case, lhs, rhs

        monkeypatch.setattr(rschreier, "case_identity_words", flipped)
        rep = verify_case_identities(4)
        chained = {
            f"case {CASE_CHAINED} pairs {p},{q}"
            for p, q in itertools.combinations(pair_set(4), 2)
            if classify_pair_case(p, q) == CASE_CHAINED
        }
        assert (rep.passed + rep.failed, rep.failed) == (15, failing)
        assert set(rep.failures) == (chained if failing else set())


class TestTstMembership:
    def test_validation(self):
        for indices, message in (
            ((0, 1), "indices (0, 1) outside 1..5"),
            ((4, 6), "indices (4, 6) outside 1..5"),
            ((1, 6), "indices (1, 6) outside 1..5"),
            ((), "need an even number of indices, got ()"),
            ((1, 2, 3), "need an even number of indices, got (1, 2, 3)"),
            ((1, 1), "indices must strictly increase, got (1, 1)"),
            ((2, 1), "indices must strictly increase, got (2, 1)"),
            ((1, 3, 2, 4), "indices must strictly increase, got (1, 3, 2, 4)"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                verify_tst_membership(5, indices)

    def test_full_tuple_genus4(self):
        rep = verify_tst_membership(4, (1, 2, 3, 4))
        assert rep.ok
        # six (s, t) positions, two records each
        assert rep.passed == 12
        assert rep.caveats

    def test_all_even_tuples_small(self):
        for g in (3, 4, 5):
            for r in range(2, g + 1, 2):
                for idx in itertools.combinations(range(1, g + 1), r):
                    assert verify_tst_membership(g, idx).ok

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_cores_are_symbol_kernel_pairs(self, g):
        # each core is twist_sq(i_s, i_(s+1)) with the same two records,
        # image zero and level-2, that symbol-kernel makes for every pair
        cores = {
            idx[s : s + 2]
            for r in range(2, g + 1, 2)
            for idx in itertools.combinations(range(1, g + 1), r)
            for s in range(r - 1)
        }
        assert cores == set(pair_set(g))
        assert fpres.symbol_kernel_report(g).passed == 4 * math.comb(g, 2)


# ---------------------------------------------------------------------------
# the zero-image sweeps against per-word oracles

def run_sweep(sweep, g):
    if sweep == "rs":
        return verify_rs_zero_images(g)
    return verify_family_zero_images(g, FAMILIES)


def swapped_letter_words(monkeypatch):
    """``TransversalElement.word`` with Y(2, 3) spelled as Y(3, 2)."""
    real = TransversalElement.word
    letter, other = (yslide(2, 3), 1), (yslide(3, 2), 1)
    monkeypatch.setattr(
        TransversalElement, "word",
        lambda self: tuple(other if x == letter else x for x in real(self)),
    )


class TestFamilySweepAgainstOracle:
    @pytest.mark.parametrize(
        "condition",
        ["none", "core", "every-twist", "flipped-mask", "winv-drop", "word-swap", "many"],
    )
    @pytest.mark.parametrize("g", [4, 5])
    def test_same_verdicts_and_labels(self, g, condition, monkeypatch):
        build_quotient_map(g)  # built before any patch
        if condition == "core":
            failing_core(monkeypatch)
        elif condition == "every-twist":
            # every family 1 core fails, so a refold that carries one must
            # XOR its image out to leave the element's residual
            real = fpres.QuotientMap.image
            kind = twist_sq(2, 3).kind
            monkeypatch.setattr(
                fpres.QuotientMap, "image",
                lambda self, s: 1 if s.kind == kind else real(self, s),
            )
        elif condition == "flipped-mask":
            # Y(2, 3) is a basis slide: every element holding it moves
            qmap = flipped_map(g, yslide(2, 3), 0)
            monkeypatch.setattr(rschreier, "build_quotient_map", lambda g: qmap)
        elif condition == "winv-drop":
            dropping_winv(monkeypatch)
        elif condition == "word-swap":
            swapped_letter_words(monkeypatch)
        elif condition == "many":
            # the family 1 core (2, 3) gets image 1, the first basis slide's;
            # the inverse of an element holding Y(2, 4) loses a letter, so
            # its words fail except where the lost letter's image is the
            # core's, and the failures interleave in word order
            failing_core(monkeypatch)
            dropping_winv(monkeypatch, holds=(yslide(2, 4), 1))
        rep = verify_family_zero_images(g, FAMILIES)
        expected = reference_family_sweep(g, FAMILIES)
        assert (rep.passed, rep.failed) == (expected.passed, expected.failed)
        assert rep.failures == expected.failures
        n_trans = len(transversal(g))
        assert f"letter-folded {n_trans} assembled words" in rep.details
        if condition in ("none", "flipped-mask", "word-swap"):
            # conjugation and commutators cancel these in every word
            assert rep.failed == 0
        elif condition == "core":
            assert rep.failed == n_trans
        elif condition == "every-twist":
            assert rep.failed == construction_counts(g)["families"]["1"]
        else:
            assert rep.failed > CheckReport.MAX_FAILURES
            assert len(rep.failures) == CheckReport.MAX_FAILURES

    def test_many_failures_pass_where_the_lost_letter_is_the_core(self, monkeypatch):
        # an element whose inverse lost the slide with image 1 has residual
        # 1, the failing core's image: that one word of its passes
        build_quotient_map(4)
        failing_core(monkeypatch)
        dropping_winv(monkeypatch)
        rep = verify_family_zero_images(4, FAMILIES)
        expected = reference_family_sweep(4, FAMILIES)
        assert (rep.passed, rep.failed) == (expected.passed, expected.failed)
        assert rep.failures == expected.failures
        # the basis slide with image 1 is the last pair of one element only
        bit0 = fpres.quotient_basis(4)[0]
        lost_bit0 = [f for f in transversal(4) if f.pairs[-1:] == (bit0,)]
        assert len(lost_bit0) == 1
        # the empty element's words pass but for the failing core; every
        # other element's words fail but for the cores matching its residual
        n_cores = 49
        assert rep.passed == (n_cores - 1) + len(lost_bit0)

    @pytest.mark.parametrize("condition", ["none", "winv-drop"])
    def test_seeds_agree(self, condition, monkeypatch):
        if condition == "winv-drop":
            failing_core(monkeypatch)
            dropping_winv(monkeypatch, holds=(yslide(2, 4), 1))
        one = verify_family_zero_images(5, FAMILIES, seed=0)
        two = verify_family_zero_images(5, FAMILIES, seed=1)
        assert (one.passed, one.failed) == (two.passed, two.failed)
        assert one.failures == two.failures
        assert one.details[:-1] == two.details[:-1]
        assert two.details[-1].endswith("seed 1")

    def test_a_failing_run_stays_cheap(self, monkeypatch):
        g = 6
        build_quotient_map(g)
        transversal(g)

        def steps_in_rschreier(fail):
            with pytest.MonkeyPatch.context() as mp:
                if fail:
                    failing_core(mp)
                return rschreier_steps(lambda: verify_family_zero_images(g, FAMILIES))

        passing, base = steps_in_rschreier(fail=False)
        assert passing.failed == 0
        rep, steps = steps_in_rschreier(fail=True)
        failing_core(monkeypatch)
        wrong = (
            f"family {family} f={f.pairs} indices {indices}"
            for family in FAMILIES
            for f, indices, w in iter_family_words(g, family)
            if build_quotient_map(g).word_image(w) != 0
        )
        assert rep.failures == tuple(itertools.islice(wrong, CheckReport.MAX_FAILURES))
        assert rep.failed == len(transversal(g)) == 2048
        # the labels cost about one traced step each beyond a passing run;
        # walking family 1 alone (30,720 words) would cost one per word
        assert steps - base < 5_000


class TestRsSweepAgainstOracle:
    """The sweep takes its verdict from the transversal check, which is at
    least as strong as folding every word: whenever the per-word oracle
    fails, the sweep fails, and a defect the oracle cannot see fails it."""

    @pytest.mark.parametrize("condition", ["none", "core", "swapped", "flipped-mask"])
    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_a_failing_oracle_fails_the_sweep(self, g, condition, monkeypatch):
        build_quotient_map(g)  # built before any patch
        if condition == "core":
            # a family 1 core fails; no RS word holds a twist symbol
            image = fpres.QuotientMap.image
            bad = twist_sq(2, 3)
            monkeypatch.setattr(
                fpres.QuotientMap, "image",
                lambda self, sym: 1 if sym == bad else image(self, sym),
            )
        elif condition == "swapped":
            swapped_walk(g, 2, 5, monkeypatch)
        elif condition == "flipped-mask":
            # Y(2, 3) is a basis slide: every element holding it moves
            qmap = flipped_map(g, yslide(2, 3), 0)
            monkeypatch.setattr(rschreier, "build_quotient_map", lambda g: qmap)
        expected = reference_rs_sweep(g)
        rep = certified_sweep(g)
        assert expected.ok == (condition in ("none", "core"))
        assert rep.ok == expected.ok
        if not rep.ok:
            # the labels the report keeps are cut at MAX_FAILURES
            assert rep.failed > CheckReport.MAX_FAILURES
            assert rep.failures[0].endswith("words not certified: the transversal check failed")

    @given(st.data())
    def test_a_single_bit_mask_flip_failing_the_oracle_fails_the_sweep(self, data):
        qmap = build_quotient_map(4)
        sym = data.draw(st.sampled_from(sorted(qmap.slide_masks, key=lambda s: s.label())))
        bit = data.draw(st.integers(0, len(qmap.basis) - 1))
        flipped = flipped_map(4, sym, bit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rschreier, "build_quotient_map", lambda g: flipped)
            expected = reference_rs_sweep(4)
            rep = certified_sweep(4)
        assert expected.ok or not rep.ok

    @pytest.mark.parametrize("g", [4, 5])
    @given(data=st.data())
    def test_a_swapped_pair_failing_the_oracle_fails_the_sweep(self, g, data):
        size = len(transversal(g))
        a = data.draw(st.integers(0, size - 1))
        b = data.draw(st.integers(0, size - 1).filter(lambda b: b != a))
        with pytest.MonkeyPatch.context() as mp:
            swapped_walk(g, a, b, mp)
            expected = reference_rs_sweep(g)
            rep = certified_sweep(g)
        assert expected.ok or not rep.ok

    def test_a_swapped_pair_at_genus7_fails_the_sweep(self, monkeypatch):
        # past the per-word oracle's reach: a word that folds to a nonzero
        # image is the oracle's first failure, and the sweep fails too
        g = 7
        swapped_walk(g, 2, 5, monkeypatch)
        qmap = build_quotient_map(g)
        assert any(qmap.word_image(gen.word) for gen in iter_rs_generators(g))
        rep = certified_sweep(g)
        assert rep.passed == 0
        assert rep.failed > CheckReport.MAX_FAILURES

    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_a_constant_defect_passes_the_oracle_and_fails_the_sweep(self, g, monkeypatch):
        # element n ^ 1 at position n: rep(f x), at position n ^ image(x),
        # is still the member of f x's coset, so every word folds to 0,
        # but no element has its own image
        walk = [t.pairs for t in transversal(g)]
        served_walk([walk[n ^ 1] for n in range(len(walk))], monkeypatch)
        total = construction_counts(g)["rs_generator_count"]
        expected = reference_rs_sweep(g)
        assert (expected.passed, expected.failed) == (total, 0)
        assert verify_transversal(g).failed == len(walk)
        rep = certified_sweep(g)
        assert (rep.passed, rep.failed) == (0, total)

    def test_a_passing_run_costs_a_few_steps_per_element(self):
        # one pass over the transversal: about 25 traced steps per element
        # at g=6, where visiting each of the 71,680 (f, x) pairs would take
        # several steps apiece
        g = 6
        build_quotient_map(g)
        transversal(g)
        rep, steps = rschreier_steps(lambda: verify_rs_zero_images(g))
        assert (rep.passed, rep.failed) == (construction_counts(g)["rs_generator_count"], 0)
        assert steps < 50 * len(transversal(g)) == 102_400

    def test_a_swapped_walk_at_genus7_stays_cheap(self):
        # two misplaced elements cost the transversal check's per-element
        # rule on their block beyond a passing run of the same uncached
        # walk, not a pass over every word
        g = 7
        build_quotient_map(g)

        def steps_with_swap(a, b):
            with pytest.MonkeyPatch.context() as mp:
                swapped_walk(g, a, b, mp)
                return rschreier_steps(lambda: verify_rs_zero_images(g))

        passing, base = steps_with_swap(2, 2)
        assert passing.failed == 0
        rep, steps = steps_with_swap(2, 5)
        assert rep.failed > CheckReport.MAX_FAILURES
        assert steps - base < 10_000
        assert steps < 50 * len(transversal(g))


class TestClosedFormCounts:
    @pytest.mark.parametrize("sweep", ["rs", "family"])
    def test_a_walk_off_the_closed_form_fails(self, sweep, monkeypatch):
        counts = construction_counts(4)
        skewed = {
            **counts,
            "rs_generator_count": counts["rs_generator_count"] + 1,
            "families": {**counts["families"], "1": counts["families"]["1"] + 1},
        }
        monkeypatch.setattr(rschreier, "construction_counts", lambda g: skewed)
        rep = run_sweep(sweep, 4)
        if sweep == "rs":
            assert rep.failures == ("emitted 305 generators, closed form 306",)
            assert rep.passed == 305
        else:
            assert rep.failures == ("walked 784 words, closed form 785",)
            assert rep.passed == 784

    def test_a_transversal_that_lost_an_element_fails_the_family_count(
        self, monkeypatch
    ):
        # the closed form counts 2^dim elements, not what the walk listed
        short = transversal(4)[:-1]
        monkeypatch.setattr(rschreier, "transversal", lambda g: short)
        assert construction_counts(4)["transversal_size"] == 16
        rep = verify_family_zero_images(4, FAMILIES)
        assert rep.failures == ("walked 735 words, closed form 784",)
        assert (rep.passed, rep.failed) == (735, 1)
