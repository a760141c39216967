"""Presentations, relator verification, and the GF(2) quotient map."""

import collections
import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscap_calc import exactmat, fpres
from crosscap_calc.fpres import (
    InconsistentQuotientError,
    Relator,
    UnsupportedSymbolError,
    VARIANT_COR,
    VARIANT_PROP,
    bar5_word,
    beta_twist,
    build_presentation,
    build_quotient_map,
    commutator_word,
    degenerate_representation_control,
    eval_symbol_word,
    pair_set,
    phi_image,
    phi_word_matrix,
    quotient_basis,
    quotient_rank,
    relator5_word,
    subset_sq,
    symbol_kernel_report,
    twist_quotient_rank,
    twist_sq,
    verify_commutation_lemma,
    verify_relators,
    word,
    winv,
    yslide,
)
from crosscap_calc.reports import CheckReport

# closed-form quotient ranks for g = 3..12, confirmed by elimination
RANKS = {3: 1, 4: 4, 5: 6, 6: 11, 7: 15, 8: 22, 9: 28, 10: 37, 11: 45, 12: 56}

# closed forms for the number of relators in each of the families (1)-(4)
FAMILY_COUNTS = {
    "1": lambda g: (g - 1) ** 2,
    "2a": lambda g: (g - 1) * (g - 2) ** 2,
    "2b": lambda g: (g - 1) * (g - 2) ** 2 * (g - 3),
    "3a": lambda g: (g - 1) * (g - 2) ** 2,
    "3b": lambda g: (g - 1) ** 2 * (g - 2) * (g - 3),
    "4": lambda g: (g - 1) * (g - 2) * (g - 3),
}

# the first and last relator of each family at g = 5: (family, indices,
# the slides of the word's first half; the word is that half squared)
FAMILY_ENDS_G5 = [
    ("1", (1, 2), [(1, 2)]),
    ("1", (4, 5), [(4, 5)]),
    ("2a", (1, 2, 3), [(1, 2), (3, 2)]),
    ("2a", (4, 5, 3), [(4, 5), (3, 5)]),
    ("2b", (1, 2, 3, 4), [(1, 2), (3, 4)]),
    ("2b", (4, 5, 3, 2), [(4, 5), (3, 2)]),
    ("3a", (1, 2, 3), [(1, 2), (1, 3), (2, 3)]),
    ("3a", (4, 3, 5), [(4, 3), (4, 5), (3, 5)]),
    ("3b", (1, 2, 3, 4), [(1, 2), (1, 3), (1, 4)]),
    ("3b", (4, 5, 3, 2), [(4, 5), (4, 3), (4, 2)]),
    ("4", (1, 2, 3), [(2, 1), (1, 2), (3, 2), (2, 3), (1, 3), (3, 1)]),
    ("4", (4, 3, 2), [(3, 4), (4, 3), (2, 3), (3, 2), (4, 2), (2, 4)]),
]


class TestGenSymbol:
    def test_slide_needs_two_distinct_indices(self):
        assert yslide(2, 1).indices == (2, 1)  # order carries meaning
        with pytest.raises(ValueError):
            yslide(2, 2)

    def test_twists_need_increasing_pairs(self):
        assert twist_sq(1, 3).label() == "T2(1,3)"
        with pytest.raises(ValueError):
            twist_sq(3, 1)
        with pytest.raises(ValueError):
            beta_twist(2, 2)

    def test_subset_needs_even_increasing_indices(self):
        assert subset_sq(1, 2, 3, 4).indices == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            subset_sq(1, 2, 3)
        with pytest.raises(ValueError):
            subset_sq(1, 3, 2, 4)

    @pytest.mark.parametrize("indices", [(1, 1), (1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3)])
    def test_subset_rejects_a_repeated_index(self, indices):
        # strictly increasing: a repeated neighbour fails as a descent does
        with pytest.raises(ValueError, match="subset must be strictly increasing"):
            subset_sq(*indices)

    def test_symbols_order_and_hash(self):
        assert yslide(1, 2) == yslide(1, 2)
        assert len({yslide(1, 2), yslide(2, 1), twist_sq(1, 2)}) == 3

    def test_validation_messages(self):
        cases = [
            (("bogus", (1, 2)), "unknown symbol kind 'bogus'"),
            (("yslide", (0, 2)), r"indices must be positive ints, got \(0, 2\)"),
            (("yslide", (1, 2.0)), "indices must be positive ints"),
            (("yslide", (1, 2, 3)), "slide needs two distinct indices"),
            (("twist_sq", (2, 1)), r"twist indices must satisfy i < j, got \(2, 1\)"),
            (("beta_twist", (1,)), "twist indices must satisfy i < j"),
            (("subset_sq", (1, 2, 3)), "subset must have even size >= 2"),
            (("subset_sq", (1, 3, 2, 4)), "subset must be strictly increasing"),
        ]
        for (kind, indices), message in cases:
            with pytest.raises(ValueError, match=message):
                fpres.GenSymbol(kind, indices)

    def test_hash_is_that_of_the_field_tuple(self):
        for sym in (yslide(3, 1), twist_sq(1, 2), beta_twist(2, 5), subset_sq(1, 2, 3, 4)):
            assert hash(sym) == hash((sym.kind, sym.indices))
            assert sym == fpres.GenSymbol(sym.kind, sym.indices)
            assert repr(sym) == f"GenSymbol(kind={sym.kind!r}, indices={sym.indices!r})"

    def test_interned_constructors_still_validate(self):
        yslide(1, 2)  # cached first: a bad call equal to it must not hit it
        bad = [
            (yslide, "yslide", (1.0, 2)),
            (yslide, "yslide", (2, 2)),
            (yslide, "yslide", (0, 1)),
            (twist_sq, "twist_sq", (3, 2)),
            (beta_twist, "beta_twist", (2, 2)),
            (subset_sq, "subset_sq", (1, 2, 3)),
        ]
        for make, kind, args in bad:
            with pytest.raises(ValueError) as expected:
                fpres.GenSymbol(kind, args)
            for _ in range(2):  # a failed call is not cached either
                with pytest.raises(ValueError) as got:
                    make(*args)
                assert str(got.value) == str(expected.value), (make, args)

    def test_constructors_return_interned_symbols(self):
        assert yslide(1, 2) is yslide(1, 2)
        assert subset_sq(1, 2, 3, 4) is subset_sq(1, 2, 3, 4)
        for make, kind, args in (
            (yslide, "yslide", (1, 2)),
            (twist_sq, "twist_sq", (1, 3)),
            (beta_twist, "beta_twist", (2, 4)),
            (subset_sq, "subset_sq", (1, 2, 3, 4)),
        ):
            direct = fpres.GenSymbol(kind, args)
            assert make(*args) == direct
            assert hash(make(*args)) == hash(direct)
            assert repr(make(*args)) == repr(direct)

    def test_relator_check_validates_each_symbol_once(self, symbol_constructions):
        rep = verify_relators(build_presentation(7, VARIANT_COR))
        assert rep.ok
        symbol_constructions.assert_each_once(7)

    def test_word_tells_a_symbol_from_a_letter(self):
        # a symbol is itself a pair (kind, indices); word() must still read
        # it as one letter with exponent +1, and (symbol, exp) as a letter
        sym = yslide(1, 2)
        assert word(sym) == ((sym, 1),)
        assert word((sym, -1), sym) == ((sym, -1), (sym, 1))
        with pytest.raises(ValueError):
            word((sym, 2))

    def test_sorted_generating_set_order(self):
        from crosscap_calc.rschreier import level2_generating_set

        got = [s.label() for s in sorted(level2_generating_set(6))]
        subsets = [
            f"T2S(1,{j},{k},{l})"
            for j in range(2, 7) for k in range(j + 1, 7) for l in range(k + 1, 7)
        ]
        slides = [
            f"Y({i},{j})"
            for i in range(1, 7) for j in range(1, 7)
            if i < j or j < i < 6
        ]
        assert got == subsets + slides


class TestWordAlgebra:
    def test_word_accepts_bare_symbols_and_powers(self):
        w = word(yslide(1, 2), (yslide(2, 1), -1))
        assert w == ((yslide(1, 2), 1), (yslide(2, 1), -1))

    def test_winv_reverses_and_flips(self):
        w = word(yslide(1, 2), yslide(1, 3))
        assert winv(w) == ((yslide(1, 3), -1), (yslide(1, 2), -1))

    def test_commutator_word(self):
        a, b = word(yslide(1, 2)), word(yslide(1, 3))
        assert commutator_word(a, b) == a + b + winv(a) + winv(b)


class TestPresentations:
    def test_relator_counts_frozen(self):
        assert len(build_presentation(3, VARIANT_PROP).relators) == 8
        assert len(build_presentation(3, VARIANT_COR).relators) == 10
        assert len(build_presentation(4, VARIANT_PROP).relators) == 69
        assert len(build_presentation(4, VARIANT_COR).relators) == 72

    def test_families_partition_relators(self):
        p = build_presentation(5, VARIANT_PROP)
        fams = {rel.family for rel in p.relators}
        assert fams == {"1", "2a", "2b", "3a", "3b", "4"}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_presentation(4, "NO_SUCH")

    @pytest.mark.parametrize("g", range(3, 13))
    def test_generator_lists_are_the_slides(self, g):
        prop = build_presentation(g, VARIANT_PROP).generators
        cor = build_presentation(g, VARIANT_COR).generators
        # (g-1)^2 slides with first index at most g - 1
        assert len(prop) == len(set(prop)) == (g - 1) ** 2
        assert all(s.kind == "yslide" and s.indices[0] <= g - 1 for s in prop)
        assert cor == prop + tuple(yslide(g, i) for i in range(1, g))

    def test_generator_lists_frozen(self):
        h = hashlib.sha256()
        for g in range(3, 9):
            h.update(repr(build_presentation(g, VARIANT_PROP).generators).encode())
            h.update(repr(build_presentation(g, VARIANT_COR).generators).encode())
        assert h.hexdigest() == (
            "d38a566275c1edc861410d762fc12103bb2281488773879b1249c221a2ba2be2"
        )

    def test_relators_hold_in_matrices(self):
        for g in (3, 4, 5):
            for variant in (VARIANT_PROP, VARIANT_COR):
                rep = verify_relators(build_presentation(g, variant))
                assert rep.ok, rep.failures[:3]
                assert rep.failed == 0

    @pytest.mark.parametrize("g", [3, 4, 5, 6, 7, 8])
    def test_cor_is_prop_followed_by_family5(self, g):
        # the presentation runner evaluates PROP once and only this tail again
        prop = build_presentation(g, VARIANT_PROP).relators
        cor = build_presentation(g, VARIANT_COR).relators
        assert cor[: len(prop)] == prop
        assert [(r.family, r.indices, r.word) for r in cor[len(prop):]] == [
            ("5", (i,), relator5_word(g, i)) for i in range(1, g)
        ]

    def test_relator5_word_shape(self):
        w = relator5_word(3, 1)
        assert w[-1] == (yslide(3, 1), -1)
        assert eval_symbol_word(3, w) == exactmat.identity(2)


def pair_row(g, w):
    """A word's GF(2) row over the unordered pairs: its abelianization in
    the quotient, where Y[i, j] and Y[j, i] coincide."""
    bit = {p: 1 << n for n, p in enumerate(pair_set(g))}
    row = 0
    for sym, _exp in w:
        row ^= bit[tuple(sorted(sym.indices))]
    return row


class TestRelatorFamilies:
    @pytest.mark.parametrize("g", range(3, 13))
    def test_family_counts_match_closed_forms(self, g):
        got = collections.Counter(r.family for r in build_presentation(g, VARIANT_PROP).relators)
        assert set(got) <= set(FAMILY_COUNTS)
        assert {f: got[f] for f in FAMILY_COUNTS} == {
            f: count(g) for f, count in FAMILY_COUNTS.items()
        }

    def test_first_and_last_relator_of_each_family_pinned(self):
        rels = build_presentation(5, VARIANT_PROP).relators
        ends = []
        for family in FAMILY_COUNTS:
            members = [r for r in rels if r.family == family]
            ends += [members[0], members[-1]]
        got = []
        for r in ends:
            half = r.word[: len(r.word) // 2]
            assert r.word == half + half
            assert all(exp == 1 for _sym, exp in r.word)
            got.append((r.family, r.indices, [sym.indices for sym, _exp in half]))
        assert got == FAMILY_ENDS_G5

    @pytest.mark.parametrize("g", range(3, 13))
    def test_bar5_is_relator5_read_in_the_quotient(self, g):
        for i in range(2, g):
            assert pair_row(g, bar5_word(g, i)) == pair_row(g, relator5_word(g, i)), i

    def test_family5_words_pinned(self):
        def pairs(w):
            return [(sym.indices, exp) for sym, exp in w]

        assert pairs(relator5_word(5, 2)) == [
            ((1, 2), 1), ((1, 5), 1), ((3, 2), 1), ((3, 5), 1),
            ((4, 2), 1), ((4, 5), 1), ((2, 5), 1), ((5, 2), -1),
        ]
        assert pairs(bar5_word(5, 2)) == [
            ((1, 2), 1), ((1, 5), 1), ((2, 3), 1), ((3, 5), 1), ((2, 4), 1), ((4, 5), 1),
        ]


class TestRelator:
    """A relator is a tuple (family, indices, word) underneath."""

    def test_hash_is_the_frozen_dataclass_hash(self):
        # a frozen dataclass hashes the tuple of its fields
        w = word(yslide(1, 2), yslide(3, 2))
        rel = Relator("2a", (1, 2, 3), w)
        assert hash(rel) == hash(("2a", (1, 2, 3), w))
        assert rel == Relator("2a", (1, 2, 3), w)
        assert rel != Relator("2a", (1, 2, 4), w)
        assert (rel.family, rel.indices, rel.word) == ("2a", (1, 2, 3), w)
        assert Relator(family="2a", indices=(1, 2, 3), word=w) == rel

    def test_squares_share_one_letter_per_pair(self):
        # every (Y[i, j], +1) letter of the PROP relators is one object
        rels = _prop_relators(6)
        letters = [letter for rel in rels for letter in rel.word]
        assert len({id(letter) for letter in letters}) == len(set(letters))
        assert all(letter[1] == 1 for letter in letters)

    def test_failing_relator_keeps_its_label(self):
        rel = Relator("3b", (2, 1, 4, 5), word(yslide(2, 1)))
        rep = verify_relators(fpres.Presentation(5, VARIANT_PROP, (), (rel,)))
        assert (rep.passed, rep.failed) == (0, 1)
        assert rep.failures == ("3b(2, 1, 4, 5)",)


@functools.cache
def _prop_relators(g):
    return build_presentation(g, VARIANT_PROP).relators


def reference_relabel(g, w):
    """A word's letters Y[i, j] as (i, j, exp), with every index below g
    renamed by its rank in order of first appearance and g kept apart as
    "g"; None if a letter is not a slide Y[i, j] with i < g and j <= g."""
    order = []
    for sym, _exp in w:
        if sym.kind != fpres.KIND_YSLIDE or sym.indices[0] >= g or sym.indices[1] > g:
            return None
        order += [x for x in sym.indices if x < g and x not in order]
    rank = {x: n for n, x in enumerate(order, 1)}
    rank[g] = "g"
    return tuple((rank[sym.indices[0]], rank[sym.indices[1]], exp) for sym, exp in w)


def is_identity(g, w):
    return eval_symbol_word(g, w) == exactmat.identity(g - 1)


def presentation_of(g, *words):
    rels = tuple(Relator(f"w{n}", (), w) for n, w in enumerate(words))
    return fpres.Presentation(g, VARIANT_PROP, (), rels)


def permuted(g, w, perm):
    """w with each index below g renamed by ``perm`` (index k goes to
    ``perm[k - 1]``) and g kept."""
    rename = dict(zip(range(1, g), perm))
    rename[g] = g
    return tuple((yslide(*(rename[x] for x in sym.indices)), exp) for sym, exp in w)


@st.composite
def relator_shaped_words(draw):
    """(g, a word of one of four kinds): a genuine relator, a relator with
    a slide letter spliced in, a random slide word with a Y[i, g] letter
    (half of them u u^-1, which is I), or a word with a Y[g, i] letter."""
    g = draw(st.integers(3, 9))
    below = st.integers(1, g - 1)

    def slide():
        i = draw(below)
        j = draw(st.integers(1, g).filter(lambda j: j != i))
        return yslide(i, j), draw(st.sampled_from((1, -1)))

    def splice(w, letter):
        pos = draw(st.integers(0, len(w)))
        return w[:pos] + (letter,) + w[pos:]

    kind = draw(st.sampled_from(("relator", "spliced", "random", "gi")))
    if kind in ("relator", "spliced"):
        w = draw(st.sampled_from(_prop_relators(g))).word
        if kind == "spliced":
            w = splice(w, slide())
        return g, w
    u = tuple(slide() for _ in range(draw(st.integers(0, 6))))
    u = splice(u, (yslide(draw(below), g), 1))
    if draw(st.booleans()):
        u = u + winv(u)
    if kind == "random":
        return g, u
    i = draw(below)
    return g, draw(st.sampled_from((splice(u, (yslide(g, i), -1)), relator5_word(g, i))))


@settings(max_examples=300, deadline=None)
@given(case=relator_shaped_words(), data=st.data())
def test_relator_verdicts_match_direct_evaluation(case, data):
    g, w = case
    direct = is_identity(g, w)
    rep = verify_relators(presentation_of(g, w))
    assert (rep.passed, rep.failed) == ((1, 0) if direct else (0, 1))
    # a copy with the indices below g permuted has the same verdict, and
    # both fail alike when they fail
    perm = data.draw(st.permutations(range(1, g)))
    warm = permuted(g, w, perm)
    assert is_identity(g, warm) == direct
    rep = verify_relators(presentation_of(g, warm, w))
    assert rep.failures == (() if direct else ("w0()", "w1()"))
    # the lemma itself: the relabelled word at genus n decides the verdict
    expected = reference_relabel(g, w)
    if expected is None:
        assert any(sym.indices[0] == g for sym, _exp in w)
    else:
        n = max(len({x for i, j, _exp in expected for x in (i, j)} - {"g"}) + 1, 3)
        letters = tuple(((i, n if j == "g" else j), exp) for i, j, exp in expected)
        assert (exactmat.eval_word(n, letters) == exactmat.identity(n - 1)) == direct


class TestRelatorShapes:
    @pytest.mark.parametrize("g, family", [
        (g, f) for g in range(3, 9) for f in sorted(FAMILY_COUNTS) if FAMILY_COUNTS[f](g)
    ])
    @pytest.mark.parametrize("letter_to_g", [True, False])
    def test_spliced_relator_after_the_genuine_ones_fails_alone(self, g, family, letter_to_g):
        # the family's genuine relators first, then one that keeps a genuine
        # (family, indices) but has a slide letter spliced into its word:
        # a b = I makes a Y b conjugate to Y, so it must fail, and only it
        rels = tuple(r for r in _prop_relators(g) if r.family == family)
        rel = rels[-1]
        i = rel.indices[0]
        j = g if letter_to_g else next(k for k in range(1, g) if k != i)
        pos = len(rel.word) // 2
        bad = rel.word[:pos] + ((yslide(i, j), 1),) + rel.word[pos:]
        rep = verify_relators(fpres.Presentation(
            g, VARIANT_PROP, (), rels + (Relator(rel.family, rel.indices, bad),)
        ))
        assert (rep.passed, rep.failed) == (len(rels), 1)
        assert rep.failures == (f"{rel.family}{rel.indices}",)

    # each at g = 5, alone and after every genuine relator: the exception
    # class and message of evaluating the word directly
    @pytest.mark.parametrize("bad, error, message", [
        (word(yslide(1, 6)), exactmat.IndexRangeError, "second index 6 outside 1..5"),
        (word(yslide(6, 1)), exactmat.IndexRangeError, "first index 6 outside 1..4"),
        (word(yslide(1, 2), twist_sq(1, 2)), UnsupportedSymbolError,
         "T2(1,2) is not a slide symbol; use phi_word_matrix"),
        (((yslide(1, 2), 2),), ValueError, "exponent must be +1 or -1, got 2"),
        (((yslide(1, 5), 2),), ValueError, "exponent must be +1 or -1, got 2"),
    ], ids=["index-past-g", "first-index-past-g", "twist", "exponent", "exponent-to-g"])
    @pytest.mark.parametrize("after_genuine", [False, True])
    def test_bad_letters_raise_as_before(self, bad, error, message, after_genuine):
        rels = _prop_relators(5) if after_genuine else ()
        with pytest.raises(error) as info:
            verify_relators(fpres.Presentation(
                5, VARIANT_PROP, (), rels + (Relator("w", (), bad),)
            ))
        assert type(info.value) is error
        assert str(info.value) == message


class TestFamilyClasses:
    """``verify_prop_families`` against the per-word reference."""

    @pytest.mark.parametrize("g", range(3, 10))
    def test_class_lemma_holds_exhaustively(self, g):
        # every relator of a class (family, position of g) has one
        # relabelled word, so one evaluation decides the class
        words = collections.defaultdict(set)
        for rel in _prop_relators(g):
            words[rel.family, (*rel.indices, g).index(g)].add(reference_relabel(g, rel.word))
        assert all(len(found) == 1 and None not in found for found in words.values())
        assert len(words) == {3: 4, 4: 12}.get(g, 14)

    def test_class_counts_match_closed_forms(self, monkeypatch):
        rows = fpres._PROP_FAMILIES
        for g in range(3, 65):
            for row in rows:
                monkeypatch.setattr(fpres, "_PROP_FAMILIES", (row,))
                rep = fpres.verify_prop_families(g)
                assert (rep.passed, rep.failed) == (FAMILY_COUNTS[row[0]](g), 0), (g, row)

    # each replaces one row by a non-relator; None keeps the table
    @pytest.mark.parametrize("family, shape", [
        (None, None),
        ("2a", ((0, 1), (2, 0))),
        ("3b", ((0, 2), (0, 3))),
        ("4", ((1, 0), (0, 1), (2, 1), (1, 2), (0, 2))),
    ], ids=["genuine", "2a", "3b", "4"])
    def test_report_equals_the_per_word_reference(self, break_family_row, family, shape):
        if family is not None:
            break_family_row(family, shape)
        failed = []
        for g in range(3, 10):
            rep = fpres.verify_prop_families(g)
            assert rep == verify_relators(build_presentation(g, VARIANT_PROP)), g
            failed.append(rep.failed)
        if family is None:
            assert failed == [0] * 7
        else:
            assert max(failed) > CheckReport.MAX_FAILURES
            assert failed == [FAMILY_COUNTS[family](g) for g in range(3, 10)]

    @pytest.mark.parametrize("letter", [0, 1])
    def test_failing_classes_keep_relator_order(self, monkeypatch, letter):
        # a stand-in evaluator whose verdict depends only on the class:
        # a word fails when its letter ``letter`` slides to g, so in each
        # family some classes fail and others pass, and the failures of
        # different classes interleave in relator order
        def evaluate(g, w):
            ok = w[letter][0].indices[1] != g
            return exactmat.identity(g - 1) if ok else exactmat.make_y(g, 1, 2)

        monkeypatch.setattr(fpres, "eval_symbol_word", evaluate)
        for g in range(3, 10):
            rep = fpres.verify_prop_families(g)
            assert rep == verify_relators(build_presentation(g, VARIANT_PROP)), g
            assert 0 < rep.failed and 0 < rep.passed
        assert rep.failed > CheckReport.MAX_FAILURES

    def test_fourteen_evaluations_at_genus_8(self, monkeypatch):
        calls = []
        evaluate = exactmat.eval_word

        def counting(g, letters):
            calls.append(g)
            return evaluate(g, letters)

        monkeypatch.setattr(exactmat, "eval_word", counting)
        rep = fpres.verify_prop_families(8)
        assert (rep.passed, rep.failed) == (len(_prop_relators(8)), 0)
        assert calls == [8] * 14

    def test_a_slide_from_a_j_position_raises(self, break_family_row):
        # Y[g, i] would be a letter: the lemma needs every slide to start
        # at an index below g
        break_family_row("2a", ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="family 2a: a slide starts at a J position"):
            fpres.verify_prop_families(5)


class TestCommutationAndControls:
    def test_commutation_lemma_small(self):
        for g in (3, 4, 5):
            rep = verify_commutation_lemma(g)
            assert rep.ok
            assert rep.passed == (g - 1) * (g - 2)

    def test_a_wrong_slide_fails_exactly_its_commutation_records(self, monkeypatch):
        # negative control: Y[5,2] at g=5 acts as Y[1,3]; of the 12 records
        # the two whose first slide does not commute with Y[1,3] fail, each
        # labelled with its own pair
        genuine = exactmat._column_update

        def wrong(g, i, j):
            return genuine(g, 1, 3) if (g, i, j) == (5, 5, 2) else genuine(g, i, j)

        monkeypatch.setattr(exactmat, "_column_update", wrong)
        rep = verify_commutation_lemma(5)
        assert (rep.passed, rep.failed) == (10, 2)
        assert rep.failures == ("[Y[1,2],Y[5,2]] != 1", "[Y[3,2],Y[5,2]] != 1")

    def test_opposite_slides_do_not_commute(self):
        a = exactmat.make_y(4, 1, 2)
        b = exactmat.make_y(4, 2, 1)
        assert a * b != b * a

    def test_degenerate_representation_control(self):
        for g in (3, 4, 6):
            assert degenerate_representation_control(g)


class TestQuotientMap:
    def test_basis_frozen(self):
        assert quotient_basis(3) == ((2, 3),)
        assert quotient_basis(4) == ((1, 4), (2, 3), (2, 4), (3, 4))
        assert len(quotient_basis(7)) == RANKS[7]

    def test_genus3_all_classes_collapse(self):
        qm = build_quotient_map(3)
        assert qm.image(yslide(1, 2)) == 1
        assert qm.image(yslide(1, 3)) == 1
        assert qm.image(yslide(2, 3)) == 1

    def test_genus4_solved_images_frozen(self):
        qm = build_quotient_map(4)
        bit = {p: 1 << n for n, p in enumerate(quotient_basis(4))}
        assert qm.image(yslide(1, 4)) == bit[(1, 4)]
        assert qm.image(yslide(1, 2)) == bit[(1, 4)] ^ bit[(2, 3)] ^ bit[(3, 4)]
        assert qm.image(yslide(1, 3)) == bit[(1, 4)] ^ bit[(2, 3)] ^ bit[(2, 4)]

    def test_pair_image_is_symmetric(self):
        qm = build_quotient_map(5)
        for i, j in pair_set(5):
            assert qm.image(yslide(i, j)) == qm.image(yslide(j, i))

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_every_quotient_relator_dies(self, g):
        qm = build_quotient_map(g)
        rels = tuple(fpres._bar5_relators(g))
        assert {r.family for r in rels} == {"bar5"} | ({"bar5odd"} if g % 2 else set())
        for rel in rels:
            assert qm.word_image(rel.word) == 0, rel.family

    def test_map_construction_succeeds_through_genus8(self):
        for g in range(3, 9):
            build_quotient_map(g)  # raises InconsistentQuotientError on failure

    def test_twist_symbols_map_to_zero(self):
        qm = build_quotient_map(5)
        assert qm.image(twist_sq(2, 4)) == 0
        assert qm.image(beta_twist(1, 5)) == 0
        assert qm.image(subset_sq(1, 2, 3, 4)) == 0

    def test_image_is_linear_over_letters(self):
        rng = random.Random(17)
        qm = build_quotient_map(5)
        pairs = pair_set(5)
        for _ in range(30):
            u = tuple((yslide(*rng.choice(pairs)), rng.choice((1, -1))) for _ in range(5))
            v = tuple((yslide(*rng.choice(pairs)), rng.choice((1, -1))) for _ in range(4))
            assert qm.word_image(u + v) == qm.word_image(u) ^ qm.word_image(v)

    def test_slide_table_is_complete(self):
        for g in (3, 4, 7):
            qm = build_quotient_map(g)
            slides = [yslide(i, j) for i in range(1, g + 1) for j in range(1, g + 1) if i != j]
            assert len(qm.slide_masks) == g * (g - 1)
            assert all(qm.slide_masks[s] == qm.image(s) for s in slides)

    def test_word_image_matches_a_per_letter_fold(self):
        rng = random.Random(2024)
        for g in range(3, 9):
            qm = build_quotient_map(g)
            pairs = pair_set(g)
            symbols = [yslide(i, j) for i, j in pairs] + [yslide(j, i) for i, j in pairs]
            symbols += [twist_sq(*p) for p in pairs] + [beta_twist(*p) for p in pairs]
            symbols += [
                subset_sq(*sorted(rng.sample(range(1, g + 1), 2 * rng.randint(1, g // 2))))
                for _ in range(5)
            ]
            for _ in range(20):
                # every symbol at least once, then random extras, in random order
                w = [(s, rng.choice((1, -1))) for s in symbols]
                w += [(rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(40))]
                rng.shuffle(w)
                w = tuple(w)
                expected = 0
                for n, (sym, _exp) in enumerate(w):
                    assert qm.word_image(w[:n]) == expected
                    expected ^= qm.image(sym)
                assert qm.word_image(w) == expected
                assert {exp for _s, exp in w} == {1, -1}

    def test_word_image_of_twists_and_out_of_range_slides(self):
        qm = build_quotient_map(4)
        assert qm.word_image(word(twist_sq(1, 2), beta_twist(3, 4), subset_sq(1, 2, 3, 4))) == 0
        with pytest.raises(exactmat.IndexRangeError):
            qm.word_image(word(yslide(1, 2), yslide(1, 5)))

    def test_rank_values(self):
        for g, r in RANKS.items():
            assert quotient_rank(g) == r
            assert twist_quotient_rank(g) == r - 1
            parity = 1 if g % 2 == 0 else 0
            assert r == math.comb(g - 1, 2) + parity
        assert len(build_quotient_map(6).basis) == RANKS[6]

    def test_basis_pairs_map_to_their_unit_bits(self):
        for g in range(3, 9):
            qm = build_quotient_map(g)
            for n, (i, j) in enumerate(qm.basis):
                assert qm.image(yslide(i, j)) == qm.image(yslide(j, i)) == 1 << n


@functools.cache
def _relator_rows(g):
    """Each bar-(5) relator abelianized over the reduction's bit layout."""
    layout, _pivots = fpres._quotient_pivots(g)
    bit = {p: 1 << n for n, p in enumerate(layout)}
    rows = []
    for rel in fpres._bar5_relators(g):
        row = 0
        for sym, _exp in rel.word:
            row ^= bit[sym.indices]
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(g=st.integers(3, 8), data=st.data())
def test_f2_reduce_is_a_normal_form_modulo_the_relators(g, data):
    layout, pivots = fpres._quotient_pivots(g)
    rows = st.integers(0, (1 << len(layout)) - 1)
    a, b = data.draw(rows), data.draw(rows)

    def nf(row):
        return fpres._f2_reduce(row, pivots)

    assert nf(a ^ b) == nf(a) ^ nf(b)
    assert nf(nf(a)) == nf(a)
    assert all(not nf(a) >> (p.bit_length() - 1) & 1 for p in pivots)
    assert all(nf(row) == 0 for row in _relator_rows(g))


def _clear_quotient_caches():
    fpres._quotient_pivots.cache_clear()
    build_quotient_map.cache_clear()


def _reference_pivots(g):
    """Reference oracle: the pivots of a reduction over the bar-(5) rows
    in relator order, zero rows skipped, with its own bit layout."""
    basis = quotient_basis(g)
    layout = basis + tuple(p for p in pair_set(g) if p not in basis)
    bit = {p: 1 << n for n, p in enumerate(layout)}
    pivots = []
    for rel in fpres._bar5_relators(g):
        row = 0
        for sym, _exp in rel.word:
            row ^= bit[tuple(sorted(sym.indices))]
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return layout, tuple(pivots)


class TestBarFiveOnlyReduction:
    @pytest.mark.parametrize("g", range(3, 17))
    def test_pivots_equal_a_full_reduction(self, g):
        assert fpres._quotient_pivots(g) == _reference_pivots(g)

    def test_verdict_path_builds_no_presentation(self, monkeypatch):
        # the rank and the map come from the bar-(5) rows alone
        def forbidden(g, variant):
            raise AssertionError("the quotient solve must not build a presentation")

        monkeypatch.setattr(fpres, "build_presentation", forbidden)
        _clear_quotient_caches()
        try:
            for g in range(3, 13):
                assert quotient_rank(g) == RANKS[g]
                assert build_quotient_map(g).basis == quotient_basis(g)
        finally:
            _clear_quotient_caches()

    def test_relators_frozen_from_the_full_construction(self):
        # sha256 of the bar-(5) relators at g=3..12, the only rows the
        # quotient solve reduces
        h = hashlib.sha256()
        for g in range(3, 13):
            h.update(repr(tuple(fpres._bar5_relators(g))).encode())
        assert h.hexdigest() == (
            "c58cadc3f6871bbcc243895b26d0d9080fbfa6ef4532dd8f744ba460b1aa7c36"
        )


@pytest.fixture
def edit_quotient_relators(monkeypatch):
    """Install ``edit(g, relators) -> relators`` over the bar-(5)
    relators, the only ones the quotient solve reads, with the quotient
    caches cleared, and restore both after."""
    original = fpres._bar5_relators

    def install(edit):
        monkeypatch.setattr(fpres, "_bar5_relators", lambda g: edit(g, list(original(g))))
        _clear_quotient_caches()

    yield install
    monkeypatch.undo()
    _clear_quotient_caches()


class TestQuotientNegativeControls:
    @pytest.mark.parametrize("g, rank", [(4, 6), (5, 9), (6, 15)])
    def test_dropping_bar5_frees_classes(self, edit_quotient_relators, g, rank):
        edit_quotient_relators(lambda g, rels: [r for r in rels if r.family != "bar5"])
        assert quotient_rank(g) == rank != RANKS[g]
        with pytest.raises(InconsistentQuotientError):
            build_quotient_map(g)

    def test_dropping_bar5odd_frees_a_class(self, edit_quotient_relators):
        edit_quotient_relators(lambda g, rels: [r for r in rels if r.family != "bar5odd"])
        assert quotient_rank(5) == 7 != RANKS[5]
        with pytest.raises(InconsistentQuotientError):
            build_quotient_map(5)

    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_killing_a_basis_class_is_caught(self, edit_quotient_relators, g):
        extra = Relator("extra", (2, 3), word(yslide(2, 3)))
        edit_quotient_relators(lambda g, rels: rels + [extra])
        assert quotient_rank(g) == RANKS[g] - 1
        with pytest.raises(InconsistentQuotientError):
            build_quotient_map(g)


class TestPhiImages:
    def test_twist_sq_image_frozen_genus3(self):
        m = phi_image(3, twist_sq(1, 2))
        assert m.rows == ((-1, 2), (-2, 3))
        assert exactmat.is_level2(m)

    def test_beta_twist_image_frozen_genus3(self):
        # at genus 3 the squared slide acts trivially on homology
        assert phi_image(3, beta_twist(1, 2)) == exactmat.identity(2)

    def test_yslide_image_matches_matrix_layer(self):
        assert phi_image(4, yslide(2, 3)) == exactmat.make_y(4, 2, 3)
        assert phi_image(4, yslide(4, 2)) == exactmat.make_y_gi(4, 2)

    def test_large_subset_twist_rejected(self):
        with pytest.raises(UnsupportedSymbolError):
            phi_image(5, subset_sq(1, 2, 3, 4))

    def test_phi_word_matrix_folds_inverses(self):
        w = ((twist_sq(1, 2), 1), (twist_sq(1, 2), -1))
        assert phi_word_matrix(4, w) == exactmat.identity(3)

    def test_symbol_kernel_report(self):
        for g in (3, 4, 5):
            rep = symbol_kernel_report(g)
            assert rep.ok
            # two symbol kinds per pair, two records each
            assert rep.passed == 4 * len(pair_set(g))

    def test_symbol_kernel_report_leaves_the_image_cache_empty(self):
        # each image is used once: a cached one is a dense matrix kept for nothing
        phi_image.cache_clear()
        rep = symbol_kernel_report(6)
        assert phi_image.cache_info().currsize == 0
        assert (rep.passed, rep.failed) == (60, 0)


def oracle_phi(g, sym):
    """Symbol images by their defining formulas, through mat_mul/mat_inv."""
    i, j = sym.indices
    if sym.kind == "yslide":
        return exactmat.y_matrix(g, i, j)
    if sym.kind == "twist_sq":
        return exactmat.mat_mul(
            exactmat.mat_inv(exactmat.y_matrix(g, j, i)), exactmat.y_matrix(g, i, j)
        )
    m = exactmat.y_matrix(g, i, j)
    return exactmat.mat_mul(m, m)


def oracle_word(g, w):
    acc = exactmat.identity(g - 1)
    for sym, exp in w:
        m = oracle_phi(g, sym)
        acc = exactmat.mat_mul(acc, m if exp == 1 else exactmat.mat_inv(m))
    return acc


class TestPhiOracle:
    @staticmethod
    def alphabet(g):
        slides = [
            yslide(i, j)
            for i in range(1, g + 1)
            for j in range(1, g + 1)
            if i != j and (i < g or j < g)
        ]
        twists = [kind(i, j) for i, j in pair_set(g) for kind in (twist_sq, beta_twist)]
        return slides + twists

    def test_phi_image_matches_defining_formulas(self):
        for g in range(3, 9):
            for sym in self.alphabet(g):
                assert phi_image(g, sym) == oracle_phi(g, sym), (g, sym)

    def test_phi_word_matrix_matches_mat_mul_mat_inv_fold(self):
        rng = random.Random(160)
        for g in range(3, 9):
            letters = [(sym, e) for sym in self.alphabet(g) for e in (1, -1)]
            rng.shuffle(letters)
            words = [tuple(letters[k : k + 7]) for k in range(0, len(letters), 7)]
            for _ in range(20):
                words.append(tuple(
                    (rng.choice(self.alphabet(g)), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 12))
                ))
            for w in words:
                assert phi_word_matrix(g, w) == oracle_word(g, w), (g, w)

    def test_inverse_twist_letter_reverses_its_expansion(self):
        # T2(1,2)^-1 is Y[1,2] Y[2,1], not the forward word Y[2,1] Y[1,2]
        w = ((twist_sq(1, 2), -1),)
        assert phi_word_matrix(4, w) == exactmat.make_y(4, 1, 2) * exactmat.make_y(4, 2, 1)
        assert phi_word_matrix(4, w) != phi_image(4, twist_sq(1, 2))

    def test_subset_twist_word_rejected(self):
        with pytest.raises(UnsupportedSymbolError):
            phi_word_matrix(5, ((yslide(1, 2), 1), (subset_sq(1, 2, 3, 4), -1)))
