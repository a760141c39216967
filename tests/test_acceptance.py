"""End-to-end acceptance checks for the toolkit.

Each test covers one acceptance criterion and emits exactly one visible
``criterion NN PASS/FAIL`` line (independent of pytest's capture mode), so
the tee'd run log reads as a ten-line scorecard.  Time budgets, where a
criterion carries one, are asserted inside the test.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from crosscap_calc import fpres, gf2, rschreier, words
from crosscap_calc.exactmat import is_level2
from crosscap_calc.fpres import (
    VARIANT_COR,
    VARIANT_PROP,
    beta_twist,
    build_presentation,
    build_quotient_map,
    pair_set,
    phi_image,
    phi_word_matrix,
    quotient_rank,
    symbol_kernel_report,
    twist_quotient_rank,
    twist_sq,
    verify_commutation_lemma,
    verify_prop_families,
    verify_relators,
)
from crosscap_calc.gf2 import (
    CASE_ALPHA12,
    STABILIZER_CASES,
    F2Matrix,
    enumerate_o2,
    generate_group,
    stabilizer_case_check,
    standard_twist_generators,
)
from crosscap_calc.rschreier import (
    case_identity_words,
    classify_pair_case,
    transversal,
    verify_case_identities,
    verify_family_zero_images,
    verify_rs_zero_images,
    verify_transversal,
    verify_tst_membership,
)
from crosscap_calc.words import (
    BraidWord,
    braid_equal,
    chain_power,
    chain_square_decomposition,
    decomposition_product,
    verify_commutator_lemma,
)

# rank values pinned from the source text of the rank statements
PINNED_RANKS = {3: 1, 5: 6, 6: 11}
PINNED_TWIST_RANKS = {5: 5, 6: 10}


@contextmanager
def criterion(capsys, num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:02d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\ncriterion {num:02d} PASS: {desc} [{elapsed:.1f}s]")


def test_criterion_01_relator_families_hold(capsys):
    with criterion(capsys, 1, "relator families (1)-(4): the per-class report equals the"
                   " per-word reference report and passes; family (5) holds; genus 3..8"):
        start = time.perf_counter()
        for g in range(3, 9):
            prop = build_presentation(g, VARIANT_PROP)
            rep = verify_prop_families(g)
            assert rep == verify_relators(prop), g
            assert rep.ok and rep.passed == len(prop.relators), (g, rep.failures[:3])
            family5 = fpres.Presentation(g, VARIANT_COR, (), fpres.family5_relators(g))
            rep = verify_relators(family5)
            assert rep.ok and rep.passed == g - 1, (g, rep.failures[:3])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"relator sweep took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_slide_commutation(capsys):
    with criterion(capsys, 2, "disjoint-slot slides commute with the matching"
                   " last-slot slide for genus 3..8"):
        for g in range(3, 9):
            rep = verify_commutation_lemma(g)
            assert rep.ok, (g, rep.failures[:3])
            assert rep.passed == (g - 1) * (g - 2)


def test_criterion_03_quotient_rank_formula(capsys):
    with criterion(capsys, 3, "solved quotient rank matches the closed form"
                   " for genus 3..12"):
        for g in range(3, 13):
            expected = math.comb(g - 1, 2) + (1 if g % 2 == 0 else 0)
            assert quotient_rank(g) == expected, g
        for g, value in PINNED_RANKS.items():
            assert quotient_rank(g) == value, g


def test_criterion_04_twist_subspace_rank(capsys):
    with criterion(capsys, 4, "twist quotient rank (quotient rank - 1, the"
                   " twist subgroup having index 2) matches the closed form"
                   " for genus 3..12"):
        for g in range(3, 13):
            expected = math.comb(g - 1, 2) - (1 if g % 2 == 1 else 0)
            assert twist_quotient_rank(g) == expected, g
        for g, value in PINNED_TWIST_RANKS.items():
            assert twist_quotient_rank(g) == value, g


def test_criterion_05_twist_symbols_die_in_quotient(capsys):
    with criterion(capsys, 5, "squared/bounding twists are level-2 with zero"
                   " quotient image; for genus <= 6 the T2 core of each"
                   " T(s,t) is level-2 with zero image"):
        for g in range(3, 9):
            qmap = build_quotient_map(g)
            for i, j in pair_set(g):
                for sym in (twist_sq(i, j), beta_twist(i, j)):
                    assert is_level2(phi_image(g, sym)), (g, sym)
                    assert qmap.image(sym) == 0, (g, sym)
            rep = symbol_kernel_report(g)
            assert rep.ok, (g, rep.failures[:3])
        for g in range(3, 7):
            for r in range(2, g + 1, 2):
                for idx in itertools.combinations(range(1, g + 1), r):
                    rep = verify_tst_membership(g, idx)
                    assert rep.ok, (g, idx, rep.failures[:3])


def test_criterion_06_orthogonal_group_generation(capsys):
    with criterion(capsys, 6, "twist transvections generate the full mod-2"
                   " orthogonal group for genus 3..5, which at genus 3 is"
                   " exactly the six permutation matrices"):
        start = time.perf_counter()
        for g in (3, 4, 5):
            gens = standard_twist_generators(g)
            assert generate_group(g, gens.values()) == enumerate_o2(g), g
        # independently derived: at genus 3 the group is exactly the six
        # permutation matrices
        perms = frozenset(
            F2Matrix.from_columns(3, [1 << p[i] for i in range(3)])
            for p in itertools.permutations(range(3))
        )
        assert enumerate_o2(3) == perms
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"group sweep took {elapsed:.1f}s, budget is 60s"


def test_criterion_07_stabilizer_decompositions(capsys):
    with criterion(capsys, 7, "every case's permitted generators fix its class"
                   " and generate a subgroup of its stabilizer, the whole"
                   " stabilizer for alpha1 and alpha_all, that holds every"
                   " stabilizer element (for alpha12 once corrected by T0);"
                   " exhaustive at genus 3..5"):
        for g in (3, 4, 5):
            for case in STABILIZER_CASES:
                vector, permitted = gf2._CASES[case]
                v = vector(g)
                gens = [m for s, m in standard_twist_generators(g).items() if permitted(s)]
                assert gens and all(m.apply(v) == v for m in gens), (g, case)
                stab = {a for a in enumerate_o2(g) if a.apply(v) == v}
                closure = generate_group(g, gens)
                assert closure <= stab, (g, case)
                assert case == CASE_ALPHA12 or closure == stab, (g, case)
                rep = stabilizer_case_check(g, case)
                assert rep.ok, (g, case, rep.failures[:3])
                # one record per permitted generator, one for the closure,
                # then one per stabilizer element
                assert rep.passed == len(gens) + 1 + len(stab), (g, case)


def test_criterion_08_chain_square_decomposition(capsys):
    with criterion(capsys, 8, "the chain-word power factors into k(k+1)/2"
                   " conjugated squares, verified in the braid group, k=1..6"):
        for k in range(1, 7):
            factors = chain_square_decomposition(k)
            assert len(factors) == k * (k + 1) // 2, k
            for f in factors:
                conj = f.conjugator
                expected = tuple(-x for x in reversed(conj)) + (f.base, f.base) + conj
                assert f.word().letters == expected, (k, f)
            assert braid_equal(decomposition_product(factors), chain_power(k)), k
        # control: the braid checker must still distinguish distinct generators
        assert not braid_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))


def test_criterion_09_commutator_squares_lemma(capsys):
    with criterion(capsys, 9, "[a, b1...bn] equals the product over m of"
                   " (b1...b(m-1)) [a, bm] (b1...b(m-1))^-1 in the free"
                   " group for n = 1..8"):
        for n in range(1, 9):
            assert verify_commutator_lemma(n), n


def test_criterion_10_level2_subgroup_construction(capsys):
    with criterion(capsys, 10, "coset transversal of 2^rank elements, element n"
                   " of quotient image n, which gives every RS word image 0;"
                   " RS generator count equals its closed form; family 1-4"
                   " words certified by core images and refolds, g=3..7;"
                   " case identities hold, g=5, 6"):
        for g in range(3, 8):
            assert len(transversal(g)) == 1 << quotient_rank(g), g
            rep = verify_transversal(g)
            assert rep.ok, (g, rep.failures[:3])
            rep = verify_rs_zero_images(g)
            assert rep.ok, (g, rep.failures[:3])
            rep = verify_family_zero_images(g, ("1", "2", "3", "4"))
            assert rep.ok, (g, rep.failures[:3])
        for g in (5, 6):
            rep = verify_case_identities(g)
            assert rep.ok, (g, rep.failures[:3])
            assert rep.passed == math.comb(len(pair_set(g)), 2)
        # control: disjoint index pairs need no correction word at all
        case, lhs, rhs = case_identity_words((1, 2), (3, 4))
        assert rhs == ()
        assert phi_word_matrix(5, lhs) == phi_word_matrix(5, rhs)
