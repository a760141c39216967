"""Free-group reduction, braid-word equality, and the chain relation.

Braid equality is cross-checked against an independent oracle: the
action of the braid group on the free group (x_i -> x_i x_{i+1} x_i^-1,
x_{i+1} -> x_i), which is faithful, so a braid word is trivial exactly
when its action fixes every free generator.
"""

import random
import tracemalloc

import pytest

from crosscap_calc import words
from crosscap_calc.words import (
    BraidWord,
    FreeWord,
    ChainFactor,
    braid_equal,
    braid_is_identity,
    chain_power,
    chain_square_decomposition,
    chain_word,
    commutator,
    decomposition_product,
    free_reduce,
    verify_commutator_lemma,
)


def artin_action(w: BraidWord) -> list[FreeWord]:
    """Image of each free generator under the braid word, reduced."""
    n = w.strands
    images = [FreeWord.gen(f"x{i}") for i in range(1, n + 1)]

    def substitute(target: FreeWord, table: dict[str, FreeWord]) -> FreeWord:
        acc = FreeWord(())
        for name, exp in target.letters:
            img = table[name]
            acc = acc * (img if exp == 1 else img.inv())
        return free_reduce(acc)

    for letter in w.letters:
        i = abs(letter)
        a, b = FreeWord.gen(f"x{i}"), FreeWord.gen(f"x{i + 1}")
        if letter > 0:
            table = {f"x{i}": a * b * a.inv(), f"x{i + 1}": a}
        else:
            table = {f"x{i}": b, f"x{i + 1}": b.inv() * a * b}
        images = [
            substitute(img, {f"x{k}": FreeWord.gen(f"x{k}") for k in range(1, n + 1)} | table)
            for img in images
        ]
    return images


def artin_trivial(w: BraidWord) -> bool:
    return all(
        img == FreeWord.gen(f"x{i}")
        for i, img in enumerate(artin_action(w), start=1)
    )


class TestFreeWords:
    def test_reduce_cancels_adjacent_inverses(self):
        a, b = FreeWord.gen("a"), FreeWord.gen("b")
        w = a * b * b.inv() * a.inv() * a
        assert free_reduce(w) == a

    def test_reduce_of_empty(self):
        assert free_reduce(FreeWord(())) == FreeWord(())

    def test_inv_reverses(self):
        a, b = FreeWord.gen("a"), FreeWord.gen("b")
        assert (a * b).inv() == b.inv() * a.inv()

    def test_commutator_of_commuting_is_trivial(self):
        a = FreeWord.gen("a")
        assert free_reduce(commutator(a, a)) == FreeWord(())

    def test_commutator_lemma_range(self):
        for n in range(1, 9):
            assert verify_commutator_lemma(n)

    @staticmethod
    def rebuilt_commutator_sides(n):
        """Both sides of the lemma as the check built them before: every
        prefix rebuilt from scratch, one ``FreeWord`` product at a time."""
        a = FreeWord.gen("a")
        bs = [FreeWord.gen(f"b{m}") for m in range(1, n + 1)]
        product = FreeWord(())
        for b in bs:
            product = product * b
        rhs = FreeWord(())
        for m, b in enumerate(bs):
            prefix = FreeWord(())
            for earlier in bs[:m]:
                prefix = prefix * earlier
            rhs = rhs * prefix * commutator(a, b) * prefix.inv()
        return commutator(a, product), rhs

    @pytest.mark.parametrize("n", range(17))
    def test_commutator_lemma_reduces_the_rebuilt_sides(self, n, monkeypatch):
        # the letters the check streams through the reduction are, letter
        # for letter, the old loop's words
        reduced = []
        reduce = words._reduced

        def capturing(letters):
            letters = tuple(letters)
            reduced.append(FreeWord(letters))
            return reduce(letters)

        monkeypatch.setattr(words, "_reduced", capturing)
        assert verify_commutator_lemma(n)
        assert reduced == list(self.rebuilt_commutator_sides(n))

    def test_commutator_lemma_memory_is_linear(self):
        # the right side's n^2 + 3n letters are streamed, never listed: a
        # listed side peaked at 4,361 KiB here
        tracemalloc.start()
        try:
            assert verify_commutator_lemma(512)
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestBraidWordBasics:
    def test_rejects_zero_and_out_of_range_letters(self):
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        BraidWord(3, (2, -2, 1))  # fine

    def test_mul_requires_same_strand_count(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1,)) * BraidWord(4, (1,))

    def test_inv(self):
        w = BraidWord(4, (1, -2, 3))
        assert w.inv().letters == (-3, 2, -1)


class TestBraidIdentity:
    def test_free_cancellation(self):
        assert braid_is_identity(BraidWord(3, (1, 2, -2, -1)))

    def test_braid_relation(self):
        assert braid_is_identity(BraidWord(3, (1, 2, 1, -2, -1, -2)))

    def test_far_generators_commute(self):
        assert braid_is_identity(BraidWord(4, (1, 3, -1, -3)))

    def test_adjacent_generators_do_not_commute(self):
        assert not braid_is_identity(BraidWord(3, (1, 2, -1, -2)))

    def test_single_letters_nontrivial(self):
        assert not braid_is_identity(BraidWord(3, (1,)))
        assert not braid_is_identity(BraidWord(3, (-2,)))

    def test_conjugates_of_identity(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.choice((3, 4, 5))
            u = BraidWord(
                n,
                tuple(
                    rng.choice([i for i in range(-n + 1, n) if i])
                    for _ in range(rng.randrange(0, 8))
                ),
            )
            assert braid_is_identity(u * u.inv())

    def test_matches_artin_action_oracle(self):
        rng = random.Random(41)
        checked_nontrivial = 0
        for _ in range(150):
            n = rng.choice((2, 3, 4))
            letters = tuple(
                rng.choice([i for i in range(-n + 1, n) if i])
                for _ in range(rng.randrange(0, 9))
            )
            w = BraidWord(n, letters)
            expected = artin_trivial(w)
            assert braid_is_identity(w) == expected, letters
            checked_nontrivial += not expected
        assert checked_nontrivial > 50  # the sample genuinely exercises both sides


class TestBraidEqual:
    def test_braid_relation_as_equality(self):
        assert braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))

    def test_distinct_generators_differ(self):
        assert not braid_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_strand_mismatch_rejected(self):
        with pytest.raises(ValueError):
            braid_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


class TestChainRelation:
    def test_chain_word_frozen(self):
        assert chain_word(3).letters == (1, 2, 3)
        assert chain_word(3).strands == 4
        assert chain_power(2).letters == (1, 2) * 3

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            chain_word(0)
        with pytest.raises(ValueError):
            chain_square_decomposition(0)

    def test_factor_count_and_shape(self):
        for k in (1, 2, 3, 4):
            factors = chain_square_decomposition(k)
            assert len(factors) == k * (k + 1) // 2
            for f in factors:
                conj = f.conjugator
                assert f.word().letters == (
                    tuple(-x for x in reversed(conj)) + (f.base, f.base) + conj
                )

    def test_factor_word_is_conjugated_square(self):
        f = ChainFactor(strands=4, base=1, conjugator=(2, 3))
        assert f.word().letters == (-3, -2, 1, 1, 2, 3)

    def test_product_equals_chain_power(self):
        for k in (1, 2, 3, 4):
            assert braid_equal(
                chain_power(k), decomposition_product(chain_square_decomposition(k))
            )

    def test_empty_decomposition_rejected(self):
        with pytest.raises(ValueError):
            decomposition_product([])
