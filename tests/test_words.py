"""Free-group reduction, braid-word equality, and the chain relation.

Braid equality is cross-checked against an independent oracle: the
action of the braid group on the free group (x_i -> x_i x_{i+1} x_i^-1,
x_{i+1} -> x_i), computed here by substituting into ``FreeWord``s, so a
braid word is trivial exactly when its action fixes every free
generator.  Tests that share no method with the code rewrite words by
the braid relations, which must keep the braid, and compare invariants
the action does not read (permutation and exponent sum), which must
separate braids.
"""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from crosscap_calc import words
from crosscap_calc.words import (
    BraidWord,
    FreeWord,
    ChainFactor,
    braid_equal,
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


def is_trivial(w: BraidWord) -> bool:
    return braid_equal(w, BraidWord(w.strands, ()))


def permutation(w: BraidWord) -> list[int]:
    """Where each strand ends: s_i and s_i^-1 both swap strands i, i+1."""
    perm = list(range(w.strands))
    for x in w.letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in w.letters)


@st.composite
def braid_words(draw, strands=None):
    n = strands if strands is not None else draw(st.integers(2, 6))
    gens = [i for i in range(1 - n, n) if i]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=12))))


#: one rewrite: kind, position, generator (taken mod the strand count)
#: and sign
moves = st.tuples(
    st.sampled_from(("pair", "far", "braid")),
    st.integers(0, 40),
    st.integers(1, 6),
    st.sampled_from((1, -1)),
)


def rewrite(w: BraidWord, move) -> BraidWord:
    """``w`` changed by one move that keeps the braid.  ``pair`` inserts
    s s^-1; ``far`` swaps the first adjacent pair of letters on strands at
    least two apart, from the position on; ``braid`` turns the first
    s_i s_j s_i (|i - j| = 1, one sign) into s_j s_i s_j.  When no such
    letters are found, the relator the move would use is inserted."""
    kind, pos, gen, sign = move
    letters = list(w.letters)
    n = w.strands
    p = pos % (len(letters) + 1)
    i = (gen - 1) % (n - 1) + 1
    if kind == "pair":
        letters[p:p] = [sign * i, -sign * i]
        return BraidWord(n, tuple(letters))
    width = 2 if kind == "far" else 3
    for q in list(range(p, len(letters))) + list(range(p)):
        window = letters[q : q + width]
        if len(window) < width:
            continue
        x, y = window[0], window[1]
        if kind == "far" and abs(abs(x) - abs(y)) >= 2:
            letters[q : q + 2] = [y, x]
            return BraidWord(n, tuple(letters))
        if (
            kind == "braid"
            and window[2] == x
            and abs(abs(x) - abs(y)) == 1
            and x * y > 0
        ):
            letters[q : q + 3] = [y, x, y]
            return BraidWord(n, tuple(letters))
    if kind == "far" and n >= 4:
        j = i + 2 if i + 2 < n else i - 2
        if j >= 1:
            letters[p:p] = [sign * i, j, -sign * i, -j]
    elif kind == "braid" and n >= 3:
        j = i + 1 if i + 1 < n else i - 1
        x, y = sign * i, sign * j
        letters[p:p] = [x, y, x, -y, -x, -y]
    return BraidWord(n, tuple(letters))


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

    def test_bad_generator_name_is_named_in_the_error(self):
        with pytest.raises(ValueError, match="nonempty string, got ''"):
            FreeWord((("", 1),))
        with pytest.raises(ValueError, match="nonempty string, got 3"):
            FreeWord(((3, 1),))

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
        assert is_trivial(BraidWord(3, (1, 2, -2, -1)))

    def test_braid_relation(self):
        assert is_trivial(BraidWord(3, (1, 2, 1, -2, -1, -2)))

    def test_far_generators_commute(self):
        assert is_trivial(BraidWord(4, (1, 3, -1, -3)))

    def test_adjacent_generators_do_not_commute(self):
        assert not is_trivial(BraidWord(3, (1, 2, -1, -2)))

    def test_single_letters_nontrivial(self):
        assert not is_trivial(BraidWord(3, (1,)))
        assert not is_trivial(BraidWord(3, (-2,)))

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
            assert is_trivial(u * u.inv())

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
            assert is_trivial(w) == expected, letters
            checked_nontrivial += not expected
        assert checked_nontrivial > 50  # the sample genuinely exercises both sides

    def test_images_are_the_oracles_read_backwards(self):
        # the oracle substitutes each letter into the images so far, so it
        # composes in the opposite order: it reads the reversed word
        rng = random.Random(7)
        for _ in range(100):
            n = rng.choice((2, 3, 4, 5))
            letters = tuple(
                rng.choice([i for i in range(-n + 1, n) if i])
                for _ in range(rng.randrange(0, 9))
            )
            oracle = artin_action(BraidWord(n, letters[::-1]))
            assert words._artin_images(BraidWord(n, letters)) == [
                img.letters for img in oracle
            ], letters

    @given(braid_words(), st.lists(moves, max_size=12))
    def test_rewriting_by_the_relations_keeps_the_braid(self, w, steps):
        rewritten = w
        for step in steps:
            rewritten = rewrite(rewritten, step)
        assert braid_equal(w, rewritten)
        assert braid_equal(rewritten, w)

    @given(st.data())
    def test_different_invariants_mean_different_braids(self, data):
        u = data.draw(braid_words())
        v = data.draw(braid_words(strands=u.strands))
        assume(
            (permutation(u), exponent_sum(u)) != (permutation(v), exponent_sum(v))
        )
        assert not braid_equal(u, v)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_full_twist_squared_is_central(self, n):
        delta_squared = chain_power(n - 1)
        assert not is_trivial(delta_squared)
        for i in range(1, n):
            s = BraidWord(n, (i,))
            assert braid_equal(delta_squared * s, s * delta_squared)

    def test_commutator_of_adjacent_squares_is_nontrivial(self):
        # [s1^2, s2^2] is a pure braid with exponent sum 0, so neither
        # invariant separates it from the identity
        w = BraidWord(3, (1, 1, 2, 2, -1, -1, -2, -2))
        assert permutation(w) == [0, 1, 2]
        assert exponent_sum(w) == 0
        assert not is_trivial(w)


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
        for k in (*range(1, 13), 32):
            assert braid_equal(
                chain_power(k), decomposition_product(chain_square_decomposition(k))
            )

    def test_product_is_the_factor_words_in_order(self):
        factors = chain_square_decomposition(3)
        letters = sum((f.word().letters for f in factors), ())
        assert decomposition_product(factors) == BraidWord(4, letters)

    def test_product_rejects_mixed_strand_counts(self):
        factors = [ChainFactor(4, 1, ()), ChainFactor(3, 1, ())]
        with pytest.raises(ValueError, match="strand count mismatch"):
            decomposition_product(factors)

    def test_empty_decomposition_rejected(self):
        with pytest.raises(ValueError):
            decomposition_product([])
