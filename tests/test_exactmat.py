"""Exact integer matrix layer: constructors, arithmetic, slide matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crosscap_calc import exactmat, fpres
from crosscap_calc.exactmat import (
    DimensionMismatchError,
    IndexRangeError,
    IntMatrix,
    NotUnimodularError,
    det,
    eval_word,
    genus,
    identity,
    is_level2,
    make_y,
    make_y_gi,
    mat_inv,
    mat_mul,
    y_matrix,
)

# slide matrices at genus 3, verified by hand from the defining rules
Y12 = ((-1, 2), (0, 1))
Y13 = ((-1, 0), (0, 1))
Y21 = ((1, 0), (2, -1))
Y23 = ((1, 0), (0, -1))
Y31 = ((-1, 0), (-2, 1))  # product (Y21 Y23) Y13
Y32 = ((1, -2), (0, -1))  # product (Y11 ... ) analogue for i=2


class TestGenusConfig:
    """A genus is a plain int, checked once by ``genus()``."""

    def test_accepts_three_and_up(self):
        assert genus(3) == 3
        assert genus(11) == 11

    @pytest.mark.parametrize("bad", [2, 1, 0, -4, 3.0, "3"])
    def test_rejects_small_or_non_integer(self, bad):
        with pytest.raises(ValueError, match=r"genus must be an integer >= 3, got "):
            genus(bad)

    def test_genus_coercion(self):
        # an int passes through unchanged; there is no wrapper to unwrap
        assert genus(5) == 5
        with pytest.raises(ValueError):
            genus(2)


class TestIntMatrix:
    def test_identity(self):
        assert identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2, 3), (4, 5, 6)))

    def test_mat_mul_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mat_mul(identity(2), identity(3))

    def test_mul_frozen_product(self):
        got = IntMatrix(Y12) * IntMatrix(Y21)
        assert got.rows == ((3, -2), (2, -1))

    def test_public_construction_validates(self):
        with pytest.raises(ValueError, match="empty matrix"):
            IntMatrix(())
        with pytest.raises(ValueError, match="matrix must be square"):
            IntMatrix(((1, 0), (0,)))
        with pytest.raises(TypeError, match=r"non-integer entry 1\.0"):
            IntMatrix(((1.0, 0), (0, 1)))

    @pytest.mark.parametrize("rows", [
        [[1, 0], [0, 1]],
        ([1, 0], [0, 1]),
        [(1, 0), (0, 1)],
        ((1, 0), [0, 1]),
    ], ids=["lists", "tuple-of-lists", "list-of-tuples", "one-list-row"])
    def test_rejects_rows_that_are_not_tuples(self, rows):
        # accepted, such a matrix compared unequal to identity(2), could not
        # be hashed and stayed mutable
        with pytest.raises(TypeError, match="must be a tuple, got list"):
            IntMatrix(rows)

    def test_products_and_words_skip_validation(self, monkeypatch):
        # results built from validated matrices are square and integral by
        # construction: neither path may run the validating constructor
        g = 5
        w = [(p, 1) for p in slide_pairs(g)] * 2
        expected = oracle_fold(g, w)  # also warms the slide caches
        a, b = make_y(g, 1, 2), make_y_gi(g, 3)
        runs = []
        monkeypatch.setattr(IntMatrix, "__post_init__", lambda self: runs.append(self))
        got = eval_word(g, w)
        product = mat_mul(a, b)
        assert runs == []
        IntMatrix(((1,),))  # the patch is live
        assert len(runs) == 1
        monkeypatch.undo()
        assert got == expected and hash(got) == hash(IntMatrix(expected.rows))
        assert product == IntMatrix(product.rows)
        assert type(got) is IntMatrix and type(product) is IntMatrix


class TestDeterminantAndInverse:
    def test_det_small_frozen(self):
        assert det(identity(4)) == 1
        assert det(IntMatrix(Y12)) == -1
        assert det(IntMatrix(((2, 0), (0, 3)))) == 6

    def test_det_matches_permutation_expansion(self):
        # independent oracle: Leibniz expansion over permutations
        import itertools

        rng = random.Random(7)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            rows = tuple(
                tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(n)
            )
            expected = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= rows[i][perm[i]]
                expected += term
            assert det(IntMatrix(rows)) == expected

    def test_inverse_of_unimodular_products(self):
        rng = random.Random(11)
        gens = [IntMatrix(Y12), IntMatrix(Y21), IntMatrix(Y23), IntMatrix(Y13)]
        for _ in range(20):
            m = identity(2)
            for _ in range(rng.randrange(1, 7)):
                m = m * rng.choice(gens)
            assert m * mat_inv(m) == identity(2)
            assert mat_inv(m) * m == identity(2)

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            mat_inv(IntMatrix(((2, 0), (0, 1))))
        with pytest.raises(NotUnimodularError):
            mat_inv(IntMatrix(((0, 0), (0, 0))))


def ref_is_level2(rows):
    """Per-entry reference: every entry congruent to I's mod 2."""
    return all(
        (x - int(i == j)) % 2 == 0
        for i, row in enumerate(rows)
        for j, x in enumerate(row)
    )


def ref_updates(rows):
    """Per-entry reference: each column's nonzero entries, for every
    column other than I's."""
    return tuple(
        (c, terms)
        for c, col in enumerate(zip(*rows))
        if (terms := tuple((r, x) for r, x in enumerate(col) if x)) != ((c, 1),)
    )


@st.composite
def near_level2_rows(draw):
    """Square rows of size 1..5 near the level-2 group: I plus even
    offsets, up to two entries of the other parity, and entries 0 and 1
    sometimes drawn as ``bool``."""
    n = draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    odd = draw(st.sets(cell, max_size=2))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = int(i == j) + 2 * draw(st.integers(-3, 3)) + ((i, j) in odd)
            if x in (0, 1) and draw(st.booleans()):
                x = bool(x)
            row.append(x)
        rows.append(tuple(row))
    return tuple(rows)


class TestRowKernels:
    """The row-at-a-time kernels agree with per-entry references."""

    @given(near_level2_rows())
    def test_is_level2_matches_the_entry_reference(self, rows):
        assert is_level2(IntMatrix(rows)) == ref_is_level2(rows)

    @given(near_level2_rows())
    def test_updates_match_the_entry_reference(self, rows):
        assert exactmat._updates(IntMatrix(rows)) == ref_updates(rows)

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(
            st.one_of(
                st.integers(-3, 3), st.booleans(),
                st.sampled_from([1.0, -0.5, "1", None, Fraction(1), 2j]),
            ),
            min_size=n, max_size=n,
        ),
        min_size=n, max_size=n,
    )))
    def test_validation_names_the_first_bad_entry(self, rows):
        rows = tuple(map(tuple, rows))
        bad = [x for row in rows for x in row if not isinstance(x, int)]
        if not bad:
            assert IntMatrix(rows).rows == rows
            return
        with pytest.raises(TypeError) as info:
            IntMatrix(rows)
        assert str(info.value) == f"non-integer entry {bad[0]!r}"


class TestLevelTwo:
    def test_identity_is_level2(self):
        assert is_level2(identity(5))

    def test_slides_are_level2(self):
        for m in (Y12, Y13, Y21, Y23, Y31, Y32):
            assert is_level2(IntMatrix(m))

    def test_odd_offdiagonal_is_not(self):
        assert not is_level2(IntMatrix(((1, 1), (0, 1))))
        assert not is_level2(IntMatrix(((2, 0), (0, 1))))


class TestSlideMatrices:
    def test_genus3_frozen_values(self):
        assert make_y(3, 1, 2).rows == Y12
        assert make_y(3, 1, 3).rows == Y13
        assert make_y(3, 2, 1).rows == Y21
        assert make_y(3, 2, 3).rows == Y23

    def test_genus4_diagonal_flip(self):
        assert make_y(4, 2, 4).rows == ((1, 0, 0), (0, -1, 0), (0, 0, 1))

    def test_entry_rules_generic(self):
        m = make_y(6, 2, 4)
        assert m.rows[1][1] == -1
        assert m.rows[1][3] == 2
        for i in range(1, 6):
            for j in range(1, 6):
                if (i, j) not in ((2, 2), (2, 4)):
                    assert m.rows[i - 1][j - 1] == (1 if i == j else 0)

    @pytest.mark.parametrize("g", [3, 7, 12])
    def test_slides_share_the_identity_rows(self, g):
        # Y[i, j] differs from I only in row i; every other row is I's own
        irows = identity(g - 1).rows
        for i, j in slide_pairs(g):
            if i == g:
                continue
            rows = make_y(g, i, j).rows
            for k in range(g - 1):
                assert (rows[k] is irows[k]) == (k != i - 1), (i, j, k)

    def test_index_validation(self):
        with pytest.raises(IndexRangeError):
            make_y(3, 3, 1)  # first index must stay below g
        with pytest.raises(IndexRangeError):
            make_y(3, 1, 4)
        with pytest.raises(IndexRangeError):
            make_y(3, 2, 2)

    def test_back_slide_product_equals_closed_form(self):
        # make_y_gi internally recomputes both and raises on mismatch,
        # so constructing it for a row of genera is itself the check
        for g in range(3, 9):
            for i in range(1, g):
                m = make_y_gi(g, i)
                assert m.rows[i - 1][i - 1] == -1
                for r in range(1, g):
                    if r != i:
                        assert m.rows[r - 1][i - 1] == -2
                assert is_level2(m)

    def test_back_slide_cross_check_can_fail(self, monkeypatch):
        # one factor of the defining product of Y[4, 1] replaced by another
        # level-2 involution: the product, now run by eval_word, must
        # disagree with the closed form
        caches = (make_y, make_y_gi, exactmat._column_update)
        real = make_y

        def wrong_factor(g, i, j):
            return real(g, 2, 3) if (g, i, j) == (4, 2, 1) else real(g, i, j)

        for c in caches:
            c.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(exactmat, "make_y", wrong_factor)
                with pytest.raises(ArithmeticError, match="closed form disagrees"):
                    make_y_gi(4, 1)
        finally:
            for c in caches:
                c.cache_clear()
        assert make_y_gi(4, 1).rows[1][0] == -2

    def test_back_slide_costs_no_matrix_product(self, monkeypatch):
        # the defining product runs on eval_word and the involution check
        # squares by column updates: no mat_mul is left
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return mat_mul(a, b)

        for g in (3, 5, 8):
            for i in range(1, g):
                make_y_gi(g, i)  # warms the make_y factors
                make_y_gi.cache_clear()
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(exactmat, "mat_mul", counting)
                    make_y_gi(g, i)
                assert len(calls) == 0, (g, i)

    def test_back_slide_frozen_genus3(self):
        assert make_y_gi(3, 1).rows == Y31
        assert make_y_gi(3, 2).rows == Y32

    def test_y_matrix_dispatches_both_kinds(self):
        assert y_matrix(3, 1, 2) == make_y(3, 1, 2)
        assert y_matrix(3, 3, 1) == make_y_gi(3, 1)
        with pytest.raises(IndexRangeError):
            y_matrix(3, 3, 3)


def slide_pairs(g):
    """Every slide index pair at genus g, Y[g, i] and Y[i, g] included."""
    return [
        (i, j)
        for i in range(1, g + 1)
        for j in range(1, g + 1)
        if i != j and (i < g or j < g)
    ]


def oracle_fold(g, letters):
    """Reference evaluation: one mat_mul per letter, mat_inv for -1."""
    acc = identity(g - 1)
    for (i, j), exp in letters:
        m = y_matrix(g, i, j)
        acc = mat_mul(acc, m if exp == 1 else mat_inv(m))
    return acc


def covering_words(g, rng, extra=20):
    """Seeded words in which every slide occurs with both exponents,
    followed by ``extra`` uniformly random words."""
    letters = [(p, e) for p in slide_pairs(g) for e in (1, -1)]
    rng.shuffle(letters)
    words = [letters[k : k + 9] for k in range(0, len(letters), 9)]
    for _ in range(extra):
        words.append(
            [(rng.choice(slide_pairs(g)), rng.choice((1, -1))) for _ in range(rng.randrange(1, 16))]
        )
    return words


class TestEvalWord:
    def test_empty_word_is_identity(self):
        assert eval_word(3, []) == identity(2)

    def test_letters_compose_left_to_right(self):
        got = eval_word(3, [((1, 2), 1), ((2, 1), 1)])
        assert got == make_y(3, 1, 2) * make_y(3, 2, 1)
        assert got.rows == ((3, -2), (2, -1))

    def test_inverse_letters_cancel(self):
        w = [((1, 2), 1), ((2, 3), 1), ((2, 3), -1), ((1, 2), -1)]
        assert eval_word(4, w) == identity(3)

    def test_random_words_stay_in_group(self):
        rng = random.Random(3)
        for _ in range(30):
            g = rng.choice((3, 4, 5))
            pairs = [
                (i, j)
                for i in range(1, g + 1)
                for j in range(1, g + 1)
                if i != j and (i < g or j < g)
            ]
            w = [(rng.choice(pairs), rng.choice((1, -1))) for _ in range(8)]
            m = eval_word(g, w)
            assert det(m) in (1, -1)
            assert is_level2(m)

    def test_matches_mat_mul_mat_inv_fold(self):
        rng = random.Random(2012)
        for g in range(3, 9):
            for w in covering_words(g, rng):
                assert eval_word(g, w) == oracle_fold(g, w), (g, w)

    def test_inverse_letter_evaluates_as_the_slide(self):
        for g in (3, 5, 8):
            for p in slide_pairs(g):
                assert eval_word(g, [(p, -1)]) == y_matrix(g, *p)

    def test_no_inverse_or_product_on_the_path(self, monkeypatch):
        g = 6
        w = [(p, e) for p in slide_pairs(g) for e in (1, -1)]
        expected = oracle_fold(g, w)
        slides = {p: y_matrix(g, *p) for p in slide_pairs(g)}
        caches = (make_y, make_y_gi, exactmat._column_update)

        def forbidden(*_args):
            raise AssertionError("evaluation must not multiply or invert matrices")

        monkeypatch.setattr(exactmat, "mat_inv", forbidden)
        monkeypatch.setattr(exactmat, "mat_mul", forbidden)
        # cold caches: building and checking each slide is on the path too
        for c in caches:
            c.cache_clear()
        assert {p: y_matrix(g, *p) for p in slide_pairs(g)} == slides
        assert eval_word(g, w) == expected
        assert fpres.verify_commutation_lemma(g).ok

    def test_rejects_other_exponents(self):
        with pytest.raises(ValueError):
            eval_word(3, [((1, 2), 2)])

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(IndexRangeError):
            eval_word(3, [((1, 4), 1)])


class TestGroupElementCheck:
    def test_accepts_a_slide_and_returns_its_updates(self):
        m = make_y(4, 1, 2)
        assert exactmat._check_group_element(m, "Y[1,2]") == exactmat._updates(m)
        assert exactmat._column_update(4, 1, 2) == exactmat._updates(m)

    def test_updates_are_computed_once_per_slide(self, monkeypatch):
        # the involution check's updates are the ones words run on
        g = 6
        calls = []
        real = exactmat._updates
        caches = (make_y, make_y_gi, exactmat._column_update)
        for c in caches:
            c.cache_clear()
        try:
            monkeypatch.setattr(exactmat, "_updates", lambda m: calls.append(m) or real(m))
            w = [(p, 1) for p in slide_pairs(g)]
            assert eval_word(g, w) == oracle_fold(g, w)
            assert len(calls) == len(slide_pairs(g))
        finally:
            for c in caches:
                c.cache_clear()

    def test_a_non_involution_slide_is_refused_before_a_word_uses_it(self, monkeypatch):
        real = make_y
        shear = IntMatrix(((1, 2, 0), (0, 1, 0), (0, 0, 1)))

        def sheared(g, i, j):
            return shear if (g, i, j) == (4, 1, 2) else real(g, i, j)

        caches = (make_y, make_y_gi, exactmat._column_update)
        for c in caches:
            c.cache_clear()
        try:
            monkeypatch.setattr(exactmat, "make_y", sheared)
            assert eval_word(4, [((2, 1), 1)]) == real(4, 2, 1)
            with pytest.raises(ArithmeticError, match=r"Y\[1,2\] at g=4 is not an involution"):
                eval_word(4, [((2, 1), 1), ((1, 2), 1)])
        finally:
            for c in caches:
                c.cache_clear()

    def test_rejects_a_non_involution(self):
        # unimodular and level-2, but squares to [[1, 4], [0, 1]]
        m = IntMatrix(((1, 2), (0, 1)))
        assert det(m) == 1 and is_level2(m)
        with pytest.raises(ArithmeticError, match="involution"):
            exactmat._check_group_element(m, "shear")

    @pytest.mark.parametrize("g", [3, 12])
    def test_a_slide_with_one_wrong_entry_is_rejected(self, g):
        # an odd change anywhere breaks level 2; 1 -> 3 on a diagonal entry
        # of a shared row keeps level 2 but breaks the involution
        rng = random.Random(g)
        n = g - 1
        pairs = [(i, j) for i, j in slide_pairs(g) if i < g]
        for i, j in rng.sample(pairs, min(len(pairs), 6)):
            rows = make_y(g, i, j).rows
            cells = [(r, c) for r in range(n) for c in range(n)]
            for r, c in rng.sample(cells, min(len(cells), 12)):
                for delta, match in ((1, "mod 2"), (-1, "mod 2")):
                    bad = list(rows)
                    bad[r] = rows[r][:c] + (rows[r][c] + delta,) + rows[r][c + 1:]
                    with pytest.raises(ArithmeticError, match=match):
                        exactmat._check_group_element(IntMatrix(tuple(bad)), "bad")
            k = next(k for k in range(n) if k != i - 1)
            bad = list(rows)
            bad[k] = rows[k][:k] + (3,) + rows[k][k + 1:]
            with pytest.raises(ArithmeticError, match="involution"):
                exactmat._check_group_element(IntMatrix(tuple(bad)), "bad")

    def test_rejects_non_unimodular_and_non_level2(self):
        # level-2 but det 3: an involution has det +-1, so this one fails
        with pytest.raises(ArithmeticError, match="involution"):
            exactmat._check_group_element(IntMatrix(((3, 0), (0, 1))), "scale")
        with pytest.raises(ArithmeticError, match="mod 2"):
            exactmat._check_group_element(IntMatrix(((0, 1), (1, 0))), "swap")
