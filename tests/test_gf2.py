"""Bit-packed GF(2) linear algebra, orthogonal group, stabilizer cases."""

import copy
import functools
import itertools
import math
import operator
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from crosscap_calc import gf2
from crosscap_calc.gf2 import (
    CASE_ALPHA1,
    CASE_ALPHA12,
    CASE_ALPHA_ALL,
    CapExceededError,
    F2Matrix,
    STABILIZER_CASES,
    enumerate_o2,
    generate_group,
    is_orthogonal,
    o2_order,
    stabilizer_case_check,
    standard_twist_generators,
    twist_transvection,
    word_table,
)

# orders of the orthogonal groups, frozen from the frame enumeration
O2_ORDERS = {3: 6, 4: 48, 5: 720, 6: 23040}


def permutation_matrices(g):
    return frozenset(
        F2Matrix.from_columns(g, [1 << p[i] for i in range(g)])
        for p in itertools.permutations(range(g))
    )


def reference_closure(g, gens):
    """Breadth-first closure: every element times every generator."""
    gens = sorted(set(gens))
    seen = {F2Matrix.identity(g)}
    frontier = sorted(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in gens:
                c = a * b
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = sorted(new)
    return frozenset(seen)


def columns_orthonormal(g, rows):
    """M^T M = I on row bitmasks: row j of M^T M is the XOR of the rows
    of M whose bit j is set."""
    for j in range(g):
        acc = 0
        for r in rows:
            if r >> j & 1:
                acc ^= r
        if acc != 1 << j:
            return False
    return True


def count_products(monkeypatch):
    """Count every product; returns the live counter.

    Every product is read from a row span: one at a time through
    ``_RowSpan.left`` (``F2Matrix.__mul__``, the closure's coset
    representatives), or in bulk through
    ``_RowSpan.left_all`` (the coset fill of ``generate_group`` and the
    levels of ``word_table``), which counts one per output matrix.
    """
    calls = [0]
    left, left_all = gf2._RowSpan.left, gf2._RowSpan.left_all

    def counting(self, a):
        calls[0] += 1
        return left(self, a)

    def counting_all(self, columns):
        products = left_all(self, columns)
        calls[0] += len(products)
        return products

    monkeypatch.setattr(gf2._RowSpan, "left", counting)
    monkeypatch.setattr(gf2._RowSpan, "left_all", counting_all)
    return calls


def reference_product(a_rows, b_rows):
    """Rows of A B by definition: entry (i, j) is row i of A dotted with
    column j of B."""
    cols = [
        sum((r >> j & 1) << k for k, r in enumerate(b_rows)) for j in range(len(b_rows))
    ]
    return tuple(
        sum(((r & col).bit_count() & 1) << j for j, col in enumerate(cols))
        for r in a_rows
    )


def reference_word_table(g, gens):
    """Breadth-first words over the reference product, keyed by rows:
    parents in discovery order, generators in sorted label order."""
    items = sorted(gens.items())
    start = F2Matrix.identity(g).rows
    table = {start: ()}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for label, b in items:
                c = reference_product(a, b.rows)
                if c not in table:
                    table[c] = table[a] + (label,)
                    new.append(c)
        frontier = new
    return table


#: each stabilizer case's class vector, kept apart from ``gf2._CASES``
CASE_VECTORS = {
    CASE_ALPHA1: lambda g: 0b1,
    CASE_ALPHA12: lambda g: 0b11,
    CASE_ALPHA_ALL: lambda g: (1 << g) - 1,
}

#: (stabilizer order, order of the permitted twists' closure) per genus
#: and case, frozen from the frame enumeration and the coset closure; the
#: alpha12 closure is the block-diagonal part, |O(2)| |O(g - 2)|
STABILIZER_ORDERS = {
    3: {CASE_ALPHA1: (2, 2), CASE_ALPHA12: (2, 2), CASE_ALPHA_ALL: (6, 6)},
    4: {CASE_ALPHA1: (6, 6), CASE_ALPHA12: (8, 4), CASE_ALPHA_ALL: (48, 48)},
    5: {CASE_ALPHA1: (48, 48), CASE_ALPHA12: (48, 12), CASE_ALPHA_ALL: (720, 720)},
    6: {CASE_ALPHA1: (720, 720), CASE_ALPHA12: (768, 96), CASE_ALPHA_ALL: (23_040, 23_040)},
}


@st.composite
def row_tuple_pairs(draw):
    g = draw(st.integers(1, 10))
    rows = st.tuples(*[st.integers(0, (1 << g) - 1)] * g)
    return g, draw(rows), draw(rows)


@st.composite
def matrix_lists(draw):
    """A genus, 0..20 matrices of that size and one more to multiply by."""
    g = draw(st.integers(1, 10))
    matrix = st.builds(
        lambda rows: F2Matrix(g, rows), st.tuples(*[st.integers(0, (1 << g) - 1)] * g)
    )
    return g, draw(st.lists(matrix, max_size=20)), draw(matrix)


class TestF2Matrix:
    def test_identity_and_columns(self):
        m = F2Matrix.identity(4)
        assert m.is_identity()
        assert m.apply(0b10) == 0b10

    def test_from_columns_transpose_round_trip(self):
        cols = [0b011, 0b101, 0b110]
        m = F2Matrix.from_columns(3, cols)
        # column j is the image of the j-th unit vector
        assert [m.apply(1 << j) for j in range(3)] == cols
        assert m.transpose().transpose() == m

    def test_multiplication_matches_apply(self):
        rng = random.Random(5)
        for _ in range(20):
            g = rng.choice((3, 4, 5))
            a = twist_transvection(g, (1, 2))
            b = twist_transvection(g, tuple(sorted(rng.sample(range(1, g + 1), 2))))
            v = rng.randrange(1 << g)
            assert (a * b).apply(v) == a.apply(b.apply(v))

    @given(row_tuple_pairs())
    def test_span_products_match_reference(self, pair):
        g, a, b = pair
        expected = reference_product(a, b)
        span = gf2._RowSpan(b)
        assert span.left(F2Matrix(g, a)).rows == expected
        # the span holds the rows the product used and nothing more
        assert set(span) == set(a)
        # a second read comes from the filled dict and agrees
        assert span.left(F2Matrix(g, a)).rows == expected
        assert (F2Matrix(g, a) * F2Matrix(g, b)).rows == expected

    @given(matrix_lists())
    def test_bulk_products_match_one_at_a_time(self, drawn):
        g, mats, m = drawn
        span = gf2._RowSpan(m.rows)
        assert span.left_all(gf2._row_columns(mats)) == [a * m for a in mats]
        # the span holds the rows the products used and nothing more
        assert set(span) == {r for a in mats for r in a.rows}

    def test_every_product_is_counted(self, monkeypatch):
        calls = count_products(monkeypatch)
        a, b = twist_transvection(4, (1, 2)), twist_transvection(4, (1, 2, 3, 4))
        a * b
        assert calls[0] == 1
        word_table(4, {(1, 2): a})
        # I a opens {I, a}; a a = I and the search ends
        assert calls[0] == 3


class TestF2MatrixTuple:
    def test_hash_equality_and_repr(self):
        # the matrix is the tuple of its rows: hashed and compared as that tuple
        m = twist_transvection(4, (1, 2))
        assert type(m.rows) is tuple and m.rows == (2, 1, 4, 8)
        assert m == F2Matrix(4, m.rows) == m.rows
        assert hash(m) == hash(m.rows)
        assert m.g == len(m) == 4
        assert repr(F2Matrix.identity(3)) == "F2Matrix(g=3, rows=(1, 2, 4))"
        assert pickle.loads(pickle.dumps(m)) == m and copy.copy(m) == m

    def test_order_within_a_genus_is_by_rows(self):
        a = F2Matrix(3, (1, 2, 4))
        b = F2Matrix(3, (2, 1, 4))
        c = F2Matrix(3, (2, 4, 1))
        assert sorted([c, b, a]) == [a, b, c]
        assert sorted(enumerate_o2(3))[0].rows == (1, 2, 4)

    def test_elements_are_one_flat_tuple(self):
        for m in enumerate_o2(5):
            assert type(m) is F2Matrix and len(m) == 5
            assert all(type(r) is int for r in m)

    def test_o2_enumeration_memory(self):
        # one tuple of 6 rows per element; the (g, rows) pair it replaced
        # held 5,682 KiB here
        tracemalloc.start()
        try:
            group = enumerate_o2.__wrapped__(6)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(group) == O2_ORDERS[6]
        assert held < 5000 * 1024

    def test_rows_are_validated_and_stored_as_a_tuple(self):
        with pytest.raises(TypeError, match="^non-integer row 1.0$"):
            F2Matrix(3, (1.0, 2, 4))
        m = F2Matrix(3, [1, 2, 4])
        assert type(m.rows) is tuple and hash(m) == hash(F2Matrix.identity(3))
        assert F2Matrix(3, iter((1, 2, 4))) == m == F2Matrix.identity(3)

    def test_constructor_error_texts(self):
        with pytest.raises(ValueError, match="^row count must equal g$"):
            F2Matrix(3, (1, 2))
        with pytest.raises(ValueError, match="^row out of range$"):
            F2Matrix(3, (1, 2, 8))
        with pytest.raises(ValueError, match="^row out of range$"):
            F2Matrix(3, (1, -1, 4))
        with pytest.raises(ValueError, match="^size mismatch$"):
            F2Matrix.identity(3) * F2Matrix.identity(4)

    def test_products_and_frames_skip_validation(self, monkeypatch):
        a, b = twist_transvection(5, (1, 2)), twist_transvection(5, (2, 3, 4, 5))
        built = []
        new = F2Matrix.__new__

        def counting(cls, g, rows):
            built.append(rows)
            return new(cls, g, rows)

        monkeypatch.setattr(F2Matrix, "__new__", staticmethod(counting))
        product = a * b
        frames = enumerate_o2.__wrapped__(4)
        bulk = gf2._RowSpan(b.rows).left_all(gf2._row_columns([a, b, product]))
        assert not product.is_identity() and (a * a).is_identity()
        assert built == []
        assert F2Matrix(5, product.rows) == product  # the patch is live
        assert built == [product.rows]
        monkeypatch.undo()
        assert frames == enumerate_o2(4)
        assert all(type(m) is F2Matrix for m in frames) and type(product) is F2Matrix
        assert bulk == [a * b, b * b, product * b]
        assert all(type(m) is F2Matrix for m in bulk)


class TestTransvections:
    def test_rejects_odd_subsets(self):
        with pytest.raises(ValueError):
            twist_transvection(4, (1, 2, 3))
        with pytest.raises(ValueError):
            twist_transvection(4, ())

    def test_fixes_its_own_vector_and_orthogonal_complement(self):
        g = 5
        sub = (2, 4)
        t = twist_transvection(g, sub)
        v = 0b01010  # the indicator vector of {2, 4}
        assert t.apply(v) == v
        for x in range(1 << g):
            expected = x ^ v if (x & v).bit_count() & 1 else x
            assert t.apply(x) == expected

    def test_transvections_are_orthogonal_involutions(self):
        for sub in ((1, 2), (1, 3), (2, 3, 4, 5)):
            t = twist_transvection(5, sub)
            assert is_orthogonal(t)
            assert (t * t).is_identity()


class TestOrthogonalGroup:
    def test_enumeration_orders_frozen(self):
        for g, order in O2_ORDERS.items():
            assert len(enumerate_o2(g)) == order

    def test_enumeration_capped(self):
        with pytest.raises(CapExceededError):
            enumerate_o2(7)

    def test_small_genus_orders(self):
        # O(1) is {(1)}; O(2) is the identity and the swap
        assert enumerate_o2(1) == frozenset({F2Matrix.identity(1)})
        assert len(enumerate_o2(2)) == 2
        assert enumerate_o2(2) == permutation_matrices(2)

    @pytest.mark.parametrize("g", [0, -1])
    def test_nonpositive_genus_rejected(self, g):
        with pytest.raises(ValueError, match="needs g >= 1") as info:
            enumerate_o2(g)
        assert not isinstance(info.value, CapExceededError)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_odd_complements_match_direct_filter(self, g):
        odd = [v for v in range(1 << g) if v.bit_count() % 2 == 1]
        expected = {
            v: frozenset(w for w in odd if (w & v).bit_count() % 2 == 0) for v in odd
        }
        assert gf2._odd_complements(g) == expected

    @pytest.mark.parametrize("g", range(1, 7))
    def test_rows_sum_to_all_ones(self, g):
        # the lemma that lets the search read the last row
        ones = (1 << g) - 1
        for m in enumerate_o2(g):
            assert functools.reduce(operator.xor, m.rows) == ones

    @pytest.mark.parametrize("g", range(1, 7))
    def test_closed_form_order_matches_enumeration(self, g):
        assert o2_order(g) == len(enumerate_o2(g))

    def test_generation_matches_enumeration(self):
        for g in (3, 4, 5):
            gens = standard_twist_generators(g)
            assert generate_group(g, gens.values()) == enumerate_o2(g)

    def test_genus3_is_symmetric_group(self):
        assert enumerate_o2(3) == permutation_matrices(3)

    def test_every_element_orthogonal(self):
        for m in enumerate_o2(4):
            assert is_orthogonal(m)
            assert (m * m.transpose()).is_identity()

    def test_empty_generators_give_trivial_group(self):
        assert generate_group(4, []) == frozenset({F2Matrix.identity(4)})

    @pytest.mark.parametrize("g", [5, 6])
    def test_enumeration_is_exactly_the_group_past_brute_force(self, g):
        # the set holds distinct members of O(g), tested here by M^T M = I
        # and not by the search, and as many as |O(g)| has: so it is O(g)
        group = enumerate_o2(g)
        for m in group:
            assert type(m) is F2Matrix and F2Matrix(g, m) == m
            assert columns_orthonormal(g, m)
        assert len(group) == O2_ORDERS[g] == o2_order(g)

    @pytest.mark.parametrize("g", range(1, 8))
    def test_increasing_frames_count_past_the_cap(self, g):
        # one frame per g! row orders, one genus past the cap, where
        # enumerate_o2 builds no group
        frames = gf2._increasing_frames(g)
        assert len(frames) == o2_order(g) // math.factorial(g)
        for rows in frames:
            assert len(rows) == g and all(a < b for a, b in itertools.pairwise(rows))
            assert columns_orthonormal(g, rows)
        if g > gf2.ENUMERATION_CAP:
            with pytest.raises(CapExceededError):
                enumerate_o2(g)
        else:
            assert len(enumerate_o2(g)) == len(frames) * math.factorial(g)

    @pytest.mark.parametrize("g", [3, 4])
    def test_enumeration_matches_brute_force(self, g):
        # every g x g matrix over F2, kept when its columns are orthonormal
        brute = frozenset(
            F2Matrix(g, rows)
            for rows in itertools.product(range(1 << g), repeat=g)
            if columns_orthonormal(g, rows)
        )
        assert len(brute) == O2_ORDERS[g]
        assert brute == enumerate_o2(g)


class TestClosure:
    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_matches_reference_closure_on_seeded_subsets(self, g):
        rng = random.Random(g)
        pool = list(standard_twist_generators(g).values())
        identity = F2Matrix.identity(g)
        for _ in range(25):
            gens = rng.sample(pool, rng.randrange(len(pool) + 1))
            # duplicates and the identity must change nothing
            gens += rng.sample(gens, min(2, len(gens)))
            if rng.randrange(2):
                gens.append(identity)
            rng.shuffle(gens)
            assert generate_group(g, gens) == reference_closure(g, gens), gens

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_edge_generating_sets(self, g):
        identity = F2Matrix.identity(g)
        t = twist_transvection(g, (1, 2))
        assert generate_group(g, [identity, identity]) == frozenset({identity})
        assert generate_group(g, [t]) == frozenset({identity, t})
        assert generate_group(g, [t, t, identity]) == frozenset({identity, t})

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_transpositions_give_permutation_matrices(self, g):
        gens = standard_twist_generators(g, sizes=(2,))
        group = generate_group(g, gens.values())
        assert len(group) == math.factorial(g)
        assert group == permutation_matrices(g)

    @pytest.mark.parametrize("other", [3, 5])
    def test_wrong_size_generator_rejected(self, other):
        good = twist_transvection(4, (1, 2))
        bad = twist_transvection(other, (1, 2))
        for gens in ([bad], [good, bad], [bad, good]):
            with pytest.raises(ValueError, match="^size mismatch$"):
                generate_group(4, gens)

    def test_non_orthogonal_generator_rejected(self):
        shear = F2Matrix(3, (0b011, 0b010, 0b100))  # invertible, not orthogonal
        assert not is_orthogonal(shear)
        with pytest.raises(ValueError, match="not orthogonal"):
            generate_group(3, [twist_transvection(3, (1, 2)), shear])

    def test_wrong_product_raises_instead_of_growing(self, monkeypatch):
        # coset fills with their row columns rotated: the fills miss their
        # representatives, so without the bound the closure never ends
        left_all = gf2._RowSpan.left_all
        monkeypatch.setattr(
            gf2._RowSpan, "left_all", lambda span, cols: left_all(span, cols[1:] + cols[:1])
        )
        with pytest.raises(ArithmeticError, match=r"\|O\(4, F2\)\| / \|H\| cosets"):
            generate_group(4, standard_twist_generators(4).values())

    def test_products_close_to_group_order(self, monkeypatch):
        # breadth-first closure takes |O(6)| * 30 = 691,200 products here
        gens = standard_twist_generators(6).values()
        calls = count_products(monkeypatch)
        group = generate_group(6, gens)
        assert len(group) == O2_ORDERS[6]
        assert calls[0] <= 25_000

    def test_contained_generators_cost_only_their_check(self, monkeypatch):
        g = 5
        gens = sorted(set(standard_twist_generators(g).values()))
        full = next(
            k for k in range(1, len(gens) + 1)
            if len(generate_group(g, gens[:k])) == O2_ORDERS[g]
        )
        assert full < len(gens)
        calls = count_products(monkeypatch)
        generate_group(g, gens[:full])
        base = calls[0]
        calls[0] = 0
        # the identity and every generator past `full` are already in the
        # group when reached: one orthogonality product each, nothing more
        generate_group(g, gens + [F2Matrix.identity(g)])
        assert calls[0] == base + len(gens) - full + 1


class TestWordTable:
    def test_identity_gets_empty_word(self):
        gens = standard_twist_generators(3, sizes=(2,))
        table = word_table(3, gens)
        assert table[F2Matrix.identity(3)] == ()

    def test_words_remultiply(self):
        gens = standard_twist_generators(4)
        table = word_table(4, gens)
        assert len(table) == O2_ORDERS[4]
        identity = F2Matrix.identity(4)
        for target, w in table.items():
            assert functools.reduce(operator.mul, (gens[s] for s in w), identity) == target

    def test_words_are_shortest_by_independent_bfs(self):
        gens = standard_twist_generators(3, sizes=(2,))
        table = word_table(3, gens)
        # plain BFS distance map, no word bookkeeping
        dist = {F2Matrix.identity(3): 0}
        frontier = [F2Matrix.identity(3)]
        while frontier:
            new = []
            for a in frontier:
                for m in gens.values():
                    b = a * m
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        new.append(b)
            frontier = new
        assert set(table) == set(dist)
        for target, w in table.items():
            assert len(w) == dist[target]


    @pytest.mark.parametrize("other", [3, 5])
    def test_wrong_size_generator_rejected(self, other):
        gens = standard_twist_generators(4)
        gens[(1, 2)] = twist_transvection(other, (1, 2))
        with pytest.raises(ValueError, match="^size mismatch$"):
            word_table(4, gens)

    @pytest.mark.parametrize("g", [3, 4, 5])
    @pytest.mark.parametrize("case", STABILIZER_CASES)
    def test_stabilizer_tables_match_reference_bfs(self, g, case):
        _, permitted = gf2._CASES[case]
        gens = {s: m for s, m in standard_twist_generators(g).items() if permitted(s)}
        table = word_table(g, gens)
        got = [(m.rows, w) for m, w in table.items()]
        assert got == list(reference_word_table(g, gens).items())


class TestStabilizerCases:
    def test_all_cases_exhaustive_small(self):
        for g in (3, 4):
            for case in STABILIZER_CASES:
                rep = stabilizer_case_check(g, case)
                assert rep.ok, (g, case, rep.failures[:3])

    def test_sampled_genus5(self):
        for case in STABILIZER_CASES:
            rep = stabilizer_case_check(5, case, sample_count=60, seed=1)
            assert rep.ok, (case, rep.failures[:3])

    @pytest.mark.parametrize("g", sorted(STABILIZER_ORDERS))
    def test_exhaustive_reports_pin_both_orders(self, g):
        # up to the library cap, every element of every stabilizer checked
        for case, (order, closure) in STABILIZER_ORDERS[g].items():
            rep = stabilizer_case_check(g, case)
            assert rep.ok, (case, rep.failures[:3])
            assert rep.details == (
                f"stabilizer order {order}, closure order {closure}, elements checked {order}",
            )

    def test_stabilizer_orders_frozen(self):
        # independent of the check: count fixed points of the case vectors
        for g, orders in STABILIZER_ORDERS.items():
            for case, (order, _) in orders.items():
                v = CASE_VECTORS[case](g)
                stab = [a for a in enumerate_o2(g) if a.apply(v) == v]
                assert len(stab) == order, (g, case)

    @pytest.mark.parametrize("g", [3, 4, 5])
    @pytest.mark.parametrize("case, corrected", [
        (CASE_ALPHA1, True),
        (CASE_ALPHA12, True),
        (CASE_ALPHA12, False),
        (CASE_ALPHA_ALL, True),
    ])
    def test_element_verdicts_match_the_reference_word_table(
        self, monkeypatch, g, case, corrected
    ):
        # the oracle is a word-table BFS over the reference product: an
        # element passes iff its target has a word over the permitted twists
        _, permitted = gf2._CASES[case]
        gens = {s: m for s, m in standard_twist_generators(g).items() if permitted(s)}
        table = reference_word_table(g, gens)
        assert {m.rows for m in generate_group(g, gens.values())} == set(table)

        def target(a):
            if case != CASE_ALPHA12 or not corrected:
                return a.rows
            c1 = a.apply(0b1)
            t0 = twist_transvection(g, (1, 2, *(i + 1 for i in range(2, g) if c1 >> i & 1)))
            return reference_product(t0.rows, a.rows)

        if not corrected:
            monkeypatch.setattr(gf2, "_alpha12_correction", lambda g, a: F2Matrix.identity(g))
        v = CASE_VECTORS[case](g)
        stab = sorted(a for a in enumerate_o2(g) if a.apply(v) == v)
        rep = stabilizer_case_check(g, case)
        assert rep.failures == tuple(
            f"element rows={a.rows}: not in the closure" for a in stab if target(a) not in table
        )
        assert rep.passed == len(gens) + 1 + len(stab) - rep.failed

    @pytest.mark.parametrize("case, foreign", [
        (CASE_ALPHA1, "mover"),
        (CASE_ALPHA12, "mover"),
        (CASE_ALPHA1, "non-orthogonal"),
        (CASE_ALPHA12, "non-orthogonal"),
        (CASE_ALPHA_ALL, "non-orthogonal"),
    ])
    def test_a_foreign_closure_element_fails_only_the_containment_record(
        self, monkeypatch, case, foreign
    ):
        # what a wrong product in the closure would add: an orthogonal
        # element that moves the class, or a matrix outside O(4, F2)
        g = 4
        v = CASE_VECTORS[case](g)
        if foreign == "mover":
            extra = min(a for a in enumerate_o2(g) if a.apply(v) != v)
        else:
            extra = F2Matrix(g, (0b11, 0b10, 0b100, 0b1000))
            assert not is_orthogonal(extra)
        original = gf2.generate_group
        monkeypatch.setattr(gf2, "generate_group", lambda g, gens: original(g, gens) | {extra})
        rep = stabilizer_case_check(g, case)
        assert rep.failures == ("the permitted twists' closure leaves the stabilizer",)

    @pytest.mark.parametrize("case", [CASE_ALPHA1, CASE_ALPHA_ALL])
    def test_a_missing_closure_element_fails_its_element_only(self, monkeypatch, case):
        # drop one stabilizer element from the closure
        g = 4
        v = CASE_VECTORS[case](g)
        victim = sorted(a for a in enumerate_o2(g) if a.apply(v) == v)[1]
        original = gf2.generate_group
        monkeypatch.setattr(gf2, "generate_group", lambda g, gens: original(g, gens) - {victim})
        rep = stabilizer_case_check(g, case)
        assert rep.failures == (f"element rows={victim.rows}: not in the closure",)

    def test_a_widened_rule_fails_alpha1_and_alpha12(self, monkeypatch):
        # every transvection permitted: the closure is all of O(4, F2), so
        # every element lies in it; the generator records catch the
        # generators that move the class, and the containment record the
        # closure that leaves the stabilizer
        widened = {case: (vector, lambda s: True) for case, (vector, _) in gf2._CASES.items()}
        monkeypatch.setattr(gf2, "_CASES", widened)
        movers = {
            CASE_ALPHA1: [(1, 2), (1, 2, 3, 4), (1, 3), (1, 4)],
            CASE_ALPHA12: [(1, 3), (1, 4), (2, 3), (2, 4)],
        }
        for case, subsets in movers.items():
            rep = stabilizer_case_check(4, case)
            assert rep.failures == (
                *(f"generator {s} moves the class" for s in subsets),
                "the permitted twists' closure leaves the stabilizer",
            )
        assert stabilizer_case_check(4, CASE_ALPHA_ALL).ok

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_alpha12_correction_lemma(self, g):
        # for every A fixing e1 + e2: A e1 meets {1, 2} once and 3..g
        # evenly, and T0 A permutes {e1, e2} and is block diagonal
        stab = [a for a in enumerate_o2(g) if a.apply(0b11) == 0b11]
        assert len(stab) == {3: 2, 4: 8, 5: 48, 6: 768}[g]
        for a in stab:
            c1 = a.apply(0b1)
            assert (c1 & 0b11).bit_count() == 1
            assert (c1 >> 2).bit_count() % 2 == 0
            high = tuple(i + 1 for i in range(2, g) if c1 >> i & 1)
            t0 = gf2._alpha12_correction(g, a)
            assert t0 == twist_transvection(g, (1, 2, *high))
            b = t0 * a
            assert {b.apply(0b1), b.apply(0b10)} == {0b1, 0b10}
            assert all(row >> 2 == 0 for row in b[:2])
            assert all(row & 0b11 == 0 for row in b[2:])

    def test_an_identity_correction_fails_alpha12(self, monkeypatch):
        # no block-shape check stands before the closure: membership alone
        # must catch every element that does not permute {e1, e2}
        g = 4
        monkeypatch.setattr(gf2, "_alpha12_correction", lambda g, a: F2Matrix.identity(g))
        stab = sorted(a for a in enumerate_o2(g) if a.apply(0b11) == 0b11)
        unblocked = [a for a in stab if {a.apply(0b1), a.apply(0b10)} != {0b1, 0b10}]
        assert len(unblocked) == 4
        rep = stabilizer_case_check(g, CASE_ALPHA12)
        assert rep.failures == tuple(f"element rows={a.rows}: not in the closure" for a in unblocked)

    @pytest.mark.parametrize("case", STABILIZER_CASES)
    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_sample_rejected(self, case, count):
        # a sample of no elements would check nothing and still read ok
        with pytest.raises(ValueError, match="sample_count must be at least 1"):
            stabilizer_case_check(4, case, sample_count=count)
        assert stabilizer_case_check(4, case, sample_count=1).passed >= 1

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            stabilizer_case_check(4, "alpha99")

    def test_capped_genus(self):
        # the one limit is the frame enumeration's
        with pytest.raises(CapExceededError, match="capped at g <= 6, got 7"):
            stabilizer_case_check(7, CASE_ALPHA1)

    def test_report_carries_scale_caveat(self):
        rep = stabilizer_case_check(3, CASE_ALPHA1)
        assert rep.caveats


class TestCurveClassOrbits:
    """The abstract's last sentence, mod 2: the twist transvections split
    the nonzero classes into the three orbits the stabilizer cases name,
    and each orbit is O(g, F2) over its stabilizer."""

    @staticmethod
    def orbits(g):
        gens = standard_twist_generators(g).values()
        unseen = set(range(1, 1 << g))
        orbits = []
        while unseen:
            frontier = [min(unseen)]
            orbit = set(frontier)
            while frontier:
                frontier = [w for v in frontier for m in gens if (w := m.apply(v)) not in orbit]
                orbit.update(frontier)
            unseen -= orbit
            orbits.append(orbit)
        return orbits

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_three_orbits_each_the_group_over_its_stabilizer(self, g):
        odd, even = g % 2, 1 - g % 2
        sizes = {
            CASE_ALPHA1: 2 ** (g - 1) - odd,
            CASE_ALPHA12: 2 ** (g - 1) - 1 - even,
            CASE_ALPHA_ALL: 1,
        }
        orbits = self.orbits(g)
        assert len(orbits) == len(STABILIZER_CASES)
        for case in STABILIZER_CASES:
            v = CASE_VECTORS[case](g)
            (orbit,) = [o for o in orbits if v in o]
            assert len(orbit) == sizes[case], (g, case)
            stab = sum(1 for a in enumerate_o2(g) if a.apply(v) == v)
            assert len(orbit) * stab == o2_order(g), (g, case)
