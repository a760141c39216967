"""Exact integer matrices for the crosscap-slide action on homology.

For a closed non-orientable surface of genus ``g`` the crosscap slides
act on a rank ``g - 1`` summand of the first homology, and the image of
the action is the level-2 principal congruence subgroup of
``GL(g - 1, Z)``, i.e. the matrices congruent to the identity mod 2.
The generator ``Y[i, j]`` (slide the i-th crosscap along the loop
through crosscaps i and j) acts by

* negating basis class ``i``, and
* for ``j <= g - 1``, adding twice basis class ``i`` to class ``j``;
* for ``j == g`` only the negation survives (class ``g`` is not part of
  the chosen basis).

Matrices act on column vectors; column ``m`` holds the image of the
m-th basis class.  ``Y[g, i]`` is not an independent generator: it is
the product ``(Y[1,i] Y[1,g]) ... (Y[g-1,i] Y[g-1,g]) Y[i,g]`` (the
``k = i`` factor omitted), which collapses to a closed form with ``-1``
at ``(i, i)`` and ``-2`` down the rest of column ``i``.  That product is
written once, as the letters of ``gi_product``; ``fpres`` reads its
relator (5) and the quotient form bar-(5) from the same letters.
``make_y_gi`` computes both, the product through ``eval_word`` like any
other word, and refuses to answer if they disagree.

Words never invert: every slide is an involution (relator family (1)),
so ``eval_word`` reads an exponent of -1 as +1.  It right-multiplies by
a slide by rewriting only the at most two columns where the slide
differs from I.  Each slide's column updates are computed once, in
``_column_update``, by the check that squares the slide with them and
refuses anything but a level-2 involution, so no word uses an unchecked
slide.  All arithmetic is exact on Python ints; ``mat_mul`` and
``mat_inv`` (Gauss-Jordan over ``Fraction``) are on no evaluation path
and are kept as the oracles that tests compare against.

A cached slide ``make_y(g, i, j)`` differs from I only in row i, so it
holds one new row and shares every other row, as the same tuple object,
with ``identity(g - 1)``: at g = 64 the 3,969 slides take one row each
instead of 63.  Validation, ``is_level2`` and ``_updates`` test a whole
row or column at a time in C (``map``, a tuple compare); ``is_level2``
and ``_updates`` step through entries in Python only in the rows or
columns that differ from I's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import ne
from typing import Iterable, Sequence

Pair = tuple[int, int]
#: one letter of a word in the Y generators: ((i, j), exponent), exponent +-1
YLetter = tuple[Pair, int]


class DimensionMismatchError(ValueError):
    """Operands of a matrix operation have different sizes."""


class NotUnimodularError(ValueError):
    """Inverse requested for a matrix with determinant not in {+1, -1}."""


class IndexRangeError(ValueError):
    """A generator index lies outside the range valid for the genus."""


def genus(g: int) -> int:
    """Validate a genus: the homology matrices have size g - 1, and genus 3
    is the smallest case where the slide generators, the quotient
    construction and the rank formulas are all meaningful."""
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"genus must be an integer >= 3, got {g!r}")
    return g


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square integer matrix, row-major tuple of tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if not isinstance(rows, tuple):
            raise TypeError(f"rows must be a tuple, got {type(rows).__name__}")
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in rows:
            if not isinstance(row, tuple):
                raise TypeError(f"each row must be a tuple, got {type(row).__name__}")
            if len(row) != n:
                raise ValueError("matrix must be square")
            if not all(map(isinstance, row, repeat(int))):
                bad = next(x for x in row if not isinstance(x, int))
                raise TypeError(f"non-integer entry {bad!r}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)


def _trusted_matrix(rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An unvalidated ``IntMatrix``, for products of validated ones and for
    slides, which are I's (validated) rows with one row rewritten."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


@functools.cache
def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    bt = tuple(zip(*b.rows))
    return _trusted_matrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.rows
        )
    )


def det(a: IntMatrix) -> int:
    """Determinant by the Bareiss fraction-free elimination (exact)."""
    n = a.n
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees prev divides this
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inv(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix via Gauss-Jordan (test oracle)."""
    d = det(a)
    if d not in (1, -1):
        raise NotUnimodularError(f"determinant {d}, inverse not integral")
    n = a.n
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a.rows)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv_rows = []
    for r in range(n):
        row = []
        for x in aug[r][n:]:
            if x.denominator != 1:
                raise NotUnimodularError("inverse is not integral")
            row.append(int(x))
        inv_rows.append(tuple(row))
    return IntMatrix(tuple(inv_rows))


def is_level2(a: IntMatrix) -> bool:
    """True iff the matrix is congruent to the identity mod 2: each row
    that differs from the identity's has its parities, ``1 & x`` per
    entry."""
    rows, irows = a.rows, identity(a.n).rows
    parity = (1).__and__
    changed = compress(range(a.n), map(ne, rows, irows))
    return all(tuple(map(parity, rows[r])) == irows[r] for r in changed)


def _check_group_element(m: IntMatrix, label: str) -> ColumnUpdates:
    """``m``'s column updates, once ``m`` is a level-2 involution (so
    unimodular: det(m)^2 = det(m * m) = 1); m * m runs on those updates."""
    if not is_level2(m):
        raise ArithmeticError(f"{label} is not congruent to I mod 2")
    updates = _updates(m)
    cols = list(zip(*m.rows))
    _right_multiply(cols, updates)
    if tuple(map(tuple, cols)) != identity(m.n).rows:  # I is symmetric
        raise ArithmeticError(f"{label} is not an involution")
    return updates


@functools.cache
def make_y(g: int, i: int, j: int) -> IntMatrix:
    """Matrix of the slide generator Y[i, j], for 1 <= i <= g-1, 1 <= j <= g.

    ``(i, i)`` entry -1; ``(i, j)`` entry 2 when j <= g-1; identity
    elsewhere.  ``Y[g, i]`` is not covered here, see ``make_y_gi``.
    """
    g = genus(g)
    if not 1 <= i <= g - 1:
        raise IndexRangeError(f"first index {i} outside 1..{g - 1}")
    if not 1 <= j <= g:
        raise IndexRangeError(f"second index {j} outside 1..{g}")
    if i == j:
        raise IndexRangeError("slide indices must differ")
    rows = list(identity(g - 1).rows)
    row = list(rows[i - 1])
    row[i - 1] = -1
    if j <= g - 1:
        row[j - 1] = 2
    rows[i - 1] = tuple(row)
    return _trusted_matrix(tuple(rows))


def gi_product(g: int, i: int) -> tuple[YLetter, ...]:
    """The letters of (Y[1,i] Y[1,g]) ... (Y[g-1,i] Y[g-1,g]) Y[i,g], the
    k = i factor omitted: the defining product of Y[g, i] (family (5))."""
    g = genus(g)
    if not 1 <= i <= g - 1:
        raise IndexRangeError(f"index {i} outside 1..{g - 1}")
    letters = [((k, j), 1) for k in range(1, g) if k != i for j in (i, g)]
    return (*letters, ((i, g), 1))


@functools.cache
def make_y_gi(g: int, i: int) -> IntMatrix:
    """Matrix of Y[g, i]: closed form, cross-checked against the product.

    The product is ``gi_product`` evaluated by ``eval_word`` over the
    ``make_y`` column updates.  Closed form: -1 at (i, i), -2 at (m, i)
    for every other row m, identity elsewhere.  Disagreement would mean
    the matrix convention is inconsistent, so it raises instead of
    guessing.
    """
    product = eval_word(g, gi_product(g, i))
    rows = [list(row) for row in identity(g - 1).rows]
    for m in range(1, g):
        rows[m - 1][i - 1] = -1 if m == i else -2
    closed = IntMatrix(tuple(tuple(row) for row in rows))
    if product != closed:
        raise ArithmeticError(
            f"Y[{g},{i}] closed form disagrees with its defining product"
        )
    return closed


def y_matrix(g: int, i: int, j: int) -> IntMatrix:
    """Matrix for a slide symbol with either index order, including i = g."""
    g = genus(g)
    if i == g:
        return make_y_gi(g, j)
    return make_y(g, i, j)


ColumnUpdates = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _updates(m: IntMatrix) -> ColumnUpdates:
    """``(c, ((r, entry), ...))`` for each column c where ``m`` differs
    from I: right-multiplying by ``m`` sets column c to sum entry * column r.
    A column equal to I's (I is symmetric: its rows are its columns) is
    skipped by one tuple compare."""
    cols = tuple(zip(*m.rows))
    changed = compress(range(m.n), map(ne, cols, identity(m.n).rows))
    return tuple(
        (c, tuple((r, x) for r, x in enumerate(cols[c]) if x)) for c in changed
    )


def _right_multiply(cols: list[Sequence[int]], updates: ColumnUpdates) -> None:
    """Replace the columns ``cols`` of a matrix A by those of A * M, where
    ``updates`` are M's; every column of M must have a nonzero entry.
    Columns are read, never written: each changed one becomes a new list."""
    new = []
    for c, ((k, x), *rest) in updates:
        col = [x * v for v in cols[k]]
        for k, x in rest:
            col = [s + x * v for s, v in zip(col, cols[k])]
        new.append((c, col))
    for c, col in new:
        cols[c] = col


@functools.cache
def _column_update(g: int, i: int, j: int) -> ColumnUpdates:
    """Y[i, j]'s column updates, computed once, in the check that the
    slide is a level-2 involution, before any word uses them."""
    return _check_group_element(y_matrix(g, i, j), f"Y[{i},{j}] at g={g}")


def eval_word(g: int, letters: Iterable[YLetter]) -> IntMatrix:
    """Evaluate a word in the Y generators to a single matrix.

    ``letters`` is a sequence of ``((i, j), exp)`` with exp +1 or -1;
    every slide is its own inverse, so both exponents act alike.  The
    empty word evaluates to the identity.
    """
    g = genus(g)
    cols: list[Sequence[int]] = list(identity(g - 1).rows)  # I is symmetric
    for (i, j), exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {exp}")
        _right_multiply(cols, _column_update(g, i, j))
    return _trusted_matrix(tuple(zip(*cols)))
