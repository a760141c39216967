"""Bit-packed GF(2) linear algebra and the orthogonal group O_2(g).

The mod-2 homology of a genus-g non-orientable surface carries the
standard dot product as intersection form, with the crosscap classes as
an orthonormal basis.  A Dehn twist about a curve with class ``v`` acts
by the transvection ``x -> x + (x . v) v``, which is orthogonal exactly
when ``v`` has even weight.  This module enumerates the full orthogonal
group as the row orders of its increasing orthonormal frames, generates
it from chosen transvections by Dimino's coset closure, and checks each
curve class's stabilizer against the closure of the twists that fix it.
``word_table``, which no check calls, gives each element a canonical
shortest word in a labelled generating set.

Vectors are ints with bit ``i - 1`` holding coordinate ``i``; a matrix
(``F2Matrix``) is the tuple of its g row bitmasks itself, so a group
element is one tuple, hashed and compared one level deep.  Row r of a
product A M is the XOR of the rows of M that r selects; a product reads
each such row from a lazily filled span of M (``_RowSpan``), so the
coset closure and the word table, which multiply many matrices by the
same M, fold each distinct row once.  Where a whole list of matrices is
multiplied by one M (the closure's coset fill, a level of the word
table), its rows are grouped by row position (``_row_columns``) and each
group goes through the span in one ``map`` (``_RowSpan.left_all``).
The frame search reads each frame's last row (an orthogonal matrix's
rows sum to the all-ones vector), and ``itertools.permutations``, not
Python code, lists each frame's row orders.  Everything is immutable
and deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Iterable, Mapping

from .reports import CapExceededError, CheckReport, ReportBuilder

#: frame enumeration is exponential in g; beyond this it is not a desk job
ENUMERATION_CAP = 6

#: the index-subset sizes whose transvections are used as generators
GENERATOR_SIZES = (2, 4)

Subset = tuple[int, ...]


@functools.cache
def _identity_rows(g: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(g))


class F2Matrix(tuple):
    """A g x g matrix over GF(2): the tuple of its g row bitmasks,
    validated on construction, with the tuple's hashing and ordering."""

    __slots__ = ()

    def __new__(cls, g: int, rows: Iterable[int]) -> "F2Matrix":
        rows = tuple(rows)
        if len(rows) != g:
            raise ValueError("row count must equal g")
        for r in rows:
            if not isinstance(r, int):
                raise TypeError(f"non-integer row {r!r}")
            if not 0 <= r < 1 << g:
                raise ValueError("row out of range")
        return super().__new__(cls, rows)

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:
        return len(self), tuple(self)

    def __repr__(self) -> str:
        return f"F2Matrix(g={len(self)}, rows={tuple(self)})"

    @property
    def g(self) -> int:
        return len(self)

    @property
    def rows(self) -> tuple[int, ...]:
        """The rows as a plain tuple."""
        return tuple(self)

    @classmethod
    def identity(cls, g: int) -> "F2Matrix":
        return cls(g, _identity_rows(g))

    @classmethod
    def from_columns(cls, g: int, cols: Iterable[int]) -> "F2Matrix":
        cols = tuple(cols)
        rows = tuple(
            sum((col >> i & 1) << j for j, col in enumerate(cols)) for i in range(g)
        )
        return cls(g, rows)

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_columns(len(self), self)

    def __mul__(self, other: "F2Matrix") -> "F2Matrix":
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return _RowSpan(other).left(self)

    def apply(self, v: int) -> int:
        """The image M v of a vector bitmask."""
        bits = 0
        for i, row in enumerate(self):
            bits |= ((row & v).bit_count() & 1) << i
        return bits

    def is_identity(self) -> bool:
        return self == _identity_rows(len(self))


#: ``rows -> F2Matrix`` unvalidated, for products and enumerated frames
_trusted_f2 = functools.partial(tuple.__new__, F2Matrix)


class _RowSpan(dict):
    """The XOR of the rows of M that each bitmask selects, filled lazily.

    Row r of A M is the sum of the rows of M that row r of A selects, so
    it is ``span[r]``.  Each mask is folded bit by bit once, on its first
    lookup, and read back from the dict after that: the span holds only
    the masks actually used, never all 2^g of them.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: F2Matrix) -> None:
        self.rows = rows

    def __missing__(self, mask: int) -> int:
        acc = 0
        bits = mask
        while bits:
            low = bits & -bits
            acc ^= self.rows[low.bit_length() - 1]
            bits ^= low
        self[mask] = acc
        return acc

    def left(self, a: F2Matrix) -> F2Matrix:
        """The product A M, with no size check."""
        return _trusted_f2(map(self.__getitem__, a))

    def left_all(self, columns: tuple[tuple[int, ...], ...]) -> list[F2Matrix]:
        """The products A M for every A of a list, in order, given as its
        row columns (``_row_columns``), with no size check.

        Each column goes through the span in one ``map``; zipping the
        images back gives the products' rows.
        """
        get = self.__getitem__
        return list(map(_trusted_f2, zip(*[map(get, column) for column in columns])))


def _row_columns(mats: Iterable[F2Matrix]) -> tuple[tuple[int, ...], ...]:
    """Row r of every matrix, in order, for each row position r: the
    layout that ``_RowSpan.left_all`` reads."""
    return tuple(zip(*mats))


def is_orthogonal(m: F2Matrix) -> bool:
    """True iff the columns are orthonormal: M^T M = I."""
    return (m.transpose() * m).is_identity()


def twist_transvection(g: int, subset: Iterable[int]) -> F2Matrix:
    """Mod-2 action of the Dehn twist about a curve through the given
    crosscaps: x -> x + (x . v) v for v the subset's indicator vector.

    Orthogonality forces the subset to have even size.
    """
    s = tuple(sorted(set(subset)))
    if len(s) % 2 != 0 or not s:
        raise ValueError(f"twist subset must be nonempty of even size, got {s}")
    if not all(1 <= i <= g for i in s):
        raise ValueError(f"subset {s} outside 1..{g}")
    v = sum(1 << (i - 1) for i in s)
    rows = tuple((1 << i) ^ (v if v >> i & 1 else 0) for i in range(g))
    return F2Matrix(g, rows)


@functools.cache
def enumerate_o2(g: int) -> frozenset[F2Matrix]:
    """All of O_2(g): every row order of every increasing orthonormal frame.

    Over a field a one-sided inverse of a square matrix is two-sided, so
    a matrix is orthogonal iff its rows are orthonormal.  Those rows are
    pairwise distinct (v . v = 1 but v . w = 0), and every reordering of
    them is orthonormal too, so O_2(g) is the disjoint union of the g!
    row orders of its o2_order(g) / g! frames with strictly increasing
    rows (``_increasing_frames``: 32 at g = 6), each expanded straight
    into the set by ``itertools.permutations``.  No group product or
    generator is used, so the set is an oracle for ``generate_group``.
    """
    if g < 1:
        raise ValueError(f"O_2(g) needs g >= 1, got {g}")
    if g > ENUMERATION_CAP:
        raise CapExceededError(
            f"frame enumeration capped at g <= {ENUMERATION_CAP}, got {g}"
        )
    frames = map(itertools.permutations, _increasing_frames(g))
    return frozenset(map(_trusted_f2, itertools.chain.from_iterable(frames)))


def _increasing_frames(g: int) -> list[tuple[int, ...]]:
    """The orthonormal row frames whose rows strictly increase, uncapped.

    Depth-first: a row has odd weight and is orthogonal to, and larger
    than, every row above it, so each depth hands down one intersection
    with ``above[v]``, the odd rows orthogonal to and larger than the row
    v just chosen.  The last row is read, not searched: the rows of an
    orthogonal M sum to 1^T M, the all-ones vector, as M^T M = I gives
    every column odd weight.  So the search stops with g - 2 rows chosen,
    each candidate v for row g - 1 fixes row g, and row g is kept only if
    it would be a candidate below v.
    """
    ones = (1 << g) - 1
    if g == 1:
        # the one row is the all-ones vector, with nothing chosen above it
        return [(ones,)]
    above = {v: frozenset(w for w in ws if w > v) for v, ws in _odd_complements(g).items()}
    found: list[tuple[int, ...]] = []
    rows: list[int] = []

    def extend(candidates: frozenset[int], acc: int) -> None:
        if len(rows) == g - 2:
            for v in candidates:
                last = ones ^ acc ^ v
                if last in candidates and last in above[v]:
                    found.append((*rows, v, last))
            return
        for v in candidates:
            rows.append(v)
            extend(candidates & above[v], acc ^ v)
            rows.pop()

    extend(frozenset(above), 0)
    return found


def _odd_complements(g: int) -> dict[int, frozenset[int]]:
    """Each odd-weight vector of length g mapped to the odd-weight vectors
    orthogonal to it; an odd v is not orthogonal to itself, so v is not
    in its own set."""
    odd = [v for v in range(1, 1 << g) if v.bit_count() % 2 == 1]
    return {
        v: frozenset(w for w in odd if (w & v).bit_count() % 2 == 0) for v in odd
    }


def standard_twist_generators(
    g: int, sizes: Iterable[int] = GENERATOR_SIZES
) -> dict[Subset, F2Matrix]:
    """Transvections of all index subsets of the given even sizes."""
    gens: dict[Subset, F2Matrix] = {}
    for size in sizes:
        if size % 2 != 0:
            raise ValueError(f"sizes must be even, got {size}")
        if size > g:
            continue
        for subset in itertools.combinations(range(1, g + 1), size):
            gens[subset] = twist_transvection(g, subset)
    return gens


def o2_order(g: int) -> int:
    """|O(g, F2)| in closed form: |O(2m+1)| = |Sp(2m, F2)| =
    2^(m^2) (4^1 - 1) ... (4^m - 1) and |O(2m)| = 2^(2m-1) |Sp(2m-2, F2)|."""
    m = (g - 1) // 2
    sp = 2 ** (m * m) * math.prod(4**i - 1 for i in range(1, m + 1))
    return sp if g % 2 else 2 ** (g - 1) * sp


def generate_group(g: int, gens: Iterable[F2Matrix]) -> frozenset[F2Matrix]:
    """The subgroup of O_2(g) the generators generate; empty input gives {I}.

    Dimino's coset closure (Butler, Fundamental Algorithms for
    Permutation Groups, 1991): the sorted distinct generators are added
    one at a time, skipping any the group H built so far contains.  A new
    generator s appends the coset H s; then every coset representative r
    times every generator t used so far either lies in a coset already
    listed or opens the new coset H (r t).  That costs about one product
    per element instead of one per element and generator.  Each product
    is read from a row span of its right factor: one span per generator
    for the representatives, and one per new representative c for the
    coset H c, which is filled in bulk (``_RowSpan.left_all``) from H's
    row columns, built once per generator added.  It relies on H being
    a group, whose right cosets are disjoint, so every generator must be
    invertible: each is checked to be orthogonal (one product apiece) and
    one that is not raises ``ValueError``, as does a generator that is
    not g x g.  The closure lists at most |O(g, F2)| / |H| cosets of H
    (``o2_order``); more can only come from a wrong product, and raise
    ``ArithmeticError``.
    """
    gens = sorted(set(gens))
    for s in gens:
        if not is_orthogonal(s):
            raise ValueError(f"generator rows={s.rows} is not orthogonal")
    if any(len(s) != g for s in gens):
        raise ValueError("size mismatch")
    identity = F2Matrix.identity(g)
    seen = {identity}
    # right multiplication by each generator used so far
    used: list[Callable[[F2Matrix], F2Matrix]] = []
    for s in gens:
        if s in seen:
            continue
        used.append(_RowSpan(s).left)
        subgroup = _row_columns(seen)
        max_cosets = o2_order(g) // len(seen)
        # H itself is the first coset: its representative I times s opens H s
        reps = [identity]
        for r in reps:  # grows while it is walked
            for by_t in used:
                c = by_t(r)
                if c not in seen:
                    reps.append(c)
                    seen.update(_RowSpan(c).left_all(subgroup))
                    if len(reps) > max_cosets:
                        raise ArithmeticError(
                            f"more than |O({g}, F2)| / |H| cosets: a product is wrong"
                        )
    return frozenset(seen)


def word_table(
    g: int, gens: Mapping[Subset, F2Matrix]
) -> dict[F2Matrix, tuple[Subset, ...]]:
    """Canonical shortest word for every element the generators reach.

    Parents are dequeued in discovery order and generators tried in
    sorted label order, so each element's word is the lexicographically
    least among the shortest.  Involutive generators mean no inverse
    letters are ever needed.  Each generator gets one row span, built
    before the search; a level of the search multiplies the whole
    frontier by each generator in bulk (``_RowSpan.left_all``), and the
    products are then assigned words parent by parent, generators in
    label order, which is the order of a one-at-a-time search.  A
    generator that is not g x g raises ``ValueError``.
    """
    if any(len(b) != g for b in gens.values()):
        raise ValueError("size mismatch")
    times = sorted((label, _RowSpan(b)) for label, b in gens.items())
    labels = [label for label, _ in times]
    identity = F2Matrix.identity(g)
    table: dict[F2Matrix, tuple[Subset, ...]] = {identity: ()}
    frontier = [identity]
    while frontier:
        columns = _row_columns(frontier)
        new = []
        # parent-major, then label order: the order of the one-at-a-time search
        for a, products in zip(frontier, zip(*[b.left_all(columns) for _, b in times])):
            word = table[a]
            for label, c in zip(labels, products):
                if c not in table:
                    table[c] = word + (label,)
                    new.append(c)
        frontier = new
    return table


# ---------------------------------------------------------------------------
# stabilizer checks

CASE_ALPHA1 = "alpha1"
CASE_ALPHA12 = "alpha12"
CASE_ALPHA_ALL = "alpha_all"
STABILIZER_CASES = (CASE_ALPHA1, CASE_ALPHA12, CASE_ALPHA_ALL)

#: O_2 membership is verified against frame enumeration only up to the cap
CAVEAT_O2_SCALE = (
    "orthogonal-group checks run against exhaustive frame enumeration;"
    f" sizes beyond g={ENUMERATION_CAP} are out of verified range"
)


#: each case's class vector (given g) and the rule that picks the
#: index subsets of its permitted twists
_CASES: dict[str, tuple[Callable[[int], int], Callable[[Subset], bool]]] = {
    # subsets avoiding crosscap 1 fix its class
    CASE_ALPHA1: (lambda g: 0b1, lambda s: min(s) >= 2),
    # the twist swapping classes 1 and 2, plus everything avoiding both
    CASE_ALPHA12: (lambda g: 0b11, lambda s: s == (1, 2) or min(s) >= 3),
    # every even transvection fixes the all-ones class
    CASE_ALPHA_ALL: (lambda g: (1 << g) - 1, lambda s: True),
}


def _alpha12_correction(g: int, a: F2Matrix) -> F2Matrix:
    """T0, the transvection about {1, 2} and the indices >= 3 of A e1,
    for A in the stabilizer of e1 + e2.

    A is orthogonal, so c1 = A e1 has odd weight; A fixes e1 + e2, so
    A e2 = c1 + e1 + e2, which is orthogonal to c1.  That dot product is
    |c1| + |c1 & {1, 2}| mod 2: c1 meets {1, 2} in exactly one index and
    3..g in an even set H.  With v = {1, 2} + H, c1 . v = 1 + |H| is odd,
    so T0 c1 = c1 + v is the other unit of {e1, e2}, and T0 fixes e1 + e2:
    T0 A permutes {e1, e2}.  An orthogonal matrix that does so maps their
    complement e3..eg to itself too, so T0 A is block diagonal.
    """
    c1 = a.apply(0b1)
    return twist_transvection(g, (1, 2, *(i + 1 for i in range(2, g) if c1 >> i & 1)))


def stabilizer_case_check(
    g: int,
    case: str,
    sample_count: int | None = None,
    seed: int = 0,
) -> CheckReport:
    """The permitted twists fix the case's class, and their closure H lies
    in its stabilizer and holds every stabilizer element, once corrected.

    One rule for every case of ``_CASES`` (class vector, permitted-subset
    rule): a record per permitted generator that it fixes the class; one
    that H, their coset closure (``generate_group``), lies in the
    stabilizer read off O_2(g), which a wrong closure product breaks; then
    one per chosen element that its target lies in H: the element itself,
    or for alpha12 the element times its correction T0
    (``_alpha12_correction``), which makes it block diagonal.  So an
    exhaustive alpha1 or alpha_all run proves that H is the stabilizer.
    With ``sample_count`` set, that many elements are drawn from the
    stabilizer with replacement using the seed; otherwise the check is
    exhaustive.  An unknown case, or a ``sample_count`` below 1 (it would
    check no element), raises ``ValueError``; past ``ENUMERATION_CAP``
    the enumeration raises ``CapExceededError`` before the closure.
    """
    if g < 3:
        raise ValueError("stabilizer cases need g >= 3")
    if sample_count is not None and sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    if case not in _CASES:
        raise ValueError(f"unknown stabilizer case {case!r}, expected {STABILIZER_CASES}")
    vector, permitted = _CASES[case]
    v = vector(g)
    stab = sorted(a for a in enumerate_o2(g) if a.apply(v) == v)
    gens = {s: m for s, m in standard_twist_generators(g).items() if permitted(s)}
    closure = generate_group(g, gens.values())

    rb = ReportBuilder(f"stabilizer:{case}", g=g)
    rb.caveat(CAVEAT_O2_SCALE)
    for s, m in sorted(gens.items()):
        rb.record(m.apply(v) == v, f"generator {s} moves the class")
    rb.record(closure.issubset(stab), "the permitted twists' closure leaves the stabilizer")

    chosen = stab
    if sample_count is not None:
        rng = random.Random(seed)
        chosen = [stab[rng.randrange(len(stab))] for _ in range(sample_count)]
    rb.detail(
        f"stabilizer order {len(stab)}, closure order {len(closure)},"
        f" elements checked {len(chosen)}"
    )

    for a in chosen:
        target = _alpha12_correction(g, a) * a if case == CASE_ALPHA12 else a
        rb.record(target in closure, f"element rows={a.rows}: not in the closure")
    return rb.build()
