"""Finite presentations of the level-2 congruence subgroup and its
mod-2 quotient by the slide-swap elements.

Two presentation variants are built here, both on the slide symbols
``Y[i, j]`` and both matrix identities.  The symbol constructors
(``yslide`` and the twist constructors) return interned ``GenSymbol``s,
validated once per distinct argument tuple, so words share their symbols.

* ``PROP_1_TO_4``: relator families (1)-(4) on the generators with
  first index at most g - 1, one row each of the table ``_PROP_FAMILIES``.
  ``verify_prop_families`` checks them with one evaluation per family
  class (a row and the position of g among its indices);
  ``verify_relators`` evaluates word by word.
* ``COR_WITH_5``: the same plus family (5), the Tietze extension that
  defines ``Y[g, i]`` as the one product ``exactmat.gi_product``.

The quotient is the induced presentation modulo the normal closure of
the elements ``Y[j, i]^-1 Y[i, j]``.  There the two index orders
coincide, so its generators are the unordered pairs ``i < j``.  Its
families bar-(1) and bar-(2) make it an elementary abelian 2-group, so
its relators abelianize to GF(2) rows over the pair classes; theirs are
squares, whose rows are 0, so only the bar-(5) rows (``_bar5_relators``,
that product's quotient reading) are built and reduced.  They hold in the
quotient, not in the matrix group.  One row reduction per genus gives
both the rank (``quotient_rank``: pairs less pivots) and the map
(``build_quotient_map``): with the declared basis in the low bits, a
pair's image is its normal form modulo the relator rows, once the pivots'
leading bits are checked to be exactly the non-basis positions.  A word's
image in the quotient is the XOR of its letters' bitmasks
(``QuotientMap.word_image``); the masks of the slide letters are a table
filled when the map is built.  The subgroup generated by the squares of
Dehn twists sits at index 2, whence ``twist_quotient_rank`` is one less.

``phi_image`` sends the symbolic generators that have a homology action
to their matrices: slides to ``make_y``/``make_y_gi``, a squared twist
``t^2[a(i,j)]`` to ``Y[j, i]^-1 Y[i, j]``, a two-sided twist
``t[b(i,j)]`` to ``Y[i, j]^2``, by expanding them into slide letters for
``exactmat.eval_word``, the one word evaluator over Z.  Squared twists
about the subset curves have no closed matrix form here and are rejected.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from . import exactmat
from .exactmat import IntMatrix, IndexRangeError, genus
from .reports import CheckReport, ReportBuilder

KIND_YSLIDE = "yslide"
KIND_TWIST_SQ = "twist_sq"
KIND_BETA_TWIST = "beta_twist"
KIND_SUBSET_SQ = "subset_sq"

_KIND_LABEL = {
    KIND_YSLIDE: "Y",
    KIND_TWIST_SQ: "T2",
    KIND_BETA_TWIST: "B",
    KIND_SUBSET_SQ: "T2S",
}

VARIANT_PROP = "PROP_1_TO_4"
VARIANT_COR = "COR_WITH_5"
VARIANTS = (VARIANT_PROP, VARIANT_COR)

#: every relator pass is a soundness statement only
CAVEAT_SOUNDNESS = (
    "soundness only: matrix identities confirm the relators hold, they"
    " cannot certify that the presentation is complete"
)

Pair = tuple[int, int]


class UnsupportedSymbolError(ValueError):
    """The symbol has no matrix image in this representation."""


class InconsistentQuotientError(ArithmeticError):
    """The declared basis is not a basis of the quotient: the relator
    rows' pivots do not lead at exactly the non-basis pair positions.

    This cannot happen if the quotient presentation is consistent; it
    aborts loudly rather than return a wrong map.
    """


class _SymbolFields(NamedTuple):
    kind: str
    indices: tuple[int, ...]


class GenSymbol(_SymbolFields):
    """One symbolic generator: a slide, a squared twist about the loop
    through crosscaps i and j, a twist about the two-sided curve around
    crosscaps i and j, or a squared twist about the curve around an
    even index subset.

    A tuple ``(kind, indices)`` underneath, validated on construction:
    hashing, equality and ordering are the tuple's own, and the hash is
    the one a frozen dataclass of the same fields has.  The constructors
    ``yslide``, ``twist_sq``, ``beta_twist`` and ``subset_sq`` return
    interned symbols, validated once per distinct argument tuple; calling
    ``GenSymbol`` directly validates every time.
    """

    __slots__ = ()

    def __new__(cls, kind: str, indices: tuple[int, ...]) -> "GenSymbol":
        if kind not in _KIND_LABEL:
            raise ValueError(f"unknown symbol kind {kind!r}")
        idx = indices
        if any(not isinstance(x, int) or x < 1 for x in idx):
            raise ValueError(f"indices must be positive ints, got {idx}")
        if kind == KIND_YSLIDE:
            if len(idx) != 2 or idx[0] == idx[1]:
                raise ValueError(f"slide needs two distinct indices, got {idx}")
        elif kind in (KIND_TWIST_SQ, KIND_BETA_TWIST):
            if len(idx) != 2 or not idx[0] < idx[1]:
                raise ValueError(f"twist indices must satisfy i < j, got {idx}")
        else:
            if len(idx) < 2 or len(idx) % 2 != 0:
                raise ValueError(f"subset must have even size >= 2, got {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"subset must be strictly increasing, got {idx}")
        return super().__new__(cls, kind, indices)

    def label(self) -> str:
        return f"{_KIND_LABEL[self.kind]}({','.join(map(str, self.indices))})"


# ``typed=True`` keeps ``yslide(1.0, 2)`` from hitting the cached
# ``yslide(1, 2)`` and skipping the int check; a call that raises is not
# cached.
_interned = functools.lru_cache(maxsize=None, typed=True)


@_interned
def yslide(i: int, j: int) -> GenSymbol:
    return GenSymbol(KIND_YSLIDE, (i, j))


@_interned
def twist_sq(i: int, j: int) -> GenSymbol:
    return GenSymbol(KIND_TWIST_SQ, (i, j))


@_interned
def beta_twist(i: int, j: int) -> GenSymbol:
    return GenSymbol(KIND_BETA_TWIST, (i, j))


@_interned
def subset_sq(*indices: int) -> GenSymbol:
    return GenSymbol(KIND_SUBSET_SQ, tuple(indices))


#: a word is a tuple of (symbol, exponent) letters with exponent +-1
Word = tuple[tuple[GenSymbol, int], ...]


def word(*letters: GenSymbol | tuple[GenSymbol, int]) -> Word:
    out = []
    for item in letters:
        if isinstance(item, GenSymbol):
            out.append((item, 1))
        else:
            sym, exp = item
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")
            out.append((sym, exp))
    return tuple(out)


def winv(w: Word) -> Word:
    return tuple((sym, -exp) for sym, exp in reversed(w))


def commutator_word(a: Word, b: Word) -> Word:
    return a + b + winv(a) + winv(b)


class Relator(NamedTuple):
    """One relator: its family label, the index tuple it is taken at, and
    its word.  A plain tuple underneath, so its hash is the one a frozen
    dataclass of the same fields has."""

    family: str
    indices: tuple[int, ...]
    word: Word


@dataclass(frozen=True)
class Presentation:
    g: int
    variant: str
    generators: tuple[GenSymbol, ...]
    relators: tuple[Relator, ...]


@_interned
def _slide_letter(i: int, j: int) -> tuple[GenSymbol, int]:
    """The letter (Y[i, j], +1), one shared tuple per pair."""
    return yslide(i, j), 1


def _sq(*pairs: Pair) -> Word:
    w = tuple(itertools.starmap(_slide_letter, pairs))
    return w + w


#: relator families (1)-(4): (family, the range of each index, "I" for
#: 1..g-1 and "J" for 1..g, the slides as pairs of index positions, each
#: starting at an I position).  A relator is the square of the product of
#: its slides, for every index tuple with pairwise distinct entries, in
#: nested-loop order.
_PROP_FAMILIES = (
    # (1): each slide is an involution
    ("1", "IJ", ((0, 1),)),
    # (2): two slides with a shared second index or fully disjoint indices
    ("2a", "IJI", ((0, 1), (2, 1))),
    ("2b", "IJIJ", ((0, 1), (2, 3))),
    # (3): three slides through a shared index
    ("3a", "IIJ", ((0, 1), (0, 2), (1, 2))),
    ("3b", "IJJJ", ((0, 1), (0, 2), (0, 3))),
    # (4): the six-slide cycle on three indices
    ("4", "III", ((1, 0), (0, 1), (2, 1), (1, 2), (0, 2), (2, 0))),
)


def relator5_word(g: int, i: int) -> Word:
    """Y[g, i]'s defining product (``exactmat.gi_product``), then Y[g, i]^-1."""
    letters = tuple((yslide(*p), exp) for p, exp in exactmat.gi_product(g, i))
    return letters + ((yslide(g, i), -1),)


def family5_relators(g: int) -> tuple[Relator, ...]:
    """Family (5), the relators that COR_WITH_5 adds to PROP_1_TO_4."""
    return tuple(Relator("5", (i,), relator5_word(g, i)) for i in range(1, g))


def pair_set(g: int) -> tuple[Pair, ...]:
    """All unordered index pairs i < j <= g, in lexicographic order."""
    return tuple((i, j) for i in range(1, g + 1) for j in range(i + 1, g + 1))


def bar5_word(g: int, i: int) -> Word:
    """Family (5) read in the quotient: the defining product of Y[g, i]
    with each pair's indices sorted, less its last letter Y[i, g], which
    cancels against Y[g, i]^-1 once the two index orders coincide.  A
    quotient relator, not a matrix identity: its rows alone fix the
    quotient's rank and map (``_quotient_pivots``)."""
    letters = exactmat.gi_product(g, i)[:-1]
    return tuple((yslide(*sorted(p)), exp) for p, exp in letters)


def bar5_odd_word(g: int) -> Word:
    return word(*(yslide(k, g) for k in range(1, g)))


def _bar5_relators(g: int) -> Iterator[Relator]:
    """Families bar-(5) and bar-(5)-odd: the dropped generators' products."""
    for i in range(2, g):
        yield Relator("bar5", (i,), bar5_word(g, i))
    if g % 2 == 1:
        yield Relator("bar5odd", (), bar5_odd_word(g))


def build_presentation(g: int, variant: str) -> Presentation:
    g = genus(g)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    gens = tuple(yslide(i, j) for i in range(1, g) for j in range(1, g + 1) if j != i)
    # distinct indices in nested-loop order, g at a J position or none
    rels = tuple(
        Relator(family, idx, _sq(*((idx[a], idx[b]) for a, b in shape)))
        for family, letters, shape in _PROP_FAMILIES
        for idx in itertools.permutations(range(1, g + 1), len(letters))
        if (letters + "J")[(*idx, g).index(g)] == "J"
    )
    if variant == VARIANT_COR:
        # COR_WITH_5 is PROP_1_TO_4 plus the Y[g, i] that family (5) defines
        gens += tuple(yslide(g, i) for i in range(1, g))
        rels += family5_relators(g)
    return Presentation(g=g, variant=variant, generators=gens, relators=rels)


def eval_symbol_word(g: int, w: Word) -> IntMatrix:
    """Evaluate a word in slide symbols to a matrix."""
    for sym, _exp in w:
        if sym.kind != KIND_YSLIDE:
            raise UnsupportedSymbolError(
                f"{sym.label()} is not a slide symbol; use phi_word_matrix"
            )
    return exactmat.eval_word(g, _slide_letters(w))


def verify_relators(p: Presentation) -> CheckReport:
    """Check every relator evaluates to I, one evaluation per relator, so
    errors are those of ``eval_symbol_word``."""
    rb = ReportBuilder(f"relators:{p.variant}", g=p.g)
    rb.caveat(CAVEAT_SOUNDNESS)
    ident = exactmat.identity(p.g - 1)
    for rel in p.relators:
        rb.record(eval_symbol_word(p.g, rel.word) == ident, f"{rel.family}{rel.indices}")
    return rb.build()


def verify_prop_families(g: int) -> CheckReport:
    """``verify_relators``'s report on PROP_1_TO_4, read from
    ``_PROP_FAMILIES`` with one evaluation per family class: a row and
    the position of g among its k indices, or none (position k).

    Lemma: a word w whose letters Y[i, j] all have i <= g - 1 and j <= g,
    with S its indices below g, is I outside the S x S block, and that
    block is conjugate by a permutation matrix to the relabelled word
    (S renamed 1..m in order of first appearance, g renamed
    n = max(m + 1, 3)) evaluated at genus n; so w = I exactly when the
    relabelled word is I_{n-1}.  Proof: right-multiplying by Y[i, j]
    rewrites only columns i and j (j < g), each as a combination of
    columns i and j, so columns outside S stay unit vectors and those in
    S stay inside rows S; renaming S and g keeps every Y[i, j] entry, and
    the genus n columns that no label reaches stay unit vectors.  Every
    slide starts at an I position, and the indices are pairwise
    distinct, so the relabelled word depends only on the class: each
    relator has the verdict of its class's first one in nested-loop
    order, evaluated at genus g.  A class holds P(g - 1, k) relators
    without g and P(g - 1, k - 1) with g at one J position.  A failing
    class's labels are made lazily, in relator order, only as far as the
    report keeps them.  A row with a slide starting at a J position
    raises ``ValueError``.
    """
    g = genus(g)
    rb = ReportBuilder(f"relators:{VARIANT_PROP}", g=g)
    rb.caveat(CAVEAT_SOUNDNESS)
    ident = exactmat.identity(g - 1)
    for family, letters, shape in _PROP_FAMILIES:
        if "J" in {letters[a] for a, _b in shape}:
            raise ValueError(f"family {family}: a slide starts at a J position")
        k, failing, counts = len(letters), [], [0, 0]  # passed, failed
        for at, c in enumerate(letters + "J"):
            size = math.perm(g - 1, k - (at < k)) * (c == "J")
            idx = (*range(1, at + 1), g, *range(at + 1, k))[:k]
            if size and eval_symbol_word(g, _sq(*((idx[a], idx[b]) for a, b in shape))) != ident:
                failing.append(at)
            counts[at in failing] += size
        labels = (
            f"{family}{idx}"
            for idx in itertools.permutations(range(1, g + 1), k)
            if (*idx, g).index(g) in failing
        )
        rb.tally(*counts, labels if failing else ())
    return rb.build()


def verify_commutation_lemma(g: int) -> CheckReport:
    """Y[i, j] commutes with Y[g, j] for every valid i, j pair.

    Needed so that the family (5) products are well defined regardless
    of factor order.
    """
    g = genus(g)
    rb = ReportBuilder("commutation", g=g)
    for i in range(1, g):
        for j in range(1, g):
            if j == i:
                continue
            a, b = ((i, j), 1), ((g, j), 1)
            rb.record(
                exactmat.eval_word(g, (a, b)) == exactmat.eval_word(g, (b, a)),
                f"[Y[{i},{j}],Y[{g},{j}]] != 1",
            )
    return rb.build()


def degenerate_representation_control(g: int) -> bool:
    """True iff some non-relator word evaluates to a non-identity matrix.

    Guards against a degenerate representation that would make every
    relator check pass vacuously.
    """
    g = genus(g)
    m = eval_symbol_word(g, word(yslide(1, 2), yslide(1, 3)) * 3)
    return m != exactmat.identity(g - 1)


# ---------------------------------------------------------------------------
# the GF(2) quotient


def _f2_reduce(row: int, pivots: Iterable[int]) -> int:
    """Normal form of ``row`` modulo the pivots' span: XOR in each pivot,
    in the order the pivots were found, whose leading bit ``row`` has.
    Each pivot was itself reduced by the earlier ones, so the result has
    none of their leading bits."""
    for p in pivots:
        row = min(row, row ^ p)
    return row


@functools.cache
def _quotient_pivots(g: int) -> tuple[tuple[Pair, ...], tuple[int, ...]]:
    """(the pair classes in bit order, the reduced relator rows).

    The declared basis takes the low bits, in basis order, and the other
    pairs the bits above it.  Only the bar-(5) and bar-(5)-odd relators
    are built and reduced.  Lemma: every bar-(1) and bar-(2) relator is
    the square ``w + w`` of one or two pair classes, so each letter occurs
    in it an even number of times and its row, the XOR of its letters'
    bits, is 0.
    """
    basis = quotient_basis(g)
    layout = basis + tuple(p for p in pair_set(g) if p not in basis)
    bit = {yslide(*p): 1 << n for n, p in enumerate(layout)}
    pivots: list[int] = []
    for rel in _bar5_relators(g):
        row = 0
        for sym, _exp in rel.word:
            row ^= bit[sym]
        row = _f2_reduce(row, pivots)
        if row:
            pivots.append(row)
    return layout, tuple(pivots)


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """Images of the symbolic generators in the GF(2) quotient.

    The quotient of the level-2 group by the normal closure of the
    slide-swap elements is an elementary abelian 2-group with basis the
    pair classes ``(i, j)`` with ``2 <= i < j <= g``, plus ``(1, g)``
    when g is even.  Images are bitmasks over that basis; bit n is
    ``basis[n]``.
    """

    g: int
    basis: tuple[Pair, ...]
    #: every slide symbol Y[i, j] of genus g, both index orders -> its mask
    slide_masks: dict[GenSymbol, int]

    def image(self, sym: GenSymbol) -> int:
        """Quotient image of a symbol as a bitmask over ``basis``."""
        if sym.kind == KIND_YSLIDE:
            mask = self.slide_masks.get(sym)
            if mask is None:
                i, j = sorted(sym.indices)
                raise IndexRangeError(f"pair ({i},{j}) outside genus {self.g}")
            return mask
        if sym.kind in (KIND_TWIST_SQ, KIND_BETA_TWIST, KIND_SUBSET_SQ):
            # these lie in the normal closure being quotiented away
            return 0
        raise UnsupportedSymbolError(sym.label())

    def word_image(self, w: Word) -> int:
        """XOR of the letters' images: slides read from the table built
        with the map, every other letter through ``image``."""
        slide_mask = self.slide_masks.get
        acc = 0
        for sym, _exp in w:  # in a 2-group the exponent sign is irrelevant
            mask = slide_mask(sym)
            acc ^= self.image(sym) if mask is None else mask
        return acc


def quotient_basis(g: int) -> tuple[Pair, ...]:
    """The pair classes forming a basis of the quotient: all (i, j) with
    2 <= i < j <= g, plus (1, g) when g is even."""
    g = genus(g)
    basis = [(i, j) for i in range(2, g + 1) for j in range(i + 1, g + 1)]
    if g % 2 == 0:
        basis.append((1, g))
    return tuple(sorted(basis))


@functools.cache
def build_quotient_map(g: int) -> QuotientMap:
    """Each pair class's normal form modulo the quotient relator rows.

    With the declared basis in the low bits, the basis is independent
    modulo the relators and spans the quotient exactly when the pivots'
    leading bits are the non-basis positions; otherwise the construction
    aborts.  Then every normal form lies in the basis bits and a basis
    pair keeps its own bit.  Normal forms are linear and send every
    relator row to 0, so the map kills every quotient relator.
    """
    g = genus(g)
    basis = quotient_basis(g)
    layout, pivots = _quotient_pivots(g)
    leads = sorted(p.bit_length() - 1 for p in pivots)
    if leads != list(range(len(basis), len(layout))):
        raise InconsistentQuotientError(
            f"the declared pair classes are not a basis of the genus {g} quotient"
        )
    masks: dict[GenSymbol, int] = {}
    for n, (i, j) in enumerate(layout):
        masks[yslide(i, j)] = masks[yslide(j, i)] = _f2_reduce(1 << n, pivots)
    return QuotientMap(g=g, basis=basis, slide_masks=masks)


def quotient_rank(g: int) -> int:
    """GF(2) dimension of the quotient: the pair classes less the pivots
    of the relator row reduction, whatever basis the map declares."""
    layout, pivots = _quotient_pivots(genus(g))
    return len(layout) - len(pivots)


def twist_quotient_rank(g: int) -> int:
    """Rank of the twist-subgroup quotient: one less, because the twist
    subgroup has index 2 and the quotient is elementary abelian."""
    return quotient_rank(g) - 1


# ---------------------------------------------------------------------------
# matrix images of the twist symbols


def _slide_letters(w: Word) -> list[exactmat.YLetter]:
    """Expand a symbol word into slide letters.  ``t^2[a(i,j)]`` is
    ``Y[j,i]^-1 Y[i,j]`` and ``t[b(i,j)]`` is ``Y[i,j]^2``; each slide is
    its own inverse, so an inverse letter just reverses its expansion."""
    letters: list[exactmat.YLetter] = []
    for sym, exp in w:
        if sym.kind == KIND_YSLIDE:
            pairs = (sym.indices,)
        elif sym.kind == KIND_TWIST_SQ:
            i, j = sym.indices
            pairs = ((j, i), (i, j))
        elif sym.kind == KIND_BETA_TWIST:
            pairs = (sym.indices, sym.indices)
        else:
            raise UnsupportedSymbolError(
                f"{sym.label()} has no matrix image in this representation"
            )
        letters.extend((p, exp) for p in (pairs if exp == 1 else pairs[::-1]))
    return letters


@functools.cache
def phi_image(g: int, sym: GenSymbol) -> IntMatrix:
    """Homology matrix of a slide, a squared twist about the loop through
    crosscaps i < j, or a twist about the two-sided curve around them;
    subset twists have no closed form here and are rejected."""
    return exactmat.eval_word(g, _slide_letters(((sym, 1),)))


def phi_word_matrix(g: int, w: Word) -> IntMatrix:
    """Evaluate a word in slide and twist symbols to a matrix."""
    return exactmat.eval_word(g, _slide_letters(w))


def symbol_kernel_report(g: int) -> CheckReport:
    """Every squared twist and two-sided twist image is level-2 and dies
    in the quotient: the symbolic kernel elements really live in the
    subgroup being quotiented away.  Each image is used once, so it is
    evaluated uncached, never stored in ``phi_image``'s cache."""
    g = genus(g)
    rb = ReportBuilder("symbol-kernel", g=g)
    qmap = build_quotient_map(g)
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            for sym in (twist_sq(i, j), beta_twist(i, j)):
                m = phi_word_matrix(g, word(sym))
                rb.record(exactmat.is_level2(m), f"{sym.label()} not level-2")
                rb.record(qmap.image(sym) == 0, f"{sym.label()} image nonzero")
    return rb.build()
