"""Rewriting the level-2 generators into the twist subgroup.

The quotient of the level-2 group by the squared-twist-and-Torelli
subgroup is elementary abelian with basis the pair classes of
``fpres.quotient_basis``.  The ordered products of basis slides (one
slide per pair, pairs strictly increasing) form a Schreier transversal:
dropping the last factor of a transversal word gives another one.  In
binary counting order element n holds the basis pairs at the set bits of
n: it is low[n mod 2^h] + high[n >> h], low and high the subsets of the
first h = ceil(dim/2) basis pairs and of the rest.  ``build_quotient_map``
gives each basis slide its own bit as image, so element n has image n,
and the representative of the coset of f x, for f = element n, is
element n XOR image(x): an index, not a table lookup.  ``transversal``
caches the elements, and ``verify_transversal`` checks them from the
halves.  The Reidemeister-Schreier generators of the subgroup are then

    f x^(+-1) rep(f x)^(-1)

for ``f`` in the transversal and ``x`` in the finite generating set of
the level-2 group; the generator is skipped only when the word literally
equals its representative.  These rewrite into four families: conjugated
squared twists about pair loops, conjugated twists about the two-sided
pair curves, conjugated squared twists about the 4-subset curves
containing crosscap 1, and conjugated slide commutators, the last
reducible under the constraint last(f) < (i, j) < (k, l).

The slide-commutator reduction rests on four displayed identities, one
per overlap shape of the two pairs.  ``verify_case_identities`` checks
them as exact integer matrix identities through ``fpres.phi_image``.
The matrix representation kills the Torelli group, so a pass certifies
each identity modulo that kernel: necessary, not sufficient, and every
report says so.

Both zero-image sweeps rest on quotient images being XOR-linear over
letters.  The RS word f x rep(f x)^-1, for f = element n and rep(f x) =
element n ^ image(x), has image images[n] ^ image(x) ^
images[n ^ image(x)], which is 0 once every element n has image n.  So
the RS words' verdict is ``verify_transversal``'s at the same g, and
the RS sweep does not restate it: it counts the emitted words, through
the skip rule, against the closed form.  A family word f core f^-1 has
image residual(f) ^ image(core), where residual(f) = image(f) ^ image(f^-1),
so the family sweep certifies it by its parts: its core's image is 0
and f's residual is 0.  Each core is folded once, and each element's
residual is read off one letter-level refold of an assembled conjugate,
less its core's image, the core drawn by a seeded generator.  A failing
core or element is named once, and every word it is part of is left
uncertified: no word gets a verdict of its own.  Neither sweep checks
the rewriting of the words into families 1-4.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Callable, Iterator, NamedTuple

from . import exactmat, fpres
from .exactmat import genus
from .fpres import (
    GenSymbol,
    KIND_YSLIDE,
    Pair,
    Word,
    beta_twist,
    build_quotient_map,
    phi_word_matrix,
    quotient_basis,
    subset_sq,
    twist_sq,
    winv,
    word,
    yslide,
)
from .reports import CapExceededError, CheckReport, ReportBuilder

#: 2^dim transversal elements; past 16 dimensions this is not a desk job
TRANSVERSAL_DIM_CAP = 16

CAVEAT_TORELLI = (
    "matrix equality is computed in the homology representation, whose"
    " kernel is the Torelli group: a pass verifies each identity modulo"
    " that kernel (necessary, not sufficient)"
)
CAVEAT_QUOTIENT_LEVEL = (
    "membership is certified at the quotient-image level; the conjugating"
    " single twists are not squares and have no symbol of their own, and"
    " conjugation does not move quotient images"
)
CAVEAT_RS_FROM_TRANSVERSAL = (
    "the words' zero images follow from the transversal entry at the same"
    " g (element n has image n); this entry checks the emitted count"
)
CAVEAT_G3_GENERATORS = (
    "the minimal generating set theorem assumes g >= 4; at g = 3 the"
    " slide symbols alone are used instead, which is not a generating"
    " set taken from any stated theorem"
)


class _TransversalFields(NamedTuple):
    pairs: tuple[Pair, ...]


class TransversalElement(_TransversalFields):
    """One coset representative: a strictly increasing tuple of basis pairs.

    A tuple ``(pairs,)`` underneath, validated on construction: hashing,
    equality and ordering are the tuple's own, and the hash is the one a
    frozen dataclass of the same field has.  Like ``GenSymbol``, it
    compares equal to a plain tuple of the same value.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[Pair, ...]) -> "TransversalElement":
        if not all(map(operator.lt, pairs, pairs[1:])):
            raise ValueError(f"pairs must strictly increase, got {pairs}")
        return super().__new__(cls, pairs)

    def word(self) -> Word:
        return tuple((yslide(i, j), 1) for i, j in self.pairs)


class RsGenerator(NamedTuple):
    f: TransversalElement
    x: GenSymbol
    sign: int
    #: the transversal element in the coset of f x
    rep: TransversalElement
    word: Word


def _capped_basis(g: int) -> tuple[Pair, ...]:
    """``quotient_basis(g)``, refused past the dimension cap."""
    basis = quotient_basis(genus(g))
    if len(basis) > TRANSVERSAL_DIM_CAP:
        raise CapExceededError(
            f"transversal has 2^{len(basis)} elements, past the"
            f" dimension cap {TRANSVERSAL_DIM_CAP}"
        )
    return basis


def _halves(g: int) -> tuple[list[tuple[Pair, ...]], list[tuple[Pair, ...]]]:
    """(low, high): the subsets of the first h = ceil(dim/2) basis pairs and
    of the rest, each in counting order.  Past the cap it raises."""
    basis = _capped_basis(g)
    h = (len(basis) + 1) // 2
    halves: tuple[list[tuple[Pair, ...]], list[tuple[Pair, ...]]] = ([()], [()])
    for subsets, part in zip(halves, (basis[:h], basis[h:])):
        for p in part:
            subsets += [t + (p,) for t in subsets]
    return halves


def _walk(g: int) -> Iterator[tuple[Pair, ...]]:
    """The subsets of ``quotient_basis(g)`` in binary counting order, as
    low[n mod 2^h] + high[n >> h]: it streams, and raises at the call."""
    low, high = _halves(g)
    return (lo + hi for hi in high for lo in low)


@functools.cache
def transversal(g: int) -> tuple[TransversalElement, ...]:
    """Every subset of the basis pairs in counting order, from ``_walk``."""
    # pairs increase by construction: skip TransversalElement.__new__
    return tuple(tuple.__new__(TransversalElement, (p,)) for p in _walk(g))


def uses_subset_twist_generators(g: int) -> bool:
    """True when the generating set includes four-index subset twists;
    below genus 4 no such twist exists and slides alone are substituted."""
    return genus(g) >= 4


@functools.cache
def level2_generating_set(g: int) -> tuple[GenSymbol, ...]:
    """The minimal generating set of the level-2 group for g >= 4:
    slides Y[i, j] for i < j, slides Y[j, i] for i < j <= g - 1, and the
    squared subset twists on {1, j, k, l}.  For g = 3 the slide symbols
    alone are substituted (see CAVEAT_G3_GENERATORS)."""
    g = genus(g)
    if g < 3:
        raise ValueError("need g >= 3")
    slides = [yslide(i, j) for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    back_slides = [yslide(j, i) for i in range(1, g) for j in range(i + 1, g)]
    # empty at g = 3, where no 4-subset {1, j, k, l} exists
    subsets = [
        subset_sq(1, j, k, l)
        for j in range(2, g + 1)
        for k in range(j + 1, g + 1)
        for l in range(k + 1, g + 1)
    ]
    return tuple(slides + back_slides + subsets)


def _rs_letters(qmap: fpres.QuotientMap) -> list[tuple[GenSymbol, int, Pair | None]]:
    """(x, image(x), x's pair when x is a basis slide) for each generating
    symbol x, in listed order."""
    basis = set(qmap.basis)
    return [
        (x, qmap.image(x), x.indices if x.kind == KIND_YSLIDE and x.indices in basis else None)
        for x in level2_generating_set(qmap.g)
    ]


def _skipped(
    elems: tuple[TransversalElement, ...], n: int, ximage: int, pair: Pair | None
) -> bool:
    """The skip rule, stated here and only here: f x^+1, for f = element
    n, is skipped when it literally is its representative, element
    n XOR image(x); f x^-1 is always emitted."""
    return pair is not None and elems[n ^ ximage].pairs == elems[n].pairs + (pair,)


def iter_rs_generators(g: int) -> Iterator[RsGenerator]:
    """All f x^(+-1) rep^(-1) words, skipping literal representatives.

    Deterministic order: transversal elements in counting order, then
    generating symbols in listed order, then sign +1 before -1.  f's
    word is built once per f, and each inverse word the first time it is
    needed.
    """
    g = genus(g)
    elems = transversal(g)
    xs = _rs_letters(build_quotient_map(g))
    inverses: list[Word | None] = [None] * len(elems)
    for n, f in enumerate(elems):
        fword = f.word()
        for x, ximage, pair in xs:
            r = n ^ ximage
            rep = elems[r]
            if inverses[r] is None:
                inverses[r] = winv(rep.word())
            for sign in (-1,) if _skipped(elems, n, ximage, pair) else (1, -1):
                yield RsGenerator(f, x, sign, rep, fword + ((x, sign),) + inverses[r])


FAMILY_NAMES = ("1", "2", "3", "4")


#: one labeled family word: (transversal element, index tuple, full word)
FamilyWord = tuple[TransversalElement, tuple[int, ...], Word]


def _family_cores(g: int, family: str) -> list[tuple[tuple[int, ...], Word]]:
    """(index tuple, unconjugated core word) for every word of a family,
    in emission order; a family word is f core f^-1."""
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILY_NAMES}")
    pairs = fpres.pair_set(g)
    if family == "1":
        return [((i, j), word(twist_sq(i, j))) for i, j in pairs]
    if family == "2":
        return [((i, j), word(beta_twist(i, j))) for i, j in pairs]
    if family == "3":
        return [
            ((1, *sub), word(subset_sq(1, *sub)))
            for sub in itertools.combinations(range(2, g + 1), 3)
        ]
    slides = {p: word(yslide(*p)) for p in pairs}
    return [
        ((*p, *q), fpres.commutator_word(slides[p], slides[q]))
        for p, q in itertools.product(pairs, repeat=2)
    ]


def iter_family_words(
    g: int, family: str, reduced4: bool = False
) -> Iterator[FamilyWord]:
    """Words of one generator family, labeled by conjugator and indices.

    Family 1: f t^2[a(i,j)] f^-1 over all pairs; family 2 the same with
    the two-sided twists; family 3 the squared subset twists on
    {1, j, k, l}; family 4 the slide commutators f [Y(i,j), Y(k,l)] f^-1
    over all ordered pairs of pairs, restricted by
    last(f) < (i, j) < (k, l) when ``reduced4`` is set.
    """
    g = genus(g)
    cores = _family_cores(g, family)
    reduced = reduced4 and family == "4"
    for f in transversal(g):
        fword = f.word()
        finv = winv(fword)
        last = f.pairs[-1] if f.pairs else None
        for indices, core in cores:
            if reduced:
                p, q = indices[:2], indices[2:]
                if not ((last is None or last < p) and p < q):
                    continue
            yield f, indices, fword + core + finv


def construction_counts(g: int) -> dict:
    """Sizes of the transversal, the RS generator set, and the families."""
    g = genus(g)
    # in closed form, not read off the walk: a walk that loses an element
    # must fail the sweeps' count checks
    n_trans = 1 << len(_capped_basis(g))
    # of the 2 |T| |X| words, one per nonempty t in T is skipped: f x = t
    n_rs = 2 * n_trans * len(level2_generating_set(g)) - (n_trans - 1)
    n_pairs = len(fpres.pair_set(g))
    n_subsets = math.comb(g - 1, 3)
    return {
        "g": g,
        "transversal_size": n_trans,
        "rs_generator_count": n_rs,
        "families": {
            "1": n_trans * n_pairs,
            "2": n_trans * n_pairs,
            "3": n_trans * n_subsets,
            "4": n_trans * n_pairs * n_pairs,
        },
    }


def _pairs_image(qmap: fpres.QuotientMap) -> Callable[[tuple[Pair, ...]], int]:
    """An element's quotient image from its pairs: the XOR of their
    basis-slide images, one ``word_image`` call per basis pair."""
    slide = {p: qmap.word_image(((yslide(*p), 1),)) for p in qmap.basis}

    def image_of(pairs: tuple[Pair, ...]) -> int:
        image = 0
        for p in pairs:
            image ^= slide[p]
        return image

    return image_of


def verify_transversal(g: int) -> CheckReport:
    """Element n has image n and strictly increasing pairs; size 2^rank.

    Images are XOR-linear over letters, so an element's image is the XOR
    of its pairs' slide images, each basis slide folded once.  Image n at
    position n for all 2^rank positions is a bijection onto the quotient.
    With increasing pairs it also gives prefix closure: the basis slides'
    images are their own bits (``build_quotient_map`` refuses any other
    map), so element n holds the pairs at n's set bits in basis order,
    and less its last pair it is the element at n less its top bit.

    Lemma: if low[i] has image i and high[j] image j << h, both with
    increasing pairs, and every low pair is below every high pair, then
    low[i] + high[j] has increasing pairs and image i ^ (j << h), its
    index.  So the rule runs once per piece of ``_halves``, and block j of
    2^h walked elements passes whole when its pieces passed and it equals
    [lo + high[j] for lo in low]; any other block is checked per element.
    """
    g = genus(g)
    low, high = _halves(g)  # past the cap this raises before any fold
    walk = _walk(g)
    rank = fpres.quotient_rank(g)
    image_of = _pairs_image(build_quotient_map(g))
    rb = ReportBuilder("transversal", g=g)

    def failure(n: int, pairs: tuple[Pair, ...]) -> str | None:
        image = image_of(pairs)
        if image != n:
            return f"element {n} {pairs} has image {image}"
        if not all(map(operator.lt, pairs, pairs[1:])):
            return f"element {n} {pairs} has pairs out of order"
        return None

    ordered = max(itertools.chain(*low)) < min(itertools.chain(*high), default=(math.inf,))
    whole = ordered and not any(itertools.starmap(failure, enumerate(low)))
    passing = [whole and not failure(j * len(low), hi) for j, hi in enumerate(high)]
    size = 0
    for j, block in enumerate(iter(lambda: list(itertools.islice(walk, len(low))), [])):
        if not (j < len(high) and passing[j] and block == [lo + high[j] for lo in low]):
            for label in filter(None, itertools.starmap(failure, enumerate(block, size))):
                rb.record(False, label)
        size += len(block)
    rb.passed += size - rb.failed
    rb.record(size == 1 << rank, f"size {size} != 2^{rank}")
    return rb.build()


def verify_rs_zero_images(g: int, seed: int = 0) -> CheckReport:
    """The RS generators emitted through the skip rule number the closed
    form's.

    The word f x^(+-1) rep(f x)^-1, for f = element n and rep(f x) =
    element n ^ image(x), has image images[n] ^ image(x) ^
    images[n ^ image(x)], which is 0 once every element n has image n:
    what ``verify_transversal`` checks, and this check leaves to it (see
    the caveat).  One pass over the transversal counts the skipped words
    from each element's last pair, and the one record is the emitted
    count against ``construction_counts``'.  No word is built and nothing
    is sampled, so ``seed`` is unused.  The rewriting of the words into
    families 1-4 is not checked.
    """
    del seed
    g = genus(g)
    # past the cap the count raises before the quotient reduction runs
    total = construction_counts(g)["rs_generator_count"]
    elems = transversal(g)
    xs = _rs_letters(build_quotient_map(g))
    slide_image = {pair: ximage for _x, ximage, pair in xs if pair is not None}
    skips = 0
    for r, t in enumerate(elems):
        # a skipped f x^+1 has rep(f x) = t, and x is the slide of t's last pair
        if t.pairs and t.pairs[-1] in slide_image:
            ximage = slide_image[t.pairs[-1]]
            skips += _skipped(elems, r ^ ximage, ximage, t.pairs[-1])
    emitted = 2 * len(elems) * len(xs) - skips
    rb = ReportBuilder("rs-zero-image", g=g)
    rb.caveat(CAVEAT_RS_FROM_TRANSVERSAL)
    if not uses_subset_twist_generators(g):
        rb.caveat(CAVEAT_G3_GENERATORS)
    rb.record(emitted == total, f"emitted {emitted} generators, closed form {total}")
    rb.detail(f"emitted {emitted} generators; {skips} skipped over {len(elems)} elements")
    return rb.build()


def verify_family_zero_images(
    g: int, families: tuple[str, ...] = FAMILY_NAMES, seed: int = 0
) -> CheckReport:
    """Every family word has quotient image zero, certified by its parts.

    The quotient image is XOR-linear over letters, so f core f^-1 has
    image residual(f) ^ image(core), with residual(f) = image(f) ^
    image(f^-1), and a word is certified when both parts are 0.  Each
    core is folded once.  Each transversal element f is refolded letter
    by letter once, as f core f^-1 with the core drawn by
    ``random.Random(seed)`` from the families' cores, and that core's
    image XORed out gives residual(f).  The passes are (elements with
    residual 0) x (cores with image 0); the failure labels name each
    failing core and each failing element once, and the words they
    leave uncertified are counted as failed.  A word count other than
    ``construction_counts``' is a failure.
    """
    g = genus(g)
    # past the cap the count raises before the quotient reduction runs
    counts = construction_counts(g)["families"]
    qmap = build_quotient_map(g)
    elems = transversal(g)
    cores = [
        (family, [(indices, core, qmap.word_image(core))
                  for indices, core in _family_cores(g, family)])
        for family in families
    ]
    drawn = [core for _family, fcores in cores for core in fcores]
    residuals = []
    if drawn:
        rng = random.Random(seed)
        for f in elems:
            _indices, core, image = drawn[rng.randrange(len(drawn))]
            fword = f.word()
            residuals.append(qmap.word_image(fword + core + winv(fword)) ^ image)
    rb = ReportBuilder("family-zero-image", g=g)
    walked = len(elems) * len(drawn)
    passed = residuals.count(0) * sum(image == 0 for *_, image in drawn)
    rb.tally(passed, walked - passed, itertools.chain(
        (f"family {family} core {indices} has image {image}"
         for family, fcores in cores for indices, _core, image in fcores if image),
        (f"element {n} {f.pairs} has residual {residuals[n]}"
         for n, f in itertools.compress(enumerate(elems), residuals)),
    ))
    for family, fcores in cores:
        rb.detail(f"family {family}: {len(elems) * len(fcores)} words")
    total = sum(counts[family] for family in families)
    if walked != total:
        rb.record(False, f"walked {walked} words, closed form {total}")
    rb.detail(f"letter-folded {len(residuals)} assembled words")
    rb.detail(f"one refold per transversal element, its core drawn with seed {seed}")
    return rb.build()


def verify_reduced4_constraint(g: int) -> CheckReport:
    """Every emitted reduced commutator generator satisfies the
    syntactic constraint last(f) < (i, j) < (k, l)."""
    g = genus(g)
    rb = ReportBuilder("family4-reduced", g=g)
    count = 0
    for f, indices, _w in iter_family_words(g, "4", reduced4=True):
        count += 1
        last = f.pairs[-1] if f.pairs else None
        p, q = indices[:2], indices[2:]
        ok = (last is None or last < p) and p < q
        rb.record(ok, f"f={f.pairs} pairs {p},{q}")
    rb.detail(f"{count} reduced generators")
    return rb.build()


# ---------------------------------------------------------------------------
# the four case identities

CASE_SHARED_FIRST = "i=k"
CASE_SHARED_SECOND = "j=l"
CASE_CHAINED = "j=k"
CASE_INTERLEAVED = "i<k<j<l"
CASE_SEPARATED = "i<j<k<l"
CASE_NESTED = "i<k<l<j"


def classify_pair_case(p: Pair, q: Pair) -> str:
    """Overlap shape of two slide index pairs with p < q lexicographically."""
    if not p < q:
        raise ValueError(f"need (i,j) < (k,l) lexicographically, got {p}, {q}")
    (i, j), (k, l) = p, q
    if i == k:
        return CASE_SHARED_FIRST
    if j == l:
        return CASE_SHARED_SECOND
    if j == k:
        return CASE_CHAINED
    if i < k < j < l:
        return CASE_INTERLEAVED
    if i < j < k < l:
        return CASE_SEPARATED
    if i < k < l < j:
        return CASE_NESTED
    raise AssertionError(f"unclassified pair shape {p}, {q}")


def case_identity_words(p: Pair, q: Pair) -> tuple[str, Word, Word]:
    """(case name, left side, right side) for one pair of slide pairs.

    The left side is the squared product or the commutator of the two
    slides; the right side is the displayed rewriting into conjugated
    squared twists, two-sided twists, and slides.  For the two disjoint
    shapes the commutator itself collapses, so the right side is empty.
    """
    case = classify_pair_case(p, q)
    (i, j), (k, l) = p, q
    y = lambda a, b: (yslide(a, b), 1)
    yi = lambda a, b: (yslide(a, b), -1)
    t = lambda a, b: (twist_sq(a, b), 1)
    ti = lambda a, b: (twist_sq(a, b), -1)
    b = lambda a_, b_: (beta_twist(a_, b_), 1)
    bi = lambda a_, b_: (beta_twist(a_, b_), -1)
    if case == CASE_SHARED_FIRST:
        lhs = (y(i, j), y(k, l)) * 2
        rhs = (t(j, l), bi(i, j), y(i, j), ti(j, l), yi(i, j), b(i, j))
        return case, lhs, rhs
    if case == CASE_SHARED_SECOND:
        lhs = fpres.commutator_word(word(yslide(i, j)), word(yslide(k, l)))
        rhs = (y(k, j), b(i, k), yi(k, j))
        return case, lhs, rhs
    if case == CASE_CHAINED:
        lhs = (y(i, j), y(k, l)) * 2
        # the splice inserts Y[i,j] Y[j,i]^-1, which is the INVERSE squared
        # twist under the convention t^2 = Y[j,i]^-1 Y[i,j] (both slides
        # square to the same two-sided twist), so ti enters twice here
        rhs = (
            y(i, j), y(j, l), ti(i, j), yi(j, l), yi(i, j),
            ti(i, j), bi(j, l), t(i, l), b(j, l),
            y(j, l), bi(j, l), ti(i, l), b(j, l), yi(j, l),
        )
        return case, lhs, rhs
    if case == CASE_INTERLEAVED:
        lhs = fpres.commutator_word(word(yslide(i, j)), word(yslide(k, l)))
        rhs = (
            y(i, j),
            bi(i, l), y(i, l), b(i, k), yi(i, l), b(i, l), b(i, k),
            yi(i, j),
            bi(i, k), bi(i, l),
            y(i, l), bi(i, k), yi(i, l),
            b(i, l),
        )
        return case, lhs, rhs
    # disjoint shapes: the slides commute outright
    lhs = fpres.commutator_word(word(yslide(i, j)), word(yslide(k, l)))
    return case, lhs, ()


def verify_case_identities(g: int) -> CheckReport:
    """Matrix check of the case identity of every pair of slide pairs.

    The check computes both sides through the homology representation,
    which is blind to the Torelli group; the caveat records that.  It
    sees the exponent sign of the t^2 letters only: every Y letter
    squares to B, which acts as I on homology, so Y and Y^-1 have one
    matrix and B^(+-1) is the identity's.
    """
    g = genus(g)
    rb = ReportBuilder("case-identities", g=g)
    rb.caveat(CAVEAT_TORELLI)
    counts: dict[str, int] = {}
    for p, q in itertools.combinations(fpres.pair_set(g), 2):
        case, lhs, rhs = case_identity_words(p, q)
        counts[case] = counts.get(case, 0) + 1
        ok = phi_word_matrix(g, lhs) == phi_word_matrix(g, rhs)
        rb.record(ok, f"case {case} pairs {p},{q}")
    for case in sorted(counts):
        rb.detail(f"case {case}: {counts[case]} tuples")
    return rb.build()


def verify_tst_membership(g: int, indices: tuple[int, ...]) -> CheckReport:
    """The conjugated squared twists of one even index tuple die in the
    quotient and act by level-2 matrices.

    T(s, t) is the squared twist about the (i_s, i_(s+1)) loop conjugated
    by the chain of single twists down to i_t.  Single twists are not
    squares and have no symbol here, but conjugation cannot move a
    quotient image, so membership is certified from the core alone; the
    caveat names that verification level.
    """
    g = genus(g)
    indices = tuple(indices)
    if len(indices) % 2 != 0 or len(indices) < 2:
        raise ValueError(f"need an even number of indices, got {indices}")
    if list(indices) != sorted(set(indices)):
        raise ValueError(f"indices must strictly increase, got {indices}")
    if indices[-1] > g or indices[0] < 1:
        raise ValueError(f"indices {indices} outside 1..{g}")
    qmap = build_quotient_map(g)
    rb = ReportBuilder("tst-membership", g=g)
    rb.caveat(CAVEAT_QUOTIENT_LEVEL)
    rb.detail(f"indices {indices}")
    k = len(indices)
    for s in range(k - 1):
        for t_ in range(s + 1, k):
            core = twist_sq(indices[s], indices[s + 1])
            chain = [
                (indices[r], indices[r + 1]) for r in range(s + 1, t_)
            ]
            label = f"T({s + 1},{t_ + 1}) core {core.label()} chain {chain}"
            rb.record(qmap.image(core) == 0, f"{label}: image nonzero")
            rb.record(
                exactmat.is_level2(fpres.phi_image(g, core)),
                f"{label}: core matrix not level-2",
            )
    return rb.build()
