"""Free-group words, braid words, and the chain relation.

The braid-side computations feed the twist-subgroup arguments: the
(k)-chain relation says that in the braid group on k + 1 strands the
full twist ``(s1 ... sk)^(k+1)`` equals the twist(s) about the boundary
of a regular neighbourhood of the chain, and that power decomposes into
k(k+1)/2 conjugated squares of single generators, built here by the
recursion

    (s1 ... sk)^(k+1) = (s1 ... s(k-1))^k * prod_{b=k..1} w_b^-1 sb^2 w_b,
    w_b = s(b+1) s(b+2) ... sk  (empty for b = k).

Braid equality goes through Artin's action of the braid group on the
free group F_n = <x1, ..., xn>: s_i sends x_i to x_i x_(i+1) x_i^-1 and
x_(i+1) to x_i, and fixes the other generators.  The action is faithful
(Artin 1925; Birman, *Braids, Links, and Mapping Class Groups*, 1974,
Cor. 1.8.3), so two braid words are equal exactly when every generator
has the same freely reduced image under both.  The images are reduced
on the same stack as every other free word here; the word problem is
decided exactly, no matrix or normal-form approximation involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: a free-group letter: (generator name, +1 or -1)
FreeLetter = tuple[str, int]


@dataclass(frozen=True)
class FreeWord:
    letters: tuple[FreeLetter, ...]

    def __post_init__(self) -> None:
        for name, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"generator name must be a nonempty string, got {name!r}"
                )

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "FreeWord":
        return cls(((name, exp),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inv(self) -> "FreeWord":
        return FreeWord(_inverse(self.letters))


def free_reduce(w: FreeWord) -> FreeWord:
    """Cancel adjacent mutually inverse letters until none remain."""
    return FreeWord(_reduced(w.letters))


def _inverse(letters: Sequence[FreeLetter]) -> tuple[FreeLetter, ...]:
    """The inverse word: the letters reversed, each exponent negated."""
    return tuple((name, -exp) for name, exp in reversed(letters))


def _reduced(letters: Iterable[FreeLetter]) -> tuple[FreeLetter, ...]:
    """The free reduction of a stream of letters, in one pass over a
    stack that holds only the reduced prefix read so far."""
    stack: list[FreeLetter] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    return a * b * a.inv() * b.inv()


def verify_commutator_lemma(n: int) -> bool:
    """[a, b1 ... bn] equals the product of conjugated single commutators
    (b1 ... b(m-1)) [a, bm] (b1 ... b(m-1))^-1 for m = 1..n, as reduced
    free words on n + 1 letters.  The right side's n^2 + 3n letters are
    streamed through the reduction, never listed: its reduced prefix
    after m factors is [a, b1 ... bm], so the check takes O(n^2) time
    and O(n) memory."""
    if n < 0:
        raise ValueError("need n >= 0")
    bs = [(f"b{m}", 1) for m in range(1, n + 1)]
    b_invs = [(name, -1) for name, _exp in bs]

    def rhs_pieces() -> Iterator[Iterable[FreeLetter]]:
        for m in range(n):
            # (b1 ... b(m-1)) [a, bm] (b1 ... b(m-1))^-1
            yield bs[:m]
            yield ("a", 1), bs[m], ("a", -1), b_invs[m]
            yield reversed(b_invs[:m])

    lhs = commutator(FreeWord.gen("a"), FreeWord(tuple(bs)))
    rhs = itertools.chain.from_iterable(rhs_pieces())
    return free_reduce(lhs) == FreeWord(_reduced(rhs))


# ---------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """Word in the Artin generators of the braid group on ``strands``
    strands; letter ``+i`` is the i-th generator, ``-i`` its inverse."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("need at least one strand")
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) >= self.strands:
                raise ValueError(
                    f"letter {x} invalid for {self.strands} strands"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inv(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))


def _artin_images(w: BraidWord) -> list[tuple[FreeLetter, ...]]:
    """The freely reduced image of each free generator x1 ... xn under
    ``w``, read letter by letter: the action so far is composed on the
    right with the next letter's automorphism, which only moves the
    images of x_i and x_(i+1)."""
    images = [((f"x{j}", 1),) for j in range(1, w.strands + 1)]
    for letter in w.letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            # s_i: x_i -> x_i x_(i+1) x_i^-1, x_(i+1) -> x_i
            images[i], images[i + 1] = _reduced(a + b + _inverse(a)), a
        else:
            # s_i^-1: x_i -> x_(i+1), x_(i+1) -> x_(i+1)^-1 x_i x_(i+1)
            images[i], images[i + 1] = b, _reduced(_inverse(b) + a + b)
    return images


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether ``u`` and ``v`` are the same braid: Artin's action is
    faithful, so they are exactly when every generator has the same
    reduced image under both.  The inverses are compared, which decides
    the same thing: read from its inverse, the chain product's running
    images carry half the letters."""
    if u.strands != v.strands:
        raise ValueError("cannot compare words on different strand counts")
    return _artin_images(u.inv()) == _artin_images(v.inv())


# ---------------------------------------------------------------------------
# the chain relation


def chain_word(k: int) -> BraidWord:
    """s1 s2 ... sk on k + 1 strands."""
    if k < 1:
        raise ValueError("need k >= 1")
    return BraidWord(k + 1, tuple(range(1, k + 1)))


def chain_power(k: int) -> BraidWord:
    """(s1 ... sk)^(k+1), the boundary twist side of the chain relation."""
    c = chain_word(k)
    return BraidWord(c.strands, c.letters * (k + 1))


@dataclass(frozen=True)
class ChainFactor:
    """One conjugated square w^-1 sb^2 w of the chain decomposition."""

    strands: int
    base: int
    conjugator: tuple[int, ...]

    def word(self) -> BraidWord:
        w = self.conjugator
        letters = tuple(-x for x in reversed(w)) + (self.base, self.base) + w
        return BraidWord(self.strands, letters)


def chain_square_decomposition(k: int) -> tuple[ChainFactor, ...]:
    """The k(k+1)/2 conjugated squares multiplying to ``chain_power(k)``.

    Unwinds the recursion top down: the step from k - 1 to k appends,
    for b = k down to 1, the square of sb conjugated by s(b+1) ... sk.
    All factors are emitted on k + 1 strands.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    strands = k + 1
    factors: list[ChainFactor] = []
    for level in range(1, k + 1):
        for b in range(level, 0, -1):
            conj = tuple(range(b + 1, level + 1))
            factors.append(ChainFactor(strands=strands, base=b, conjugator=conj))
    return tuple(factors)


def decomposition_product(factors: Iterable[ChainFactor]) -> BraidWord:
    factors = tuple(factors)
    if not factors:
        raise ValueError("empty decomposition")
    strands = factors[0].strands
    if any(f.strands != strands for f in factors):
        raise ValueError("strand count mismatch")
    letters = itertools.chain.from_iterable(f.word().letters for f in factors)
    return BraidWord(strands, tuple(letters))
