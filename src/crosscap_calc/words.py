"""Free-group words, braid words, and the chain relation.

The braid-side computations feed the twist-subgroup arguments: the
(k)-chain relation says that in the braid group on k + 1 strands the
full twist ``(s1 ... sk)^(k+1)`` equals the twist(s) about the boundary
of a regular neighbourhood of the chain, and that power decomposes into
k(k+1)/2 conjugated squares of single generators, built here by the
recursion

    (s1 ... sk)^(k+1) = (s1 ... s(k-1))^k * prod_{b=k..1} w_b^-1 sb^2 w_b,
    w_b = s(b+1) s(b+2) ... sk  (empty for b = k).

Braid equality goes through Dehornoy handle reduction: a word reduces
to the empty word iff it represents the identity, and a reduced word
whose lowest-index generator appears with only one sign is never the
identity.  Handles are reduced innermost first, which is what makes the
procedure terminate.  This decides the word problem exactly, no matrix
or normal-form approximation involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: a free-group letter: (generator name, +1 or -1)
FreeLetter = tuple[str, int]

#: guards against a nonterminating reduction loop; generous, never hit
#: by the desk-scale words this package produces
HANDLE_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class FreeWord:
    letters: tuple[FreeLetter, ...]

    def __post_init__(self) -> None:
        for name, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string")

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "FreeWord":
        return cls(((name, exp),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inv(self) -> "FreeWord":
        return FreeWord(tuple((n, -e) for n, e in reversed(self.letters)))


def free_reduce(w: FreeWord) -> FreeWord:
    """Cancel adjacent mutually inverse letters until none remain."""
    return FreeWord(_reduced(w.letters))


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


def _cancel(letters: Sequence[int]) -> list[int]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _first_flip(letters: Sequence[int], positions: Sequence[int]) -> tuple[int, int] | None:
    for p, q in zip(positions, positions[1:]):
        if letters[p] * letters[q] < 0:
            return p, q
    return None


def _reduce_one_handle(letters: list[int], p: int, q: int, t: int) -> list[int]:
    """Replace the handle letters[p..q] for generator t by its image.

    The segment strictly inside contains only generators above t; each
    occurrence of t + 1 is rewritten around the removed pair, everything
    else passes through unchanged.
    """
    e = 1 if letters[p] > 0 else -1
    mid: list[int] = []
    for x in letters[p + 1 : q]:
        if abs(x) == t + 1:
            d = 1 if x > 0 else -1
            mid += [-(t + 1) * e, t * d, (t + 1) * e]
        else:
            mid.append(x)
    return letters[:p] + mid + letters[q + 1 :]


def braid_is_identity(w: BraidWord) -> bool:
    """Dehornoy handle reduction: exact decision of triviality.

    Loop invariant: the current word equals the input in the braid
    group.  Each pass reduces one innermost permitted handle of the
    lowest-index generator present.  A free-reduced word whose lowest
    generator occurs with a single sign is sigma-positive (or negative)
    and therefore nontrivial, which is the early exit.
    """
    letters = _cancel(w.letters)
    for _ in range(HANDLE_STEP_CAP):
        if not letters:
            return True
        m = min(abs(x) for x in letters)
        occ = [p for p, x in enumerate(letters) if abs(x) == m]
        flip = _first_flip(letters, occ)
        if flip is None:
            return False
        p, q = flip
        t = m
        # descend while the segment still contains a handle of the next
        # generator up; between consecutive occurrences all letters are
        # strictly higher, so the inner pair is again a handle
        while True:
            inner = [r for r in range(p + 1, q) if abs(letters[r]) == t + 1]
            inner_flip = _first_flip(letters, inner)
            if inner_flip is None:
                break
            p, q = inner_flip
            t += 1
        letters = _cancel(_reduce_one_handle(letters, p, q, t))
    raise RuntimeError("handle reduction exceeded the step cap")


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    if u.strands != v.strands:
        raise ValueError("cannot compare words on different strand counts")
    return braid_is_identity(u * v.inv())


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
        w = BraidWord(self.strands, self.conjugator)
        sq = BraidWord(self.strands, (self.base, self.base))
        return w.inv() * sq * w


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
    acc = BraidWord(factors[0].strands, ())
    for f in factors:
        acc = acc * f.word()
    return acc
