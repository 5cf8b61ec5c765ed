"""Weyl groups of GL(2n) and GSpin(2n+1), and the embedding between them.

Conventions, fixed once and used everywhere downstream:

* A permutation sigma of {1, ..., N} is stored in one-line notation
  (sigma(1), ..., sigma(N)).  Multiplication is composition of functions,
  (sigma * tau)(i) = sigma(tau(i)), so right-multiplying by a transposition
  (i, j) swaps the entries at positions i and j of the one-line word.
* sigma acts on a coordinate vector mu by index composition,
  mu^sigma = (mu_{sigma(1)}, ..., mu_{sigma(N)}), a right action.
* The GSpin Weyl group {+-1}^n x| S_n embeds in S_{2n} as the permutations
  with sigma(i) + sigma(2n+1-i) = 2n+1: the i-th sign swaps i <-> 2n+1-i,
  and the S_n part moves the pairs {i, 2n+1-i} around.

Parabolic coset machinery works with left cosets sigma * W_L, where W_L is
the Young subgroup generated by the adjacent transpositions named by a
subset of {1, ..., N-1}.  Right multiplication by W_L rearranges one-line
entries inside consecutive position blocks, so the Bruhat-minimal coset
representative just sorts each block.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from itertools import permutations, product

from ._value import Value, set_field
from .rootdata import RankMismatchError


class Perm(Value):
    """Permutation of {1, ..., N} in one-line notation."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        N = len(images)
        seen = 0
        for v in images:
            if not isinstance(v, int) or not (1 <= v <= N) or (seen >> v) & 1:
                raise ValueError(f"not a permutation of 1..{N}: {images}")
            seen |= 1 << v
        set_field(self, "images", images)

    @classmethod
    def identity(cls, N: int) -> "Perm":
        return cls(tuple(range(1, N + 1)))

    @classmethod
    def transposition(cls, i: int, j: int, N: int) -> "Perm":
        if not (1 <= i <= N and 1 <= j <= N and i != j):
            raise ValueError(f"bad transposition ({i},{j}) for N={N}")
        images = list(range(1, N + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @classmethod
    def simple(cls, i: int, N: int) -> "Perm":
        """The simple reflection s_i = (i, i+1)."""
        return cls.transposition(i, i + 1, N)

    @classmethod
    def longest(cls, N: int) -> "Perm":
        return cls(tuple(range(N, 0, -1)))

    @classmethod
    def from_word(cls, word: Iterable[int], N: int) -> "Perm":
        out = cls.identity(N)
        for i in word:
            out = out * cls.simple(i, N)
        return out

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Perm(tuple(inv))

    def length(self) -> int:
        """Bruhat length, the number of inversions."""
        img = self.images
        return sum(1 for a in range(len(img)) for b in range(a + 1, len(img)) if img[a] > img[b])

    def reduced_word(self) -> list[int]:
        """Indices i_1, ..., i_k with self = s_{i_1} * ... * s_{i_k}, k = length."""
        img = list(self.images)
        word: list[int] = []
        done = False
        while not done:
            done = True
            for i in range(len(img) - 1):
                if img[i] > img[i + 1]:
                    img[i], img[i + 1] = img[i + 1], img[i]
                    word.append(i + 1)
                    done = False
                    break
        word.reverse()
        return word

    def __repr__(self) -> str:
        return f"Perm({format_one_line(self)})"


def format_one_line(p: Perm) -> str:
    """Concatenated digits for N <= 9, comma-separated above that."""
    if p.degree <= 9:
        return "".join(str(v) for v in p.images)
    return ",".join(str(v) for v in p.images)


def is_integer(text: str) -> bool:
    """Whether text is an integer: an optional "-" followed by ASCII digits.

    Every integer input is read by this rule.  int() alone would also read
    spaces, "+", underscores (1_0 as 10) and non-ASCII digits (١ as 1).
    """
    return text.isascii() and text.removeprefix("-").isdigit()


def parse_integers(text: str) -> tuple[int, ...]:
    """The comma-separated integers of text (is_integer), spaces around each allowed.

    Raises ValueError for a part that is not an integer, or that is past
    Python's int-string limit.
    """
    parts = [piece.strip() for piece in text.split(",")]
    for part in parts:
        if not is_integer(part):
            raise ValueError(f"{part!r} is not an integer")
    return tuple(map(int, parts))


def parse_one_line(text: str) -> Perm:
    """Parse one-line notation, raising ValueError that names the bad position."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    parts = [part.strip() for part in (text.split(",") if "," in text else text)]
    # every position is checked before any is read, as parse_integers does,
    # so a number past int()'s digit limit is refused only among integers
    for pos, part in enumerate(parts, start=1):
        if not is_integer(part):
            raise ValueError(f"position {pos}: {part!r} is not a digit")
    images = list(map(int, parts))
    N = len(images)
    seen = set()
    for pos, v in enumerate(images, start=1):
        if not (1 <= v <= N):
            raise ValueError(f"position {pos}: value {v} outside 1..{N}")
        if v in seen:
            raise ValueError(f"position {pos}: value {v} repeated")
        seen.add(v)
    return Perm(tuple(images))


# ---------------------------------------------------------------------------
# The hyperoctahedral group {+-1}^n x| S_n.
# ---------------------------------------------------------------------------

class SignedPerm(Value):
    """Element of {+-1}^n x| S_n as its signed one-line word.

    word[i-1] = f(i) for the odd bijection f of {-n..-1, 1..n} that the
    element is; multiplication is composition of these bijections.
    """

    __slots__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: tuple[int, ...]) -> None:
        n = len(word)
        if sorted(abs(v) for v in word) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation of 1..{n}: {word}")
        set_field(self, "word", word)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if self.n != other.n:
            raise ValueError("size mismatch")
        w = self.word
        return SignedPerm(tuple(w[v - 1] if v > 0 else -w[-v - 1] for v in other.word))

    def inverse(self) -> "SignedPerm":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return SignedPerm(tuple(inv))


def enumerate_signed_perms(n: int) -> Iterator[SignedPerm]:
    """Each permutation of 1..n with each sign vector; value v takes signs[v-1]."""
    for images in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield SignedPerm(tuple(signs[v - 1] * v for v in images))


def embed_wg0(s: SignedPerm, n: int) -> Perm:
    """Embed a signed permutation as an element of S_{2n} preserving purity.

    The head (positions 1..n) is the word read modulo 2n+1, so -j lands
    on 2n+1-j; the tail is the reversed complement of the head.
    """
    if s.n != n:
        raise RankMismatchError(f"signed perm has size {s.n}, expected {n}")
    M = 2 * n + 1
    head = [v % M for v in s.word]
    return Perm(tuple(head + [M - v for v in reversed(head)]))


def in_wg0(sigma: Perm) -> SignedPerm | None:
    """Inverse of embed_wg0 on its image; None off the image.

    The image is cut out by sigma(i) + sigma(2n+1-i) = 2n+1 for all i.
    """
    N = sigma.degree
    if N % 2 != 0:
        return None
    n = N // 2
    for i in range(1, n + 1):
        if sigma(i) + sigma(N + 1 - i) != N + 1:
            return None
    return SignedPerm(tuple(v if v <= n else v - N - 1 for v in sigma.images[:n]))


def enumerate_wg0(n: int) -> list[Perm]:
    """All 2^n n! elements of the purity-preserving subgroup of S_{2n}."""
    return [embed_wg0(s, n) for s in enumerate_signed_perms(n)]


# ---------------------------------------------------------------------------
# Parabolic (Young) subgroups and left cosets.
# ---------------------------------------------------------------------------

def position_blocks(delta: frozenset[int] | set[int], N: int) -> list[range]:
    """Consecutive position blocks of the Young subgroup named by delta.

    delta is a set of simple-reflection indices in {1, ..., N-1}; positions
    i and i+1 sit in one block exactly when i is in delta.
    """
    blocks = []
    start = 1
    for i in range(1, N + 1):
        if i == N or i not in delta:
            blocks.append(range(start, i + 1))
            start = i + 1
    return blocks


def composition_delta(parts: Iterable[int]) -> frozenset[int]:
    """The delta whose position blocks have the lengths parts, in order.

    Inverse of position_blocks: the block of length m starting at position
    start + 1 joins positions start + 1, ..., start + m.
    """
    delta: set[int] = set()
    start = 0
    for m in parts:
        delta.update(range(start + 1, start + m))
        start += m
    return frozenset(delta)


def coset_min_rep(sigma: Perm, delta: frozenset[int] | set[int]) -> Perm:
    """Bruhat-minimal representative of the left coset sigma * W_L.

    Sorting the one-line entries inside each position block gives the
    unique minimal-length member; the operation is idempotent.
    """
    images = list(sigma.images)
    for block in position_blocks(delta, sigma.degree):
        lo, hi = block.start - 1, block.stop - 1
        images[lo:hi] = sorted(images[lo:hi])
    return Perm(tuple(images))


class LeviCoset(Value):
    """Left coset sigma * W_L, canonicalized by its minimal representative."""

    __slots__ = ("rep", "delta")
    rep: Perm
    delta: frozenset[int]

    def __init__(self, rep: Perm, delta: Iterable[int]) -> None:
        """The coset of rep, which may be any member."""
        delta = frozenset(delta)
        set_field(self, "rep", coset_min_rep(rep, delta))
        set_field(self, "delta", delta)

    @property
    def degree(self) -> int:
        return self.rep.degree

    def members(self) -> Iterator[Perm]:
        """All coset members: entries permuted within each position block."""
        blocks = position_blocks(self.delta, self.degree)
        choices = [permutations(self.rep.images[b.start - 1: b.stop - 1]) for b in blocks]
        for combo in product(*choices):
            flat: list[int] = []
            for piece in combo:
                flat.extend(piece)
            yield Perm(tuple(flat))

    def size(self) -> int:
        out = 1
        for b in position_blocks(self.delta, self.degree):
            for k in range(2, len(b) + 1):
                out *= k
        return out

    def block_values(self) -> tuple[tuple[int, ...], ...]:
        """Sorted one-line values in each position block (a set partition)."""
        return tuple(
            tuple(sorted(self.rep.images[b.start - 1: b.stop - 1]))
            for b in position_blocks(self.delta, self.degree)
        )


class Trichotomy(enum.Enum):
    PERMUTES = "permutes"
    ALL_SHORTER = "all_shorter"
    ALL_LONGER = "all_longer"


def simple_trichotomy(s: int, coset: LeviCoset) -> Trichotomy:
    """How left multiplication by the simple reflection s_s moves a coset.

    Exactly one of three things happens: s_s permutes the coset, or it
    shortens every member, or it lengthens every member.  s_s swaps the
    values s and s+1, so the minimal representative decides: it permutes
    the coset when the two share a position block, and otherwise shortens
    every member when s+1 comes first and lengthens every member when s
    does.
    """
    N = coset.degree
    if not (1 <= s <= N - 1):
        raise ValueError(f"simple reflection index {s} outside 1..{N - 1}")
    images = coset.rep.images
    at, at_next = images.index(s), images.index(s + 1)
    if coset.delta.issuperset(range(min(at, at_next) + 1, max(at, at_next) + 1)):
        return Trichotomy.PERMUTES
    return Trichotomy.ALL_SHORTER if at_next < at else Trichotomy.ALL_LONGER


def generate_subgroup(gens: list, identity):
    """Closure of a generating set under multiplication (small groups only)."""
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems

