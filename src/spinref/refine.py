"""Classification of Iwahori and parahoric p-refinements by spin strata.

A refinement of a p-spherical representation of GL(2n) is recorded by its
Weyl-group position, a permutation sigma of {1, ..., 2n} in one-line
notation.  The key notion is the r-spin condition: the first r and last r
one-line values pair off into pairs summing to 2n+1.  Spin conditions are
indexed by subsets of {1, ..., n}, hence by spin parabolics, and every
refinement has a unique optimal (smallest) spin parabolic.

Three equivalent tests for being P-spin are implemented, and kept separate
on purpose so they can be checked against each other:

* weyl: membership of sigma in the set W0 * W_L, decided by enumerating
  the purity-preserving subgroup W0 and comparing coset representatives;
* combinatorial: the r-spin pairing condition for every r in X_P;
* gamma: the canonical pairing function preserves {1, ..., r} for r in X_P.

The switching algorithm repairs a missing spin index with one controlled
transposition at a time, driving any refinement to a fully spin one.
"""

from __future__ import annotations

import io
import itertools
from collections.abc import Iterable
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter

from ._value import Value, set_field
from .parabolic import SelfCheckError, SpinParabolic, all_spin_parabolics
from .parabolic import physical_memory as _physical_memory
from .weyl import (LeviCoset, Perm, coset_min_rep, enumerate_wg0, format_one_line,
                   parse_one_line)

DEFAULT_ENUMERATION_BOUND = 5


class EnumerationBoundError(ValueError):
    """Rank exceeds the configured full-enumeration bound, or memory."""


class Refinement(Value):
    """An Iwahori p-refinement, i.e. a Weyl position sigma in S_{2n}."""

    __slots__ = ("n", "sigma")
    n: int
    sigma: Perm

    def __init__(self, n: int, sigma: Perm) -> None:
        if sigma.degree != 2 * n:
            raise ValueError(f"sigma has degree {sigma.degree}, expected {2 * n}")
        set_field(self, "n", n)
        set_field(self, "sigma", sigma)

    @classmethod
    def from_one_line(cls, text: str) -> "Refinement":
        sigma = parse_one_line(text)
        if sigma.degree % 2 != 0:
            raise ValueError(f"degree {sigma.degree} is odd; need a permutation of 1..2n")
        return cls(sigma.degree // 2, sigma)

    @classmethod
    def identity(cls, n: int) -> "Refinement":
        return cls(n, Perm.identity(2 * n))

    def one_line(self) -> str:
        return format_one_line(self.sigma)

    def __repr__(self) -> str:
        return f"Refinement({self.one_line()})"


class ParahoricRefinement(Value):
    """A P-parahoric refinement: a coset sigma * W_L for the parabolic P."""

    __slots__ = ("parabolic", "coset")
    parabolic: SpinParabolic
    coset: LeviCoset

    def __init__(self, parabolic: SpinParabolic, coset: LeviCoset) -> None:
        set_field(self, "parabolic", parabolic)
        set_field(self, "coset", coset)


class GammaMap(Value):
    """The injective pairing map {1..n} -> {1..2n} attached to a refinement.

    values[i-1] is the unique index g with sigma(i) + sigma(2n+1-g) = 2n+1.
    """

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        set_field(self, "values", values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def preserves_prefix(self, r: int) -> bool:
        """Whether {1, ..., r} maps into itself."""
        return all(self.values[i] <= r for i in range(r))


class SpinProfile(Value):
    """The full spin classification of a refinement."""

    __slots__ = ("spin_set", "optimal")
    spin_set: frozenset[int]
    optimal: SpinParabolic

    def __init__(self, spin_set: frozenset[int], optimal: SpinParabolic) -> None:
        set_field(self, "spin_set", spin_set)
        set_field(self, "optimal", optimal)


def gamma(r: Refinement) -> GammaMap:
    """Pairing function of a refinement: g(i) = 2n+1 - sigma^{-1}(2n+1 - sigma(i))."""
    N = 2 * r.n
    inv = r.sigma.inverse()
    values = tuple(N + 1 - inv(N + 1 - r.sigma(i)) for i in range(1, r.n + 1))
    return GammaMap(values)


def is_r_spin(r: Refinement, k: int) -> bool:
    """The r-spin pairing test on the first and last k one-line values."""
    if not (1 <= k <= r.n):
        raise ValueError(f"spin index {k} outside 1..{r.n}")
    N = 2 * r.n
    img = r.sigma.images
    first = set(img[:k])
    partners = {N + 1 - v for v in img[N - k:]}
    return first == partners


def _grow_masks(values, bits: tuple[int, ...], width: int) -> int:
    """Bitmasks of the first 1, 2, ... values, packed into fields of width bits.

    Field k (counted from the low end, from 0) holds the set
    {values[0], ..., values[k]} as the sum of bits[v].
    """
    mask = packed = shift = 0
    for v in values:
        mask |= bits[v]
        packed |= mask << shift
        shift += width
    return packed


@lru_cache(maxsize=None)
def _sweep_layout(n: int) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """Field width, fill, guard bits, and head and tail value bits at rank n.

    The sweep packs the masks of the first 1..n one-line values (head
    masks, value v as bit v) and of the last 1..n values read from the end
    (tail masks, value v as bit 2n+1-v, the bit of its partner); index k is
    spin exactly when field k-1 of the two agrees.  A field holds a mask
    below bit 2n+1, so adding the fill 2^(2n+1) - 1 to a field of
    head ^ tail sets the field's guard bit 2n+1 exactly when the masks
    differ, without carrying into the next field.  The spin key
    ((head ^ tail) + fill) & guard thus has a guard bit set for each index
    that is not spin.
    """
    N1 = 2 * n + 1
    width = N1 + 1
    fill = sum(((1 << N1) - 1) << (k * width) for k in range(n))
    guard = sum(1 << (N1 + k * width) for k in range(n))
    return (width, fill, guard, tuple(1 << v for v in range(N1)),
            tuple(1 << (N1 - v) for v in range(N1)))


@lru_cache(maxsize=None)
def _key_spin_set(key: int, n: int) -> frozenset[int]:
    """The spin indices of a spin key: those whose guard bit is clear."""
    width = _sweep_layout(n)[0]
    return frozenset(k for k in range(1, n + 1) if not (key >> (k * width - 1)) & 1)


@lru_cache(maxsize=None)
def _wg0_minreps(n: int, delta: frozenset[int]) -> frozenset[tuple[int, ...]]:
    """Minimal representatives of the cosets zeta * W_L meeting W0."""
    return frozenset(coset_min_rep(z, delta).images for z in enumerate_wg0(n))


def is_P_spin(r: Refinement, p: SpinParabolic, method: str = "combinatorial") -> bool:
    """Whether the refinement is P-spin, by one of three equivalent tests."""
    if r.n != p.n:
        raise ValueError("rank mismatch")
    if method == "weyl":
        rep = coset_min_rep(r.sigma, p.delta)
        return rep.images in _wg0_minreps(p.n, p.delta)
    if method == "combinatorial":
        return all(is_r_spin(r, k) for k in sorted(p.xp))
    if method == "gamma":
        g = gamma(r)
        return all(g.preserves_prefix(k) for k in sorted(p.xp))
    raise ValueError(f"unknown method {method!r}")


def spin_set(r: Refinement) -> frozenset[int]:
    """All k in 1..n for which the refinement is k-spin, in one bitmask sweep."""
    n, images = r.n, r.sigma.images
    width, fill, guard, head_bits, tail_bits = _sweep_layout(n)
    head = _grow_masks(images[:n], head_bits, width)
    tail = _grow_masks(images[:n - 1:-1], tail_bits, width)
    return _key_spin_set(((head ^ tail) + fill) & guard, n)


def optimal_parabolic(r: Refinement) -> SpinProfile:
    """The unique smallest spin parabolic P with r P-spin."""
    s = spin_set(r)
    return SpinProfile(s, SpinParabolic.from_xp(s, r.n))


def is_B_spin(r: Refinement) -> bool:
    return len(spin_set(r)) == r.n


def stratum_counts(n: int) -> dict[frozenset[int], int]:
    """The size of every stratum in closed form, keyed by its spin set X_P.

    The refinements that are r-spin for every r in X = {r_1 < ... < r_k}
    number prod_j C(m_j, d_j) * 2^d_j * (d_j!)^2 * (2(n - r_k))!, where
    d_j = r_j - r_{j-1} and m_j = n - r_{j-1} (r_0 = 0): block j of the
    front positions takes one value from each of d_j of the m_j unused pairs
    {v, 2n+1-v} and the mirrored back block takes their partners, each in
    any order, and the middle takes the rest.  Inclusion-exclusion over the
    supersets of X leaves the refinements whose spin set is exactly X; it
    runs as a superset Moebius transform over bitmasks (r in X as bit r-1),
    one pass per bit, in O(n * 2^n) steps.
    """
    # block[prev][r]: the factor of a block from r_{j-1} = prev to r_j = r > prev
    block = [[comb(n - prev, r - prev) * 2 ** (r - prev) * factorial(r - prev) ** 2
              if r > prev else 0 for r in range(n + 1)] for prev in range(n + 1)]
    size = 1 << n
    exact = []
    for mask in range(size):
        count, prev = 1, 0
        for r in range(1, n + 1):
            if mask >> (r - 1) & 1:
                count *= block[prev][r]
                prev = r
        exact.append(count * factorial(2 * (n - prev)))
    for bit in (1 << i for i in range(n)):
        for mask in range(size):
            if not mask & bit:
                exact[mask] -= exact[mask | bit]
    return {frozenset(r for r in range(1, n + 1) if mask >> (r - 1) & 1): exact[mask]
            for mask in range(size)}


class StratumCountError(SelfCheckError):
    """An enumerated stratum's size differs from its closed-form count."""


def stratum_words(n: int, bound: int = DEFAULT_ENUMERATION_BOUND
                  ) -> dict[SpinParabolic, tuple[int, Iterable[bytes]]]:
    """Partition all (2n)! one-line words by their optimal spin parabolic.

    Every spin parabolic appears as a key, possibly with an empty stratum.
    A stratum is (size, chunks): its member count, and bytes objects that
    concatenate to its members' one-line images, one byte per value and 2n
    bytes per member, in one-line order.

    The words are enumerated as a head h (the first n values, in one-line
    order) followed by each arrangement of the rest R of the values, which
    is one-line order overall.  Index k is spin when the last k values are
    the partners 2n+1-v of h's first k values v, so it is not spin once
    one of these partners lies in h.  Let j be the largest count with the
    partners of h's first j values all in R; each head takes one of three
    ways:

    * j = 0: no index is spin, and all of R's arrangements go to the
      stratum of G (X_P empty);
    * 0 < j < n: only indices up to j can be spin, and which are depends
      on R and h's first j values alone, so each such pair splits R's
      arrangements into strata once, for all the heads that share it, and
      each part is one head.join write.  These heads share h(1), and the
      splits are dropped whenever h(1) changes, which keeps memory flat;
    * j = n: R holds the partners of all of h, so index n is spin and
      none goes to G.  Which other indices are spin depends only on the
      order of h's values, so each of the n! orders splits the positions
      of R's arrangements into strata once, and each part is one head.join
      write of the arrangements gathered at its positions.

    A test compares the head's prefix masks, grown once per head, with the
    arrangement's complemented-suffix masks, grown once per arrangement of
    each set R, in one packed comparison.  At n = 5, 3,840 of the 30,240
    heads take the last way, and 309,600 tests place all 3,628,800 words.

    G, most of the words (77.5 % at n = 5, 84 % at n = 6), is not copied:
    each head with j < n adds at most one part, the head and a list of
    tails after an empty one, held by reference (R's arrangements for
    j = 0, the split's G group otherwise), and G's chunks are the parts'
    head.join, made only as they are read.  Every other stratum is
    one buffer, allocated once at its closed-form size, so memory does not
    depend on how growing buffers happen to fragment the heap.  Every size
    is checked against what the enumeration wrote.  A rank whose words,
    (2n)! * 2n bytes, exceed physical memory is refused before any buffer
    is allocated; this is an upper bound on what is held.  The product is
    multiplied out only until it passes both the memory figure and the
    10^60 below which the message shows it.
    """
    if n > bound:
        raise EnumerationBoundError(
            f"n={n} exceeds the enumeration bound {bound}; raise the bound explicitly")
    N = 2 * n
    have = _physical_memory()
    if have is not None:
        need, cap = N, max(have, 10 ** 60)
        for k in range(2, N + 1):
            need *= k
            if need > cap:
                break
        if need > have:
            # a factorial past 60 digits: str() refuses more than 4300, which n >= 779 reach
            shown = need if need < 10 ** 60 else f"({N})! * {N}"
            raise EnumerationBoundError(
                f"n={n} needs {shown} bytes of stratum buffers, more than the {have} bytes "
                f"of physical memory")
    width, fill, guard, head_bits, tail_bits = _sweep_layout(n)
    top = (n - 1) * width
    values = range(1, N + 1)
    everything = sum(1 << v for v in values)
    # Every arrangement of each set of n values after an empty one, so that
    # head.join(...) writes the head before each, and their tail masks, keyed
    # by the set's mask.
    tails = {}
    for rest in itertools.combinations(values, n):
        arrangements = list(itertools.permutations(rest))
        tails[sum(1 << v for v in rest)] = (
            [b"", *map(bytes, arrangements)],
            [_grow_masks(tail[::-1], tail_bits, width) for tail in arrangements])
    counts = stratum_counts(n)
    streams = {p: io.BytesIO() for p in all_spin_parabolics(n) if p.xp}
    writers = {}
    for p, stream in streams.items():
        if counts[p.xp]:
            # Writing the last byte sizes the buffer; the words then
            # overwrite it from the start.
            stream.seek(counts[p.xp] * N - 1)
            stream.write(b"\0")
            stream.seek(0)
        key = sum(1 << (k * width - 1) for k in range(1, n + 1) if k not in p.xp)
        writers[key] = stream.write
    # G's parts, as parallel lists: no tuple per part for the collector to track
    g_heads, g_tails = [], []
    add_head, add_tails = g_heads.append, g_tails.append
    first, splits, patterns = None, {}, {}
    for head in itertools.permutations(values, n):
        head_masks = _grow_masks(head, head_bits, width)
        head_bytes = bytes(head)
        # The top field of the head masks is the set of the head's values.
        rest = everything ^ (head_masks >> top)
        j = 0
        while j < n and rest >> (N + 1 - head[j]) & 1:
            j += 1
        words, masks = tails[rest]
        if j == 0:
            add_head(head_bytes)
            add_tails(words)
        elif j < n:
            if head[0] != first:
                first, splits = head[0], {}
            split = splits.get((rest, head[:j]))
            if split is None:
                groups = {}
                for tail_bytes, tail_masks in zip(words[1:], masks):
                    groups.setdefault(((head_masks ^ tail_masks) + fill) & guard,
                                      [b""]).append(tail_bytes)
                split = splits[rest, head[:j]] = (groups.pop(guard, None),
                                                  [(writers[key], group)
                                                   for key, group in groups.items()])
            g_group, writes = split
            if g_group:
                add_head(head_bytes)
                add_tails(g_group)
            for write, group in writes:
                write(head_bytes.join(group))
        else:
            # The m-th smallest value of R partners h's m-th largest value, so
            # heads whose values come in the same order split R's
            # arrangements alike.
            order = tuple(sorted(range(n), key=head.__getitem__))
            split = patterns.get(order)
            if split is None:
                groups = {}
                for index, tail_masks in enumerate(masks, 1):
                    groups.setdefault(((head_masks ^ tail_masks) + fill) & guard,
                                      [0]).append(index)
                split = patterns[order] = [(writers[key], itemgetter(*group))
                                           for key, group in groups.items()]
            for write, gather in split:
                write(head_bytes.join(gather(words)))
    sizes = {p: stream.tell() // N for p, stream in streams.items()}
    g = SpinParabolic.full_group(n)
    sizes[g] = sum(map(len, g_tails)) - len(g_tails)
    for p, size in sizes.items():
        if size != counts[p.xp]:
            raise StratumCountError(
                f"stratum {p.label()} has {size} members, closed form {counts[p.xp]}")
    return {p: (sizes[p], map(bytes.join, g_heads, g_tails) if p == g
                else [streams[p].getvalue()])
            for p in all_spin_parabolics(n)}


def stratify(n: int, bound: int = DEFAULT_ENUMERATION_BOUND
             ) -> dict[SpinParabolic, list[Refinement]]:
    """Partition all (2n)! refinements by their optimal spin parabolic.

    Every spin parabolic appears as a key, possibly with an empty stratum;
    members are sorted by one-line notation.
    """
    N = 2 * n
    strata = {}
    for p, (_, chunks) in stratum_words(n, bound).items():
        words = b"".join(chunks)
        strata[p] = [Refinement(n, Perm(tuple(words[i:i + N]))) for i in range(0, len(words), N)]
    return strata


def parahoric_restrict(r: Refinement, p: SpinParabolic) -> ParahoricRefinement:
    """The unique P-parahoric refinement under an Iwahori refinement."""
    if r.n != p.n:
        raise ValueError("rank mismatch")
    return ParahoricRefinement(p, LeviCoset.of(r.sigma, p.delta))


def parahoric_is_spin(pr: ParahoricRefinement) -> bool:
    """Whether a parahoric refinement is P-spin.

    Equivalent to any (hence every) Iwahori extension being P-spin, so the
    minimal coset representative decides.
    """
    return is_P_spin(Refinement(pr.parabolic.n, pr.coset.rep), pr.parabolic)


class SwitchingInvariantError(SelfCheckError):
    """The located transposition fell outside its guaranteed window."""


def improve_spin_step(r: Refinement) -> tuple[int, int, Refinement]:
    """One switching step: add the smallest missing index to the spin set.

    For i the minimal index missing from the spin set, the unique j with
    sigma(j) + sigma(2n+1-i) = 2n+1 satisfies i+1 <= j <= k, where k is
    2n-i when i-1 tops the spin set and otherwise the next spin index
    above i-1.  Right-multiplying by (i, j) yields a refinement whose spin
    set gained i (and kept everything below k).
    """
    n = r.n
    N = 2 * n
    X = spin_set(r)
    if len(X) == n:
        raise ValueError("refinement is already fully spin")
    i = min(m for m in range(1, n + 1) if m not in X)
    above = sorted(m for m in X if m > i - 1)
    k = N - i if not above else above[0]
    j = r.sigma.inverse()(N + 1 - r.sigma(N + 1 - i))
    if not (i + 1 <= j <= k):
        raise SwitchingInvariantError(
            f"transposition target j={j} outside window [{i + 1}, {k}] for {r.one_line()}")
    switched = Refinement(n, r.sigma * Perm.transposition(i, j, N))
    if not is_r_spin(switched, i):
        raise SwitchingInvariantError(f"switch failed to make {r.one_line()} {i}-spin")
    return i, j, switched


def to_B_spin(r: Refinement) -> tuple[list[tuple[int, int]], Refinement]:
    """Drive a refinement to a fully spin one by repeated switching.

    Returns the transpositions tau = [(i_1, j_1), ...] applied in order on
    the right, and the final refinement; the count is at most n minus the
    size of the starting spin set.
    """
    taus: list[tuple[int, int]] = []
    budget = r.n - len(spin_set(r))
    current = r
    while not is_B_spin(current):
        i, j, current = improve_spin_step(current)
        taus.append((i, j))
        if len(taus) > budget:
            raise SwitchingInvariantError(
                f"needed more than {budget} switches for {r.one_line()}")
    return taus, current
