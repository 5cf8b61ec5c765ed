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

import itertools
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter

from ._value import Value, set_field
from .parabolic import SelfCheckError, SpinParabolic, all_spin_parabolics, require_memory
from .weyl import (LeviCoset, Perm, coset_min_rep, enumerate_wg0, format_one_line,
                   parse_one_line)

DEFAULT_ENUMERATION_BOUND = 5


class EnumerationBoundError(ValueError):
    """Rank exceeds the configured full-enumeration bound (--bound)."""


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


class GammaMap(Value):
    """The injective pairing map {1..n} -> {1..2n} attached to a refinement.

    values[i-1] is the unique index g with sigma(i) + sigma(2n+1-g) = 2n+1.
    """

    __slots__ = ("values",)
    values: tuple[int, ...]

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
    """All k in 1..n for which the refinement is k-spin.

    Grows a mask of the first k values and one of the partners 2n+1-v of
    the last k values together; k is spin when they agree.
    """
    images, N1 = r.sigma.images, 2 * r.n + 1
    first = partners = 0
    spins = []
    for k in range(r.n):
        first |= 1 << images[k]
        partners |= 1 << (N1 - images[-1 - k])
        if first == partners:
            spins.append(k + 1)
    return frozenset(spins)


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


def _head_table_bytes(n: int, sep: str) -> int:
    """An upper bound of the bytes that stratum_words(n, sep) holds, in closed form.

    Counted on 64-bit CPython: a list or dict slot at 9 bytes (lists
    grow by an eighth), a dict entry at 56, a dict at 224 and a list at 104
    with its slack, a pair at 56, a bytes object of m characters at 33 + m,
    an ASCII text of m characters at 49 + m, and an int (a mask, a position
    or a spin set) at 32.  A head and one of its arrangements write every
    value once, so their texts hold P characters together: sep and as many
    as the one-line text of the identity (above degree 9 the head's
    trailing comma is the one between its values and the arrangement's).
    The table holds

    * C(2n, n) sets R, each with its n! arrangements as text, in a list
      after an empty one, and the ranks of the partners as bytes;
    * the suffix index (_suffix_positions): the positions 1..n!, and for
      each of the 2^n sets of ranks its (k, mask) key and a list of
      positions, n slots per position in all;
    * (2n)!/n! heads (as many as arrangements), each its text, a record
      of four and a slot in the records and in each by_min list;
    * one split per ordered choice of j of the n ranks, for j = 0..n
      other than n-1 (see stratum_words), each with its key, n! position
      slots and at most 2^j groups, and the n! spin sets of the split
      being made;
    * a chunk being read: the tuple of its arrangements, at most n!, and
      its bytes, its text and the text less its first sep, each of at most
      n! * P characters;
    * about 1 kB for each stratum's parabolic, key and count, and 16 kB for
      what a process makes once (the caches, the memory limit's reads).

    Measured with tracemalloc on 64-bit CPython 3.11, stratum_words(n, " ")
    and the reading of every stratum peaked at about 48 kB, 0.40 MB and
    6.6 MB at n = 3, 4 and 5, and with the json sep '", "' a little lower;
    this bound gives 1.2 to 2.1 times as much.  At n = 6 it is 171 MB
    against a traced 138 MB; at n = 7 it is 4.7 GB.
    """
    F, C = factorial(n), comb(2 * n, n)
    SLOT, ENTRY, DICT, LIST, PAIR, INT = 9, 56, 224, 104, 56, 32
    P = len(sep) + len(format_one_line(Perm.identity(2 * n)))
    total = (16384 + 1024 * 2 ** n + C * (ENTRY + INT + PAIR + LIST + 34 + 2 * n)
             + C * F * (2 * 33 + P + 72 + (n + 1) * SLOT) + F * (SLOT + 3 * P) + 3 * 49
             + F * (INT + (n + 2) * SLOT) + 2 ** n * (ENTRY + PAIR + INT + LIST) + LIST)
    for j in (*range(n - 1), n):
        total += F // factorial(n - j) * (ENTRY + 40 + 8 * j + LIST + DICT + F * SLOT
                                          + 2 ** j * (ENTRY + LIST + INT))
    return total


@lru_cache(maxsize=None)
def _suffix_positions(n: int) -> tuple[tuple[int, ...], dict[tuple[int, int], list[int]]]:
    """The positions 1..n! of the arrangements of the ranks 0..n-1, and for
    each k and set of k ranks (rank r as bit r), the positions of the
    arrangements whose last k ranks form that set.  Every split shares
    these position ints."""
    positions = tuple(range(1, factorial(n) + 1))
    index = {}
    for position, arrangement in zip(positions, itertools.permutations(range(n))):
        mask = 0
        for k, rank in enumerate(reversed(arrangement), 1):
            mask |= 1 << rank
            index.setdefault((k, mask), []).append(position)
    return positions, index


def _rank_split(n: int, ranks: tuple[int, ...]) -> dict[int, list[int]]:
    """The split of every R's arrangements for heads with these partner ranks.

    ranks holds the rank within R of the partner of each of the head's
    first j values, for the longest run whose partners lie in R (see
    stratum_words).  Index k <= j is spin exactly when an arrangement's
    last k ranks are the first k of ranks, and no index above j is spin.
    The result maps a spin set (k as bit k-1) to the positions 1..n! of
    the arrangements that give it, after a 0.
    """
    positions, index = _suffix_positions(n)
    keys = [0] * (len(positions) + 1)
    mask = 0
    for k, rank in enumerate(ranks, 1):
        mask |= 1 << rank
        for position in index[k, mask]:
            keys[position] |= 1 << (k - 1)
    groups = {}
    for position in positions:
        groups.setdefault(keys[position], [0]).append(position)
    return groups


def _head_table(n: int, sep: str) -> tuple[list[tuple], Counter]:
    """One pass over the heads: a record for every head, and every size.

    Returns a record (j, head, groups, words) for every head, in one-line
    order, and the member count of each spin set (k as bit k-1).  Words
    are ASCII bytes of one-line text (format_one_line): head is sep, the
    head's text and, above degree 9, a comma; words is the text of each of
    R's arrangements after an empty one, so that head.join writes the head
    before each.  groups maps a spin set to the positions in words of the
    head's part of that stratum, after a 0; it is the split that all heads
    with the same partner ranks share (_rank_split).  Sets of values are
    masks (v as bit v).  The split table is freed on return, before any
    stratum is read.
    """
    N = 2 * n
    bits = tuple(1 << v for v in range(N + 1))
    everything = sum(bits[1:])
    comma = b"," if N > 9 else b""
    texts = [str(v).encode() for v in range(N + 1)]
    # For each set R of n values, keyed by its mask: its arrangements, and
    # the rank within R of each value's partner (n when the partner is not
    # in R).
    tails = {}
    for rest in itertools.combinations(range(1, N + 1), n):
        rank = [n] * (N + 1)
        for i, v in enumerate(rest):
            rank[N + 1 - v] = i
        tails[sum(map(bits.__getitem__, rest))] = (
            [b"", *map(comma.join, itertools.permutations(map(texts.__getitem__, rest)))],
            bytes(rank))
    lead = sep.encode("ascii")
    splits, uses, records = {}, Counter(), []
    add_record = records.append
    for values in itertools.permutations(range(1, N + 1), n):
        words, rank = tails[everything ^ sum(map(bits.__getitem__, values))]
        ranks = tuple(itertools.takewhile(n.__gt__, map(rank.__getitem__, values)))
        groups = splits.get(ranks)
        if groups is None:
            groups = splits[ranks] = _rank_split(n, ranks)
        uses[ranks] += 1
        head = lead + comma.join(map(texts.__getitem__, values)) + comma
        add_record((len(ranks), head, groups, words))
    sizes = Counter()
    for ranks, groups in splits.items():
        for key, group in groups.items():
            sizes[key] += uses[ranks] * (len(group) - 1)
    return records, sizes


def _joined_groups(records: list[tuple], key: int) -> Iterator[str]:
    """head.join of each record's group for the spin key, in record order."""
    for _, head, groups, words in records:
        group = groups.get(key)
        if group is not None:
            # a group of every position (G at j = 0) is words itself
            yield head.join(words if len(group) == len(words)
                            else itemgetter(*group)(words)).decode("ascii")


def stratum_words(n: int, sep: str, bound: int = DEFAULT_ENUMERATION_BOUND
                  ) -> dict[SpinParabolic, tuple[int, Iterator[str]]]:
    """Partition all (2n)! one-line words by their optimal spin parabolic.

    Every spin parabolic appears as a key, possibly with an empty stratum.
    A stratum is (size, chunks): its member count, and a lazy iterator of
    texts that concatenate to sep before each member's one-line text
    (format_one_line), in one-line order; sep is ASCII.  A chunk is one
    head's part of the stratum, at most n! members.  Each iterator can be
    read once, and the strata in any order; a chunk is made only when it
    is read.

    The words are enumerated as a head h (the first n values, in one-line
    order) followed by each arrangement of the rest R of the values, which
    is one-line order overall.  Index k is spin when the last k values are
    the partners 2n+1-v of h's first k values v, so it is not spin once
    one of these partners lies in h.  Let j be the largest count with the
    partners of h's first j values all in R.  itertools.permutations lists
    every R's arrangements in the same order of ranks within R, so which
    arrangements make an index k <= j spin depends only on the ranks
    within R of those j partners.  Each rank tuple splits the positions of
    the arrangements into strata once, for all the heads that share it
    (_rank_split): the empty tuple (j = 0) sends every arrangement to G
    (X_P empty), and at j = n the ranks are the reversed order of h's
    values.  No head has j = n-1, as R would hold the partners of its
    first n-1 values and of its last, so there are sum_j n!/(n-j)! - n!
    tuples.  A split keys each arrangement by its spin set (k as bit k-1):
    for each k <= j it sets bit k-1 of the arrangements whose last k ranks
    are the set of the tuple's first k, listed in one index of suffix sets
    (_suffix_positions).  At n = 5, 206 splits group 24,720 positions and
    place all 3,628,800 words.

    Every text is made once, in the pass (_head_table): each head is a
    record of its j, its text, its split and the texts of R's arrangements,
    and stratum X, which only heads with j >= max X reach (every head, for
    G), is the head.join of the arrangements at its group's positions in
    each such record, in head order, decoded once.  Every size is counted
    in the pass and checked against the closed form before any chunk is
    made.  A rank whose head table
    (_head_table_bytes) exceeds the memory this process may use is
    refused before the pass (parabolic.require_memory).
    """
    if n > bound:
        raise EnumerationBoundError(
            f"n={n} exceeds the enumeration bound {bound}; raise the bound explicitly")
    # The (2n)!/n! heads are multiplied out only until they pass 10^60,
    # which no memory reaches; a rank with more heads needs more bytes than
    # that, and is refused without the sum.
    heads, cap = 1, 10 ** 60
    for k in range(n + 1, 2 * n + 1):
        heads *= k
        if heads > cap:
            break
    require_memory(n, _head_table_bytes(n, sep) if heads <= cap else heads,
                   "for its head table")
    records, sizes = _head_table(n, sep)
    counts = stratum_counts(n)
    keys = {p: sum(1 << (k - 1) for k in p.xp) for p in all_spin_parabolics(n)}
    for p, key in keys.items():
        if sizes[key] != counts[p.xp]:
            raise StratumCountError(
                f"stratum {p.label()} has {sizes[key]} members, closed form {counts[p.xp]}")
    # by_min[m - 1]: the records with j >= m, in head order, where the first
    # also holds the heads with j = 0, as G reads every record
    by_min = [records]
    for m in range(2, n + 1):
        by_min.append([record for record in by_min[-1] if record[0] >= m])
    return {p: (sizes[key], _joined_groups(by_min[max(p.xp, default=1) - 1], key))
            for p, key in keys.items()}


def stratify(n: int, bound: int = DEFAULT_ENUMERATION_BOUND
             ) -> dict[SpinParabolic, list[Refinement]]:
    """Partition all (2n)! refinements by their optimal spin parabolic.

    Every spin parabolic appears as a key, possibly with an empty stratum;
    members are sorted by one-line notation.
    """
    return {p: list(map(Refinement.from_one_line, "".join(chunks).split()))
            for p, (_, chunks) in stratum_words(n, " ", bound).items()}


def parahoric_restrict(r: Refinement, p: SpinParabolic) -> ParahoricRefinement:
    """The unique P-parahoric refinement under an Iwahori refinement."""
    if r.n != p.n:
        raise ValueError("rank mismatch")
    return ParahoricRefinement(p, LeviCoset(r.sigma, p.delta))


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
