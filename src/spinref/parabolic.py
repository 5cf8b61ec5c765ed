"""Standard parabolics of GL(2n), spin parabolics, and weight combinatorics.

A standard parabolic is recorded by the set delta of simple-root indices in
its Levi, equivalently by the composition (m_1, ..., m_r) of 2n cutting the
diagonal into blocks.  It is *spin* when delta is symmetric under
i <-> 2n-i, equivalently when the composition is palindromic; spin
parabolics biject (inclusion-reversingly) with subsets X of {1, ..., n}
via X = {i <= n : a_i not in delta}.

Only standard spin parabolics (containing the fixed upper Borel) are
modeled: a non-spin delta is refused when the parabolic is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .rootdata import GLCocharacter, PureWeight
from .weyl import composition_delta, position_blocks


class NotSpinError(ValueError):
    """Raised for a non-spin composition, or a parabolic outside the (n, n)-parabolic."""


class SelfCheckError(RuntimeError):
    """An internal self-check failed: the computation, not the input, is at fault."""


class RankMemoryError(ValueError):
    """A composition whose Levi's simple roots cannot fit in physical memory."""


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class SpinParabolic:
    """Standard spin parabolic of GL(2n); a non-spin delta raises NotSpinError.

    Fields:
        n: ambient rank (the group is GL(2n)).
        delta: simple-root indices i in {1, ..., 2n-1} with a_i in the Levi,
            symmetric under i <-> 2n-i.
        composition: block sizes (m_1, ..., m_r), a palindrome summing to 2n.
        xp: {i <= n : a_i not in delta}.
    """

    n: int
    delta: frozenset[int]
    composition: tuple[int, ...] = field(init=False)
    xp: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        N = 2 * self.n
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        if any(not (1 <= i <= N - 1) for i in self.delta):
            raise ValueError(f"delta {set(self.delta)} not inside 1..{N - 1}")
        composition = tuple(len(b) for b in position_blocks(self.delta, N))
        if any((N - i) not in self.delta for i in self.delta):
            raise NotSpinError(f"composition {composition} is not symmetric around the middle")
        object.__setattr__(self, "composition", composition)
        object.__setattr__(
            self, "xp", frozenset(i for i in range(1, self.n + 1) if i not in self.delta))

    @classmethod
    def from_composition(cls, parts: Iterable[int]) -> "SpinParabolic":
        """Spin parabolic with Levi GL(m_1) x ... x GL(m_r); m must be a palindrome.

        Both the palindrome and the size of delta, 2n - r indices, are
        checked before delta is built: one huge part would otherwise fill
        memory.  Building delta peaks at about 100 bytes per index (an int
        object, the set's table as it grows, the frozenset's copy; 99 to 116
        measured on 64-bit CPython 3.11), so a rank for which 100 bytes per
        index exceed physical memory raises RankMemoryError.
        """
        parts = tuple(parts)
        if not parts or any(m <= 0 for m in parts):
            raise ValueError(f"composition parts must be positive, got {parts}")
        total = sum(parts)
        if total % 2 != 0:
            raise ValueError(f"composition must sum to an even number, got {total}")
        if parts != parts[::-1]:
            raise NotSpinError(f"composition {parts} is not symmetric around the middle")
        n, have = total // 2, physical_memory()
        if have is not None and 100 * (total - len(parts)) > have:
            shown = f"n={n}" if n < 10 ** 60 else "n above 10^60"
            raise RankMemoryError(
                f"rank {shown} needs more than the {have} bytes of physical memory for "
                f"the Levi of its composition")
        return cls(n, composition_delta(parts))

    @classmethod
    def from_xp(cls, x: Iterable[int], n: int) -> "SpinParabolic":
        """Spin parabolic with X_P = x; inverse of the xp projection."""
        x = frozenset(x)
        if any(not (1 <= i <= n) for i in x):
            raise ValueError(f"X_P {set(x)} not inside 1..{n}")
        delta: set[int] = set()
        for i in range(1, n + 1):
            if i not in x:
                delta.add(i)
                delta.add(2 * n - i)
        return cls(n, frozenset(delta))

    @classmethod
    def borel(cls, n: int) -> "SpinParabolic":
        return cls(n, frozenset())

    @classmethod
    def full_group(cls, n: int) -> "SpinParabolic":
        return cls(n, frozenset(range(1, 2 * n)))

    @property
    def is_borel(self) -> bool:
        return not self.delta

    @property
    def is_full_group(self) -> bool:
        return len(self.delta) == 2 * self.n - 1

    @property
    def contained_in_nn(self) -> bool:
        """Whether the parabolic sits inside the (n, n)-parabolic."""
        return self.n not in self.delta

    def intersect(self, other: "SpinParabolic") -> "SpinParabolic":
        """Parabolic intersection: intersect deltas (X_P's take a union)."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return SpinParabolic(self.n, self.delta & other.delta)

    def contains(self, other: "SpinParabolic") -> bool:
        return self.n == other.n and other.delta <= self.delta

    def staircase_cochar(self) -> GLCocharacter:
        """Exponents of the block staircase diag(p^{r-1} I_{m_1}, ..., I_{m_r})."""
        exps: list[int] = []
        r = len(self.composition)
        for height, m in zip(range(r - 1, -1, -1), self.composition):
            exps.extend([height] * m)
        return GLCocharacter(self.n, tuple(exps))

    def label(self) -> str:
        if self.is_borel:
            return "B"
        if self.is_full_group:
            return "G"
        return ",".join(str(m) for m in self.composition)

    def __repr__(self) -> str:
        return f"SpinParabolic({self.label()})"


def all_spin_parabolics(n: int) -> Iterator[SpinParabolic]:
    """All 2^n spin parabolics, from the Borel (X = {1..n}) up to G (X = {})."""
    subsets: list[frozenset[int]] = [frozenset()]
    for i in range(1, n + 1):
        subsets += [s | {i} for s in subsets]
    for x in sorted(subsets, key=lambda s: (-len(s), sorted(s))):
        yield SpinParabolic.from_xp(x, n)


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse "m1,m2,...,mr" into a composition tuple."""
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError("parts must be integers") from exc


def format_xp(x: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(x)) + "}"


# ---------------------------------------------------------------------------
# Pure-weight combinatorics over a parabolic.
# ---------------------------------------------------------------------------

def weight_in_parabolic_coset(lam: PureWeight, base: PureWeight, p: SpinParabolic) -> bool:
    """Whether lam lies in the P-parabolic weight coset through base.

    Membership means the consecutive gaps lambda_i - lambda_{i+1} agree
    with base's for every i with a_i in delta; the free directions are
    exactly the gaps at i in X_P (and overall twist).
    """
    if lam.n != base.n or lam.n != p.n:
        raise ValueError("rank mismatch")
    return all(lam.gap(i) == base.gap(i) for i in sorted(p.delta))


def pure_parabolic_dim(p: SpinParabolic) -> int:
    """Dimension #X_P + 1 of the pure P-parabolic weight family."""
    return len(p.xp) + 1


def pure_basis_weights(n: int) -> list[tuple[int, ...]]:
    """The staircase basis alpha_0, ..., alpha_n of the pure weight lattice.

    alpha_0 = (1, ..., 1); alpha_j (1 <= j <= n-1) has 1 in the first j
    slots and -1 in the last j; alpha_n has 1 in the first n slots.
    """
    out = [tuple([1] * (2 * n))]
    for j in range(1, n):
        vec = [0] * (2 * n)
        for k in range(j):
            vec[k] = 1
            vec[2 * n - 1 - k] = -1
        out.append(tuple(vec))
    out.append(tuple([1] * n + [0] * n))
    return out


def alpha_basis_decompose(lam: PureWeight, base: PureWeight) -> tuple[tuple[int, ...], bool]:
    """Coefficients (mu_0, ..., mu_n) of lam - base in the staircase basis.

    The triangular system gives mu_0 = d_{n+1}, mu_n = d_n - d_{n+1} and
    mu_j = d_j - d_{j+1} for j < n, where d = lam - base.  Returns the
    coefficient vector and a flag for all mu_i >= 0.  Differences with odd
    purity gap are rejected: the critical-integer shift divides the gap
    by two, so only even gaps are admissible downstream.
    """
    if lam.n != base.n:
        raise ValueError("rank mismatch")
    n = lam.n
    d = tuple(a - b for a, b in zip(lam.coeffs, base.coeffs))
    sw_gap = lam.sw - base.sw
    if sw_gap % 2 != 0:
        raise ValueError(f"purity weight gap {sw_gap} is odd; not representable here")
    mu = [0] * (n + 1)
    mu[0] = d[n]
    mu[n] = d[n - 1] - d[n]
    for j in range(1, n):
        mu[j] = d[j - 1] - d[j]
    # re-assemble to confirm (the lower half is determined by purity)
    rebuilt = [0] * (2 * n)
    for c, vec in zip(mu, pure_basis_weights(n)):
        for k in range(2 * n):
            rebuilt[k] += c * vec[k]
    if tuple(rebuilt) != d:
        raise ValueError("difference is not in the pure lattice span")
    return tuple(mu), all(c >= 0 for c in mu)


def crit_range(lam: PureWeight) -> range:
    """Critical integers {j : -lambda_{n+1} >= j >= -lambda_n}, ascending.

    Dominance makes the interval nonempty; it is the singleton {-lambda_n}
    when the middle entries agree.
    """
    if not lam.is_dominant:
        raise ValueError(f"weight {lam.coeffs} is not dominant")
    lo = -lam.coeffs[lam.n - 1]
    hi = -lam.coeffs[lam.n]
    return range(lo, hi + 1)


def critical_shift(j: int, lam: PureWeight, base: PureWeight) -> int:
    """Shift a critical integer for base to one for lam: j - (sw gap)/2."""
    sw_gap = lam.sw - base.sw
    if sw_gap % 2 != 0:
        raise ValueError(f"purity weight gap {sw_gap} is odd")
    return j - sw_gap // 2
