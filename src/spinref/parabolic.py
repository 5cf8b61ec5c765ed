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
import re
from collections.abc import Iterable, Iterator
from functools import cache

from ._value import Value, set_field
from .rootdata import GLCocharacter, PureWeight
from .weyl import composition_delta, parse_integers, position_blocks


class NotSpinError(ValueError):
    """Raised for a non-spin composition, or a parabolic outside the (n, n)-parabolic."""


class SelfCheckError(RuntimeError):
    """An internal self-check failed: the computation, not the input, is at fault."""


class RankMemoryError(MemoryError):
    """A request whose memory need exceeds the memory this process may use.

    Raised only by require_memory, before the work is begun: for
    classify's head table, a composition's Levi, or a zeta verdict.
    """


def _read_text(path: str) -> str | None:
    """The text of a file, or None where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, ValueError):
        return None


def _cgroup_limits() -> list[int]:
    """The memory limits of this process's cgroups and of the cgroups above them.

    /proc/self/cgroup names a cgroup path per hierarchy: a cgroup v2 line
    has no controllers and its limit is memory.max under /sys/fs/cgroup, a
    cgroup v1 line lists memory and its limit is memory.limit_in_bytes
    under /sys/fs/cgroup/memory.  "max", or a file that cannot be read,
    sets no limit.
    """
    limits = []
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if not controllers:
            base, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            base, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            text = _read_text("/".join([base, *parts[:depth], name])) or ""
            if text.strip().isdecimal():
                limits.append(int(text))
    return limits


@cache
def physical_memory() -> int | None:
    """Bytes of memory this process may use, or None where nothing says.

    The smallest of physical memory, the process's cgroup limits
    (_cgroup_limits) and its soft RLIMIT_AS and RLIMIT_DATA (where the resource
    module exists) less the VmSize and VmData it maps, read once per process.
    """
    limits = _cgroup_limits()
    try:
        limits.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        import resource
    except ImportError:  # not on Windows
        pass
    else:
        status = _read_text("/proc/self/status") or ""
        for limit, mapped in ((resource.RLIMIT_AS, "VmSize"), (resource.RLIMIT_DATA, "VmData")):
            soft, _ = resource.getrlimit(limit)
            if soft != resource.RLIM_INFINITY:
                used = re.search(rf"^{mapped}:\s*(\d+) kB$", status, re.MULTILINE)
                limits.append(max(0, soft - (1024 * int(used[1]) if used else 0)))
    return min(limits, default=None)


# A figure in a refusal is written out below this, and as "over 10^60" from it.
_QUOTED_BELOW = 10 ** 60


def require_memory(n: int, need: int, purpose: str) -> None:
    """Raise RankMemoryError when need bytes exceed the memory this process may use.

    need is what the request at rank n holds, and purpose names it after
    "bytes", as "for its head table".  Every memory refusal is raised
    here, with one sentence: "n=3 needs 70441 bytes for its head table,
    more than the 70440 bytes of memory this process may use".  From
    10^60 on, n and need are written "n above 10^60" and "over 10^60".
    Where physical_memory says nothing, nothing is refused.
    """
    have = physical_memory()
    if have is not None and need > have:
        rank = f"n={n}" if n < _QUOTED_BELOW else "n above 10^60"
        shown = need if need < _QUOTED_BELOW else "over 10^60"
        raise RankMemoryError(f"{rank} needs {shown} bytes {purpose}, more than the {have} "
                              f"bytes of memory this process may use")


class SpinParabolic(Value):
    """Standard spin parabolic of GL(2n); a non-spin delta raises NotSpinError.

    Fields:
        n: ambient rank (the group is GL(2n)).
        delta: simple-root indices i in {1, ..., 2n-1} with a_i in the Levi,
            symmetric under i <-> 2n-i.
        composition: block sizes (m_1, ..., m_r), a palindrome summing to 2n.
        xp: {i <= n : a_i not in delta}.
    """

    __slots__ = ("n", "delta", "composition", "xp")
    n: int
    delta: frozenset[int]
    composition: tuple[int, ...]
    xp: frozenset[int]

    def __init__(self, n: int, delta: frozenset[int]) -> None:
        N = 2 * n
        if n < 1:
            raise ValueError("rank must be >= 1")
        if any(not (1 <= i <= N - 1) for i in delta):
            raise ValueError(f"delta {set(delta)} not inside 1..{N - 1}")
        composition = tuple(len(b) for b in position_blocks(delta, N))
        if any((N - i) not in delta for i in delta):
            raise NotSpinError(f"composition {composition} is not symmetric around the middle")
        set_field(self, "n", n)
        set_field(self, "delta", delta)
        set_field(self, "composition", composition)
        set_field(self, "xp", frozenset(i for i in range(1, n + 1) if i not in delta))

    @classmethod
    def from_composition(cls, parts: Iterable[int]) -> "SpinParabolic":
        """Spin parabolic with Levi GL(m_1) x ... x GL(m_r); m must be a palindrome.

        Both the palindrome and the size of delta, 2n - r indices, are
        checked before delta is built: one huge part would otherwise fill
        memory.  Building delta peaks at about 100 bytes per index (an int
        object, the set's table as it grows, the frozenset's copy; 99 to 116
        measured on 64-bit CPython 3.11), so a rank for which 100 bytes per
        index exceed the memory this process may use raises RankMemoryError
        (require_memory).
        """
        parts = tuple(parts)
        if not parts or any(m <= 0 for m in parts):
            raise ValueError(f"composition parts must be positive, got {parts}")
        total = sum(parts)
        if total % 2 != 0:
            raise ValueError(f"composition must sum to an even number, got {total}")
        if parts != parts[::-1]:
            raise NotSpinError(f"composition {parts} is not symmetric around the middle")
        n = total // 2
        require_memory(n, 100 * (total - len(parts)), "for the Levi of its composition")
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
    """Parse "m1,m2,...,mr" into a composition tuple (weyl.parse_integers)."""
    try:
        return parse_integers(text)
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

