"""Symbolic principal-series calculator and zeta-integral support analysis.

Iwahori-invariant vectors in an unramified principal series are finite
linear combinations of cell functions f_w, one per Weyl element, with
rational-function coefficients in the Satake symbols; we normalize
f_w(w) = 1 (any global cell scaling cancels from every identity computed
here, and can be reapplied when printing).  The standard intertwining
operator attached to a simple reflection s acts on the cell basis by a
two-case length formula with the rational factor

    c_s = (1 - p^{-1} theta(s)) / (1 - theta(s)),

where theta(s) is the ratio of the two Satake symbols that s swaps (only
lower-block reflections, index >= n+1, are ever needed).  Composing along
a reduced word of the long element of the lower GL(n) block produces the
expansion of the parahoric eigenvector over parahoric cells, which is what
feeds the twisted zeta integral: of the whole expansion only the identity
cell survives the Shalika-model integration, and its coefficient is a unit
(a product of c_s values and a power of p).

The support side is purely combinatorial: a torus element t contributes an
antidiagonal matrix p^{-beta} z_2^{-1} w_n z_1 whose integrality decides
non-vanishing, and for the staircase element of a spin parabolic with k
blocks that means k even, equivalently the parabolic sits inside the
middle (n, n) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .parabolic import NotSpinError, RankMemoryError, SelfCheckError, SpinParabolic
from .parabolic import physical_memory as _physical_memory
from .ratfunc import Poly, RatFunc
from .weyl import (LeviCoset, Perm, Trichotomy, composition_delta, coset_min_rep,
                   simple_trichotomy)

__all__ = [
    "PSVector", "ParahoricVector", "c_s", "T_s", "w_of_rho", "lower_block_composition",
    "m_tau_expansion", "m_tau_expansion_oracle", "NuBetaMatrix", "nu_beta", "SupportVerdict",
    "zeta_support_verdict", "factorisation_membership",
]


def c_s(a: int, twist: Perm) -> RatFunc:
    """The intertwining constant at the simple reflection (a, a+1), a >= n+1.

    With x = theta_{twist(a)} and y = theta_{twist(a+1)} this is
    (p y - x) / (p (y - x)); never the zero function, with poles only
    where the two symbols collide.
    """
    N = twist.degree
    n = N // 2
    if not (n + 1 <= a <= N - 1):
        raise ValueError(f"simple reflection index {a} outside the lower block {n + 1}..{N - 1}")
    nvars = N + 1
    p = Poly.var(0, nvars)
    x = Poly.var(twist(a), nvars)
    y = Poly.var(twist(a + 1), nvars)
    return RatFunc(p * y - x, p * (y - x))


def _accumulate(table: dict[Hashable, RatFunc], key: Hashable, val: RatFunc) -> None:
    """Add val to table[key], dropping the entry when the sum is zero."""
    if key in table:
        total = table[key] + val
        if total.is_zero:
            del table[key]
        else:
            table[key] = total
    elif not val.is_zero:
        table[key] = val


@dataclass
class PSVector:
    """Sum of cell functions f_w with rational-function coefficients.

    The twist names the inducing character: coefficients multiply cells of
    the series induced from theta composed with the twist.
    """

    twist: Perm
    terms: dict[Perm, RatFunc]

    def __post_init__(self) -> None:
        self.terms = {w: c for w, c in self.terms.items() if not c.is_zero}

    @classmethod
    def cell(cls, w: Perm) -> "PSVector":
        return cls(Perm.identity(w.degree), {w: RatFunc.const(1, w.degree + 1)})


def T_s(v: PSVector, a: int) -> PSVector:
    """Apply the intertwining operator of the simple reflection (a, a+1).

    Cells move by left multiplication: a lengthening cell contributes
    p^{-1} f_{sw} + (c_s - 1) f_w, a shortening one f_{sw} + (c_s - p^{-1})
    f_w.  The output lives in the series twisted by twist * s.
    """
    N = v.twist.degree
    s = Perm.simple(a, N)
    nvars = N + 1
    cs = c_s(a, v.twist)
    one = RatFunc.const(1, nvars)
    p_inv = RatFunc.p_inverse(nvars)
    out = PSVector(v.twist * s, {})
    for w, coeff in v.terms.items():
        sw = s * w
        if sw.length() > w.length():
            _accumulate(out.terms, sw, coeff * p_inv)
            _accumulate(out.terms, w, coeff * (cs - one))
        else:
            _accumulate(out.terms, sw, coeff)
            _accumulate(out.terms, w, coeff * (cs - p_inv))
    return out


@dataclass
class ParahoricVector:
    """Parahoric-cell expansion: one coefficient per Levi coset.

    Expanding a coset cell into the Iwahori basis sums the cells of all
    coset members with equal coefficients.
    """

    twist: Perm
    cosets: dict[LeviCoset, RatFunc]

    def expand(self) -> PSVector:
        out = PSVector(self.twist, {})
        for coset, coeff in self.cosets.items():
            for w in coset.members():
                _accumulate(out.terms, w, coeff)
        return out

    @classmethod
    def collect(cls, v: PSVector, delta: frozenset[int]) -> "ParahoricVector":
        """Regroup an Iwahori expansion by cosets, requiring constant coefficients."""
        buckets: dict[LeviCoset, dict[Perm, RatFunc]] = {}
        for w, coeff in v.terms.items():
            buckets.setdefault(LeviCoset.of(w, delta), {})[w] = coeff
        cosets: dict[LeviCoset, RatFunc] = {}
        for coset, seen in buckets.items():
            values = list(seen.values())
            if len(seen) != coset.size() or any(val != values[0] for val in values[1:]):
                raise ValueError("coefficients are not constant on a coset")
            cosets[coset] = values[0]
        return cls(v.twist, cosets)


def w_of_rho(rho: Perm) -> Perm:
    """The block-antidiagonal Weyl element attached to rho in the lower GL(n).

    One-line word (n + rho(1), ..., n + rho(n), n, n-1, ..., 1); for rho
    the long element this is the long element of S_{2n}.
    """
    n = rho.degree
    return Perm(tuple(n + rho(i) for i in range(1, n + 1)) + tuple(range(n, 0, -1)))


def lower_block_composition(p: SpinParabolic) -> tuple[int, ...]:
    """The composition (k_1, ..., k_r) of n cut out by a parabolic inside (n, n)."""
    if not p.contained_in_nn:
        raise NotSpinError(
            f"the {p.label()}-parabolic is not contained in the (n,n)-parabolic")
    # A palindromic composition with a cut at n has as many blocks on each side.
    return p.composition[:len(p.composition) // 2]


def _long_word_factorisation(n: int, delta_k: frozenset[int]) -> list[int]:
    """Reduced word for the long element of S_n, split along its W_k coset.

    The long element factors as (minimal coset representative) * (element
    of W_k); the returned letters multiply to the long element with the
    representative's letters first.  The operator chain applies the
    letters in this order, representative part first; composites along
    different reduced words of the same element agree (lengths add), so
    the choice only fixes which intermediate twists appear.
    """
    w_n = Perm.longest(n)
    m = coset_min_rep(w_n, delta_k)
    x = m.inverse() * w_n
    word = m.reduced_word() + x.reduced_word()
    if Perm.from_word(word, n) != w_n or len(word) != w_n.length():
        raise SelfCheckError("long-element factorisation is not reduced")
    return word


def m_tau_expansion(n: int, p: SpinParabolic
                    ) -> tuple[dict[LeviCoset, RatFunc], RatFunc]:
    """Expansion of the intertwined parahoric eigenvector over parahoric cells.

    Starts from the coset cell of the long element and composes the
    intertwining operators along the reduced word of the long lower-block
    element, staying at the parahoric level throughout: each step either
    scales a coset cell by c_s or splits it by the two-case formula,
    according to the reflection's trichotomy against the coset.

    Returns the expansion keyed by lower-block cosets, normalized so the
    identity coset has coefficient exactly 1, together with the
    pre-normalization identity-coset coefficient (a unit: a product of c_s
    factors times a power of p).
    """
    if p.n != n:
        raise ValueError("rank mismatch")
    delta_k = composition_delta(lower_block_composition(p))
    N = 2 * n
    nvars = N + 1
    word = _long_word_factorisation(n, delta_k)

    state: dict[LeviCoset, RatFunc] = {
        LeviCoset.of(Perm.longest(n), delta_k): RatFunc.const(1, nvars)}
    twist = Perm.identity(N)
    one = RatFunc.const(1, nvars)
    p_inv = RatFunc.p_inverse(nvars)
    for letter in word:
        a = n + letter
        cs = c_s(a, twist)
        s_lower = Perm.simple(letter, n)
        next_state: dict[LeviCoset, RatFunc] = {}
        for coset, coeff in state.items():
            verdict = simple_trichotomy(letter, coset)
            if verdict is Trichotomy.PERMUTES:
                _accumulate(next_state, coset, coeff * cs)
                continue
            moved = LeviCoset.of(s_lower * coset.rep, delta_k)
            if verdict is Trichotomy.ALL_LONGER:
                _accumulate(next_state, moved, coeff * p_inv)
                _accumulate(next_state, coset, coeff * (cs - one))
            else:
                _accumulate(next_state, moved, coeff)
                _accumulate(next_state, coset, coeff * (cs - p_inv))
        state = next_state
        twist = twist * Perm.simple(a, N)

    identity_coset = LeviCoset.of(Perm.identity(n), delta_k)
    prenorm = state.get(identity_coset, RatFunc.zero(nvars))
    if prenorm.is_zero:
        raise SelfCheckError("identity-coset coefficient vanished")
    normalized = {coset: coeff / prenorm for coset, coeff in state.items()}
    return normalized, prenorm


def m_tau_expansion_oracle(n: int, p: SpinParabolic) -> dict[LeviCoset, RatFunc]:
    """Same expansion computed cell by cell in the Iwahori basis.

    Expands the starting parahoric cell into individual cells, pushes the
    whole sum through the operator chain with the two-case formula only,
    and regroups at the end; no parahoric shortcuts, so this is an
    independent check of the coset-level recursion.
    """
    if p.n != n:
        raise ValueError("rank mismatch")
    delta_k = composition_delta(lower_block_composition(p))
    N = 2 * n
    word = _long_word_factorisation(n, delta_k)

    start = ParahoricVector(
        Perm.identity(N),
        {LeviCoset.of(w_of_rho(Perm.longest(n)), p.delta): RatFunc.const(1, N + 1)})
    v = start.expand()
    for letter in word:
        v = T_s(v, n + letter)
    regrouped = ParahoricVector.collect(v, p.delta)
    out: dict[LeviCoset, RatFunc] = {}
    for gl_coset, coeff in regrouped.cosets.items():
        rho = _rho_of_gl_coset(gl_coset, n)
        out[LeviCoset.of(rho, delta_k)] = coeff
    identity_coeff = out[LeviCoset.of(Perm.identity(n), delta_k)]
    return {key: coeff / identity_coeff for key, coeff in out.items()}


def _rho_of_gl_coset(gl_coset: LeviCoset, n: int) -> Perm:
    """Recover the lower-block element rho from the coset of w(rho)."""
    for w in gl_coset.members():
        tail = w.images[n:]
        if tail == tuple(range(n, 0, -1)):
            head = tuple(v - n for v in w.images[:n])
            if all(1 <= h <= n for h in head):
                return Perm(head)
    raise ValueError("coset does not come from the lower block")


# ---------------------------------------------------------------------------
# Zeta-integral support combinatorics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuBetaMatrix:
    """Antidiagonal p-power matrix p^{-beta} z_2^{-1} w_n z_1.

    exponents[i-1] is the p-exponent at position (i, n+1-i); the matrix is
    integral exactly when every exponent is nonnegative.
    """

    n: int
    exponents: tuple[int, ...]

    @property
    def integral(self) -> bool:
        return all(e >= 0 for e in self.exponents)


def nu_beta(z1: tuple[int, ...], z2: tuple[int, ...], beta: int) -> NuBetaMatrix:
    """Exponent matrix of the twisted-support datum for diag(p^z1, p^z2)."""
    if len(z1) != len(z2):
        raise ValueError("z1 and z2 must have equal length")
    if beta < 1:
        raise ValueError("beta must be positive")
    n = len(z1)
    return NuBetaMatrix(n, tuple(z1[n - i] - z2[i - 1] - beta for i in range(1, n + 1)))


@dataclass(frozen=True)
class SupportVerdict:
    """Support verdict for the twisted zeta integral against a spin parabolic.

    For spin parabolics the three fields agree: the matrix is integral iff
    the block count is even iff the parabolic sits inside the middle
    (n, n) one; forced vanishing is the complementary case, independently
    of the complex parameter.
    """

    integral: bool
    block_count_parity: str
    contained_in_Q: bool
    matrix: NuBetaMatrix

    @property
    def forced_vanishing(self) -> bool:
        return not self.integral


def _zeta_verdict_bytes(p: SpinParabolic, beta: int) -> int:
    """Bytes that p and a zeta verdict for it hold until the verdict is printed.

    An upper bound: the Levi's delta at the 100 bytes per index that
    from_composition counts, 100 bytes per block of the composition, and
    per unit of n, the staircase's 2n entries in a list and a tuple (32
    bytes), four rows of n exponents (z1, z2, the matrix and its symmetry
    check), each a tuple slot and an int of at most 32 bytes plus 4 per 30
    bits, and two printed copies of each exponent, a 64-byte string or list
    slot and at most bits/3 + 1 digits.  Measured with tracemalloc on
    64-bit CPython 3.11, from_composition, the verdict and its printing
    peaked at 232 to 998 bytes per unit of n for the compositions (n, n),
    (n/2, n/2, n/2, n/2), (1, ..., 1), (3, ..., 3) and (1, ..., 10, 10,
    ..., 1) at beta = 1, 10^9 + 7 and 10^300; this bound gives 524 to 1724.
    """
    k = len(p.composition)
    bits = (2 * beta * k).bit_length()
    per_rank = 32 + 4 * (8 + 32 + 4 * (bits // 30)) + 2 * (64 + bits // 3 + 1)
    return 100 * (len(p.delta) + k) + per_rank * p.n


def zeta_support_verdict(p: SpinParabolic, beta: int) -> SupportVerdict:
    """The support verdict of p at beta; RankMemoryError when it cannot fit in memory."""
    have = _physical_memory()
    if have is not None:
        need = _zeta_verdict_bytes(p, beta)
        if need > have:
            raise RankMemoryError(
                f"zeta at n={p.n} needs about {need} bytes, more than the {have} bytes "
                f"of physical memory")
    exps = p.staircase_cochar().coeffs
    n = p.n
    z1 = tuple(beta * e for e in exps[:n])
    z2 = tuple(beta * e for e in exps[n:])
    matrix = nu_beta(z1, z2, beta)
    k = len(p.composition)
    # sanity: for spin parabolics the swapped form p^{-beta k} w_n z1^2 agrees
    alt = tuple(2 * z1[n - i] - beta * k for i in range(1, n + 1))
    if alt != matrix.exponents:
        raise SelfCheckError("staircase symmetry violated for a spin parabolic")
    return SupportVerdict(
        integral=matrix.integral,
        block_count_parity="even" if k % 2 == 0 else "odd",
        contained_in_Q=p.contained_in_nn,
        matrix=matrix,
    )


def factorisation_membership(delta: Perm, p: SpinParabolic) -> bool:
    """The combinatorial gate for the Shalika-side integrand: delta * w_n in W_k.

    Only the identity coset passes, which is what kills every other term
    of the intertwined eigenvector inside the model integral.
    """
    n = delta.degree
    if p.n != n:
        raise ValueError("rank mismatch")
    delta_k = composition_delta(lower_block_composition(p))
    product = delta * Perm.longest(n)
    return coset_min_rep(product, delta_k) == Perm.identity(n)
