"""Exact symbolic Hecke-eigenvalue arithmetic over formal Satake parameters.

An eigenvalue is a monomial p^{a/2} * prod theta_i^{e_i} * eta^m in the
formal symbols theta_1(p), ..., theta_2n(p) and the similitude symbol
eta = eta_p(p), with all exponents integers (a counts halves of a p-power,
so no floats ever appear).  The spin normalization theta_i * theta_{2n+1-i}
= eta is a rewrite rule; its canonical form shifts each symmetric pair of
exponents down until one of them is zero.

Everything downstream is built from the eigenvalue of the double-coset
operator U_{p,k}, the monomial

    alpha(U_{p,k}) = prod_{j<=k} p^{-(2n-2j+1)/2} theta_{sigma(j)},

its weight normalization alpha(U°_{p,k}) = p^{lambda_1+...+lambda_k} *
alpha(U_{p,k}), and the similitude bridge eta_0 = eta * p^{sw}.

Slopes are p-adic valuations of these monomials under a rational valuation
profile t_i = v_p(theta_i(p)); the profile solver inverts the slope formula
exactly and produces an inconsistency certificate (a linear combination of
the declared equations summing to a contradiction) rather than guessing.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from ._value import Value, set_field
from .parabolic import SelfCheckError, SpinParabolic
from .refine import GammaMap, Refinement, gamma, is_P_spin
from .rootdata import PureWeight
from .weyl import Perm, SignedPerm, coset_min_rep, embed_wg0, enumerate_signed_perms, \
    format_one_line, generate_subgroup

# ---------------------------------------------------------------------------
# Satake monomials.
# ---------------------------------------------------------------------------


class SatakeMonomial(Value):
    """p^{half_p/2} * prod theta_i^{theta[i-1]} * eta^{eta}."""

    __slots__ = ("n", "half_p", "theta", "eta")
    n: int
    half_p: int
    theta: tuple[int, ...]
    eta: int

    def __init__(self, n: int, half_p: int, theta: tuple[int, ...], eta: int = 0) -> None:
        if len(theta) != 2 * n:
            raise ValueError("theta exponent vector must have length 2n")
        set_field(self, "n", n)
        set_field(self, "half_p", half_p)
        set_field(self, "theta", theta)
        set_field(self, "eta", eta)

    @classmethod
    def one(cls, n: int) -> "SatakeMonomial":
        return cls(n, 0, (0,) * (2 * n))

    @classmethod
    def p_half_power(cls, a: int, n: int) -> "SatakeMonomial":
        return cls(n, a, (0,) * (2 * n))

    @classmethod
    def eta0_power(cls, m: int, sw: int, n: int) -> "SatakeMonomial":
        """eta_0^m with eta_0 = eta * p^{sw}."""
        return cls(n, 2 * sw * m, (0,) * (2 * n), m)

    def __mul__(self, other: "SatakeMonomial") -> "SatakeMonomial":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return SatakeMonomial(
            self.n, self.half_p + other.half_p,
            tuple(a + b for a, b in zip(self.theta, other.theta)),
            self.eta + other.eta)

    def __truediv__(self, other: "SatakeMonomial") -> "SatakeMonomial":
        return self * other.inverse()

    def inverse(self) -> "SatakeMonomial":
        return SatakeMonomial(self.n, -self.half_p,
                              tuple(-e for e in self.theta), -self.eta)

    def __pow__(self, m: int) -> "SatakeMonomial":
        return SatakeMonomial(self.n, m * self.half_p,
                              tuple(m * e for e in self.theta), m * self.eta)

    def normal_form(self) -> "SatakeMonomial":
        """Reduce each pair theta_i theta_{2n+1-i} to eta until one exponent is 0."""
        th = list(self.theta)
        eta = self.eta
        for i in range(self.n):
            j = 2 * self.n - 1 - i
            shift = min(th[i], th[j])
            th[i] -= shift
            th[j] -= shift
            eta += shift
        return SatakeMonomial(self.n, self.half_p, tuple(th), eta)

    def spin_equal(self, other: "SatakeMonomial") -> bool:
        return self.normal_form() == other.normal_form()

    def valuation(self, prof: "ValuationProfile") -> Fraction:
        if prof.n != self.n:
            raise ValueError("rank mismatch")
        v = Fraction(self.half_p, 2)
        v += sum((e * t for e, t in zip(self.theta, prof.t)), Fraction(0))
        v += self.eta * prof.eta_val
        return v

    def __str__(self) -> str:
        parts = []
        if self.half_p:
            if self.half_p % 2 == 0:
                parts.append(f"p^{self.half_p // 2}" if self.half_p != 2 else "p")
            else:
                parts.append(f"p^{{{self.half_p}/2}}")
        for i, e in enumerate(self.theta, start=1):
            if e == 1:
                parts.append(f"θ_{i}")
            elif e:
                parts.append(f"θ_{i}^{e}")
        if self.eta == 1:
            parts.append("η")
        elif self.eta:
            parts.append(f"η^{self.eta}")
        return " * ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {"half_p": self.half_p, "theta": list(self.theta), "eta": self.eta}


class ValuationProfile(Value):
    """Rational valuations t_i = v_p(theta_i(p)), plus v_p(eta(p))."""

    __slots__ = ("n", "t", "eta_val")
    n: int
    t: tuple[Fraction, ...]
    eta_val: Fraction

    def __init__(self, n: int, t: tuple[Fraction, ...], eta_val: Fraction = Fraction(0)) -> None:
        if len(t) != 2 * n:
            raise ValueError("profile must have length 2n")
        set_field(self, "n", n)
        set_field(self, "t", t)
        set_field(self, "eta_val", eta_val)

    @classmethod
    def zero(cls, n: int) -> "ValuationProfile":
        return cls(n, (Fraction(0),) * (2 * n))

    @classmethod
    def of(cls, values: Iterable, eta_val=0) -> "ValuationProfile":
        t = tuple(Fraction(v) for v in values)
        return cls(len(t) // 2, t, Fraction(eta_val))

    @property
    def is_pure(self) -> bool:
        return all(self.t[i] + self.t[2 * self.n - 1 - i] == self.eta_val
                   for i in range(self.n))


# ---------------------------------------------------------------------------
# Eigenvalue monomials of the U_{p,k}.
# ---------------------------------------------------------------------------

def delta_half_exponent(k: int, n: int) -> int:
    """Halved-p exponent of the modulus factor at level k: -k(2n-k)."""
    return -k * (2 * n - k)


def alpha_U(r: Refinement, k: int) -> SatakeMonomial:
    """Eigenvalue monomial of U_{p,k}: depends only on {sigma(1),...,sigma(k)}."""
    if not (0 <= k <= 2 * r.n):
        raise ValueError(f"index {k} outside 0..{2 * r.n}")
    theta = [0] * (2 * r.n)
    for j in range(1, k + 1):
        theta[r.sigma(j) - 1] += 1
    return SatakeMonomial(r.n, delta_half_exponent(k, r.n), tuple(theta))


def alpha_U_circ(r: Refinement, k: int, lam: PureWeight) -> SatakeMonomial:
    """Weight-normalized eigenvalue: alpha(U_{p,k}) shifted by p^{lambda_1+...+lambda_k}."""
    if lam.n != r.n:
        raise ValueError("rank mismatch")
    base = alpha_U(r, k)
    shift = 2 * sum(lam.coeffs[:k])
    return SatakeMonomial(r.n, base.half_p + shift, base.theta, base.eta)


def spin_relation_check(r: Refinement, k: int, lam: PureWeight) -> bool:
    """Whether eta_0^{n-k} * alpha(U°_{p,k}) = alpha(U°_{p,2n-k}) symbolically.

    Holds for every k-spin refinement; for k = n it is vacuous, so true
    for every refinement.
    """
    n = r.n
    lhs = SatakeMonomial.eta0_power(n - k, lam.sw, n) * alpha_U_circ(r, k, lam)
    rhs = alpha_U_circ(r, 2 * n - k, lam)
    return lhs.spin_equal(rhs)


# ---------------------------------------------------------------------------
# The gamma-uniqueness scan through Hecke relations.
# ---------------------------------------------------------------------------

def gamma_relation_holds(r: Refinement, g: GammaMap, s: int,
                         lam: PureWeight | None = None) -> bool:
    """The level-s eigenvalue relation characterizing the pairing map.

    Raw form:

        alpha_s * prod_{i<=s} p^{(2 g(i) - 2n - 1)/2}
                  * alpha_{2n+1-g(i)} / alpha_{2n-g(i)}
            = (modulus factor at s) * eta^s;

    each product factor is exactly the Satake symbol theta at slot
    sigma(2n+1-g(i)), so the relation says the running pair products all
    reduce to eta.  With a weight, the same relation in normalized
    eigenvalues picks up p^{lambda_{g(i)} - lambda_i} per factor and ends
    in eta_0^s.  (The p-exponent on the product factor is half-integral;
    the theta-recovery identity carries the same half.)  The raw form is
    the normalized one at the zero weight, where U° is U and eta_0 is eta.
    """
    n = r.n
    if lam is None:
        lam = PureWeight.from_coeffs((0,) * (2 * n))
    lhs = alpha_U_circ(r, s, lam)
    for i in range(1, s + 1):
        gi = g(i)
        lhs = lhs * SatakeMonomial.p_half_power(
            2 * gi - 2 * n - 1 + 2 * (lam.coeffs[gi - 1] - lam.coeffs[i - 1]), n)
        lhs = lhs * alpha_U_circ(r, 2 * n + 1 - gi, lam) / alpha_U_circ(r, 2 * n - gi, lam)
    rhs = SatakeMonomial.p_half_power(delta_half_exponent(s, n), n) * \
        SatakeMonomial.eta0_power(s, lam.sw, n)
    return lhs.spin_equal(rhs)


class GammaScanError(ValueError):
    pass


class GammaScanNoSolution(GammaScanError):
    pass


class GammaScanAmbiguous(GammaScanError):
    def __init__(self, candidates: list[GammaMap]):
        super().__init__(f"{len(candidates)} pairing maps satisfy the relations")
        self.candidates = candidates


def gamma_uniqueness_scan(r: Refinement, prof: ValuationProfile | None = None
                          ) -> GammaMap:
    """Find the injective map g satisfying gamma_relation_holds for all s <= n.

    Requiring the relation at every level is the same as requiring each
    pair value theta_{sigma(i)} theta_{sigma(2n+1-g(i))} to reduce to eta
    (divide consecutive levels), which is what the scan checks while
    extending candidates.  Symbolically (default) the solution is unique;
    under a degenerate valuation profile several maps can pass, and both
    failure modes are reported distinctly.
    """
    n = r.n
    N = 2 * n
    sigma = r.sigma
    pair_slot = [sigma(N + 1 - m) for m in range(1, N + 1)]  # sigma(2n+1-m), m=1..2n

    def pair_ok(i: int, m: int) -> bool:
        # does theta_{sigma(i)} * theta_{sigma(2n+1-m)} reduce to eta?
        a, b = sigma(i), pair_slot[m - 1]
        if prof is None:
            return a + b == N + 1
        return prof.t[a - 1] + prof.t[b - 1] == prof.eta_val

    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        i = len(prefix) + 1
        for m in range(1, N + 1):
            if m not in prefix and pair_ok(i, m):
                prefix.append(m)
                extend(prefix)
                prefix.pop()

    extend([])
    if not found:
        raise GammaScanNoSolution("no injective map satisfies the eigenvalue relations")
    if len(found) > 1:
        raise GammaScanAmbiguous([GammaMap(v) for v in found])
    result = GammaMap(found[0])
    if prof is None and result != gamma(r):
        raise SelfCheckError("scan disagrees with the direct pairing construction")
    return result


# ---------------------------------------------------------------------------
# Hecke words and the transfer homomorphism.
# ---------------------------------------------------------------------------

class HeckeWord(Value):
    """p^{p_half/2} * prod U_k^{exps[k-1]} * V^v, with negative exponents allowed.

    On the GL side U_k is U_{p,k} (or its normalization U°_{p,k}) and v = 0;
    on the GSpin side slots 1..n hold U'_{p,k} and v counts the similitude
    generator V.
    """

    __slots__ = ("n", "exps", "p_half", "v")
    n: int
    exps: tuple[int, ...]
    p_half: int
    v: int

    def __init__(self, n: int, exps: tuple[int, ...], p_half: int = 0, v: int = 0) -> None:
        if len(exps) != 2 * n:
            raise ValueError("exponent vector must have length 2n")
        set_field(self, "n", n)
        set_field(self, "exps", exps)
        set_field(self, "p_half", p_half)
        set_field(self, "v", v)

    @classmethod
    def generator(cls, k: int, n: int, power: int = 1) -> "HeckeWord":
        """U_k^power; k = 0 is the empty product."""
        if not (0 <= k <= 2 * n):
            raise ValueError(f"index {k} outside 0..{2 * n}")
        exps = [0] * (2 * n)
        if k:
            exps[k - 1] = power
        return cls(n, tuple(exps))

    def __mul__(self, other: "HeckeWord") -> "HeckeWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return HeckeWord(self.n, tuple(a + b for a, b in zip(self.exps, other.exps)),
                         self.p_half + other.p_half, self.v + other.v)

    def evaluate(self, r: Refinement, lam: PureWeight) -> SatakeMonomial:
        """Normalized eigenvalue on r: U_k acts by alpha(U°_{p,k}), V by eta_0."""
        out = (SatakeMonomial.p_half_power(self.p_half, self.n)
               * SatakeMonomial.eta0_power(self.v, lam.sw, self.n))
        for k, e in enumerate(self.exps, start=1):
            if e:
                out = out * alpha_U_circ(r, k, lam) ** e
        return out


# HeckeWord's name before the word types merged; tests/test_acceptance.py imports it.
FracHeckeWord = HeckeWord


class GeneratorNotInAlgebraError(ValueError):
    """A generator falls outside the parahoric Hecke algebra."""


def _check_in_parahoric_algebra(k: int, p: SpinParabolic) -> None:
    N = 2 * p.n
    if k == N:
        return
    if k in p.delta:
        raise GeneratorNotInAlgebraError(
            f"U_{{p,{k}}} is not in the level-{p.label()} Hecke algebra")


def jmath_hecke(word: HeckeWord, p: SpinParabolic) -> HeckeWord:
    """Transfer a GL Hecke word to the GSpin side.

    U_{p,r} -> U'_{p,r} and U_{p,2n-r} -> U'_{p,r} V^{n-r} for r <= n with
    a_r outside the Levi, and U_{p,2n} -> V^n; extended multiplicatively.
    """
    n = p.n
    if word.n != n or word.v:
        raise ValueError(f"jmath_hecke takes a rank-{n} GL word, without a similitude factor")
    exps = [0] * (2 * n)
    v = 0
    for k, e in enumerate(word.exps, start=1):
        if not e:
            continue
        _check_in_parahoric_algebra(k, p)
        if k == 2 * n:
            v += n * e
        elif k <= n:
            exps[k - 1] += e
        else:
            exps[2 * n - k - 1] += e
            v += (k - n) * e
    return HeckeWord(n, tuple(exps), word.p_half, v)


def factors_through_spin(r: Refinement, p: SpinParabolic
                         ) -> dict[int, SatakeMonomial] | None:
    """GSpin eigenvalues {k: alpha(U'_{p,k})} for k in X_P; V acts by eta.

    Present exactly when the refinement is P-spin.  These are
    HeckeWord.evaluate at the zero weight (U° is U, eta_0 is eta), checked
    through the transfer map on every generator of the parahoric algebra.
    """
    if not is_P_spin(r, p):
        return None
    n = r.n
    zero = PureWeight.from_coeffs((0,) * (2 * n))
    for k in range(1, 2 * n + 1):
        if k != 2 * n and k in p.delta:
            continue
        word = jmath_hecke(HeckeWord.generator(k, n), p)
        if not word.evaluate(r, zero).spin_equal(alpha_U(r, k)):
            raise SelfCheckError(f"transfer check failed at U_{{p,{k}}}")
    return {k: alpha_U(r, k).normal_form() for k in sorted(p.xp)}


# ---------------------------------------------------------------------------
# Characteristic polynomial root multisets.
# ---------------------------------------------------------------------------

def char_poly_roots(p: SpinParabolic, k: int, group: str = "GL"
                    ) -> list[SatakeMonomial]:
    """Eigenvalue root multiset of U_{p,k} on the parahoric invariants.

    One root per coset of the Weyl group by the Levi's.  The GL side walks
    S_{2n}; the GSpin side walks the signed-permutation group and lands in
    the GL lattice through the embedding, giving an independently computed
    sub-multiset.
    """
    n = p.n
    _check_in_parahoric_algebra(k, p)
    if group == "GL":
        reps = {coset_min_rep(Perm(images), p.delta)
                for images in itertools.permutations(range(1, 2 * n + 1))}
        roots = [alpha_U(Refinement(n, rep), k).normal_form() for rep in reps]
    elif group == "GSpin":
        gens: list[SignedPerm] = []
        for i in set(range(1, n + 1)) - p.xp:  # the Levi's simple reflections
            word = list(range(1, n + 1))
            if i < n:
                word[i - 1], word[i] = i + 1, i
            else:
                word[-1] = -n
            gens.append(SignedPerm(tuple(word)))
        subgroup = generate_subgroup(gens, SignedPerm.identity(n))
        seen: set[frozenset] = set()
        roots = []
        for w in enumerate_signed_perms(n):
            coset = frozenset(w * x for x in subgroup)
            if coset in seen:
                continue
            seen.add(coset)
            roots.append(alpha_U(Refinement(n, embed_wg0(w, n)), k).normal_form())
    else:
        raise ValueError(f"unknown group {group!r}")
    return sorted(roots, key=lambda m: (m.half_p, m.theta, m.eta))


def multiset_divides(sub: Sequence[SatakeMonomial], sup: Sequence[SatakeMonomial]) -> bool:
    """Whether sub is contained in sup with multiplicity."""
    remaining = list(sup)
    for m in sub:
        try:
            remaining.remove(m)
        except ValueError:
            return False
    return True


# ---------------------------------------------------------------------------
# Slopes and the valuation-profile solver.
# ---------------------------------------------------------------------------

def slope(r: Refinement, k: int, lam: PureWeight, prof: ValuationProfile) -> Fraction:
    """p-adic valuation of alpha(U°_{p,k}) under a valuation profile."""
    return alpha_U_circ(r, k, lam).valuation(prof)


class CertificateRow(Value):
    """One violated relation: a combination of declared equations with residual != 0."""

    __slots__ = ("combination", "residual")
    combination: tuple[tuple[str, Fraction], ...]
    residual: Fraction

    def describe(self) -> str:
        terms = " + ".join(f"({c})*[{label}]" for label, c in self.combination)
        return f"{terms} = {self.residual} != 0"


class ProfileSolution(Value):
    """Outcome of inverting the slope formula.

    status is "unique", "family" (underdetermined: free directions listed)
    or "inconsistent" (certificate rows name the violated relations).
    """

    __slots__ = ("status", "profile", "free", "certificate")
    status: str
    profile: ValuationProfile | None
    free: tuple[str, ...]
    certificate: tuple[CertificateRow, ...]

    def __init__(self, status: str, profile: ValuationProfile | None,
                 free: tuple[str, ...] = (), certificate: tuple[CertificateRow, ...] = ()
                 ) -> None:
        set_field(self, "status", status)
        set_field(self, "profile", profile)
        set_field(self, "free", free)
        set_field(self, "certificate", certificate)


def _check_slope_indices(slopes: Mapping[int, Fraction | int], n: int) -> None:
    for k in sorted(slopes):
        if not (1 <= k <= 2 * n):
            raise ValueError(f"slope index {k} outside 1..{2 * n}")


def _divide_content(row: dict[int, int]) -> None:
    g = gcd(*row.values())
    if g > 1:
        for key in row:
            row[key] //= g


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]], num_vars: int) -> int | None:
    """Reduce row in place against pivots, pivot columns in increasing order.

    Keys below num_vars are the unknowns' columns (see solve_profile_joint
    for the others).  Each step is a*row - b*pivot, fraction-free; a step
    that scales the row (a != 1) divides it by the gcd of its entries.
    Returns the leading column, which is no pivot's, or None when every
    coefficient cancelled.
    """
    heap = [key for key in row if key < num_vars]
    heapify(heap)
    while heap:
        col = heappop(heap)
        x = row.get(col)
        if not x:
            continue
        pivot = pivots.get(col)
        if pivot is None:
            return col
        g = gcd(x, pivot[col])
        a, b = pivot[col] // g, x // g
        if a != 1:
            for key in row:
                row[key] *= a
        for key, v in pivot.items():
            w = row.get(key)
            if w is None:
                row[key] = -b * v
                if key < num_vars:
                    heappush(heap, key)
            elif w == b * v:
                del row[key]
            else:
                row[key] = w - b * v
        if a != 1:
            _divide_content(row)
    return None


def solve_profile_joint(systems: Sequence[tuple[Perm, Mapping[int, Fraction | int]]],
                        lam: PureWeight) -> ProfileSolution:
    """Solve declared slopes, possibly from several refinements at once.

    Unknowns are t_1, ..., t_{2n} and the eta valuation.  Each declared
    slope contributes one linear equation through the slope formula;
    purity ties opposite entries to eta.  Free unknowns are reported (set
    to zero in the particular solution), and inconsistencies come back as
    labeled certificates (joint labels in one-line notation) instead of a profile.

    The slope row of index k is the prefix sum of t over sigma(1..k), so
    each system's rows enter in the prefix-difference basis: row k less
    the system's previous declared row k', the sum of t over
    sigma(k'+1..k).  When row k' was dependent, its reduction (which names
    only independent rows) stands in for it, so no certificate names a
    dependent row.  Each prefix of rows spans what the plain rows span,
    so the pivot columns, the free unknowns, the particular solution and
    the certificates (the unique combination of a dependent row with the
    earlier independent rows) are those of plain Gauss elimination in row
    order.

    Every right-hand side is scaled once by D, the lcm of 2 and the slope
    denominators, so the rows solve for D*t in integers.  A row is one
    sparse dict: columns 0..2n, the right-hand side at 2n + 1, and its
    combination of input equations at 2n + 2 + row index.
    """
    n = lam.n
    N = 2 * n
    declared = []
    for sigma, slopes in systems:
        if sigma.degree != N:
            raise ValueError("rank mismatch")
        _check_slope_indices(slopes, n)
        declared.append((sigma, [(k, Fraction(slopes[k])) for k in sorted(slopes)]))
    num_vars = N + 1
    rhs_key = num_vars
    base = rhs_key + 1
    scale = lcm(2, *(value.denominator for _, values in declared for _, value in values))
    lam_prefix = list(itertools.accumulate(lam.coeffs, initial=0))
    labels: list[str] = []
    pivots: dict[int, dict[int, int]] = {}
    bad: list[CertificateRow] = []

    def add(row: dict[int, int], own: int, rhs: int) -> dict[int, int] | None:
        """Reduce the row whose own combination key is own; None if it is
        independent, else the reduced row."""
        if rhs:
            row[rhs_key] = rhs
        lead = _reduce(row, pivots, num_vars)
        if abs(row[own]) != 1:  # else the content, which divides row[own], is 1
            _divide_content(row)
        if lead is not None:
            if row[lead] < 0:  # a positive lead keeps _reduce's a positive
                for key in row:
                    row[key] = -row[key]
            pivots[lead] = row
            return None
        if rhs_key in row:
            s = row[own]
            bad.append(CertificateRow(
                tuple((labels[key - base], Fraction(v, s))
                      for key, v in sorted(row.items()) if key >= base),
                Fraction(row[rhs_key], s * scale)))
        return row

    for sigma, values in declared:
        tag = f"[{format_one_line(sigma)}]" if len(systems) > 1 else ""
        images = sigma.images
        prev_k = prev_rhs = 0
        prev_key = dependent = None
        for k, value in values:
            rhs = (value.numerator * (scale // value.denominator) - scale * lam_prefix[k]
                   - delta_half_exponent(k, n) * (scale // 2))
            cols = [images[j] - 1 for j in range(prev_k, k)]
            own = base + len(labels)
            labels.append(f"slope{tag}:U_{k}")
            if dependent is None:
                row = dict.fromkeys(cols, 1)
                row[own] = 1
                if prev_key is not None:
                    row[prev_key] = -1
                step = rhs - prev_rhs
            else:
                s = dependent.pop(prev_key)
                step = s * (rhs - prev_rhs) + dependent.pop(rhs_key, 0)
                row = dict.fromkeys(cols, s)
                row.update(dependent)
                row[own] = s
            dependent = add(row, own, step)
            prev_k, prev_rhs, prev_key = k, rhs, own
    for i in range(1, n + 1):
        own = base + len(labels)
        labels.append(f"purity:{i}")
        add({i - 1: 1, N - i: 1, N: -1, own: 1}, own, 0)
    if bad:
        return ProfileSolution("inconsistent", None, certificate=tuple(bad))
    # Back-substitution over one common denominator: D*t_c is nums[c] / den.
    nums = [0] * num_vars
    den = 1
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        acc = row.get(rhs_key, 0) * den - sum(v * nums[c] for c, v in row.items()
                                              if col < c < num_vars)
        g = gcd(acc, row[col])
        acc, lead = acc // g, row[col] // g
        if lead != 1:
            nums = [v * lead for v in nums]
            den *= lead
        nums[col] = acc
    solution = [Fraction(v, den * scale) for v in nums]
    names = [f"t_{i}" for i in range(1, N + 1)] + ["eta"]
    free = tuple(names[c] for c in range(num_vars) if c not in pivots)
    profile = ValuationProfile(n, tuple(solution[:N]), solution[N])
    return ProfileSolution("family" if free else "unique", profile, free=free)


class MissingSlopeError(ValueError):
    pass


class SlopeBoundRow(Value):
    __slots__ = ("index", "bound", "value", "ok")
    index: int
    bound: int
    value: Fraction
    ok: bool


class NonCriticalAudit(Value):
    __slots__ = ("ok", "rows")
    ok: bool
    rows: tuple[SlopeBoundRow, ...]


def non_critical_slope(lam: PureWeight, slopes: Mapping[int, Fraction | int],
                       p: SpinParabolic) -> NonCriticalAudit:
    """Audit the strict slope bounds v_p(U°_{p,r}) < gap_r + 1 away from the Levi.

    The bound at index r is lambda_r - lambda_{r+1} + 1; purity makes the
    bounds at r and 2n-r agree.  A missing declared slope at a required
    index is an error, and equality at the bound fails (strict inequality).
    A declared index outside 1..2n is refused with ValueError.
    """
    if lam.n != p.n:
        raise ValueError("rank mismatch")
    _check_slope_indices(slopes, lam.n)
    rows = []
    for r in range(1, 2 * lam.n):
        if r in p.delta:
            continue
        if r not in slopes:
            raise MissingSlopeError(f"no declared slope for U_{{p,{r}}}")
        bound = lam.gap(r) + 1
        value = Fraction(slopes[r])
        rows.append(SlopeBoundRow(r, bound, value, value < bound))
    return NonCriticalAudit(all(row.ok for row in rows), tuple(rows))


# ---------------------------------------------------------------------------
# The eigenvalue transfer maps phi for refinement switching.
# ---------------------------------------------------------------------------

def phi_ij(word: HeckeWord, i: int, j: int, lam: PureWeight) -> HeckeWord:
    """Eigenvalue transfer across the transposition (i, j), i < j.

    Each U°_{p,k} with i <= k < j picks up the window factor
    p^{i-j+lambda_i-lambda_j} (U°_j / U°_{j-1}) (U°_{i-1} / U°_i); other
    generators are untouched.  Extended multiplicatively, which makes the
    map an exact involution.
    """
    if not (1 <= i < j <= 2 * lam.n):
        raise ValueError(f"bad window ({i},{j})")
    window_exp = sum(word.exps[k - 1] for k in range(i, j))
    if not window_exp:
        return word
    exps = list(word.exps)
    p_half = word.p_half + 2 * (i - j + lam.coeffs[i - 1] - lam.coeffs[j - 1]) * window_exp
    exps[j - 1] += window_exp
    if j - 1 >= 1:
        exps[j - 2] -= window_exp
    if i - 1 >= 1:
        exps[i - 2] += window_exp
    exps[i - 1] -= window_exp
    return HeckeWord(word.n, tuple(exps), p_half, word.v)


def phi_tau(taus: Sequence[tuple[int, int]], lam: PureWeight):
    """Composite of the window maps, first transposition applied first."""
    def apply(word: HeckeWord) -> HeckeWord:
        for i, j in taus:
            word = phi_ij(word, i, j, lam)
        return word
    return apply
