"""Exact rational functions in p and the Satake symbols theta_1, ..., theta_2n.

Polynomials are dictionaries from packed monomials to integer coefficients.
A monomial packs its exponent tuple (p first, then the thetas) into one int
with a FIELD_BITS-wide field per variable, p in the most significant field,
so integer order is the lexicographic order of the exponent tuples and the
product of two monomials is the sum of their keys.  Before a product the
keys of both factors are OR-ed together and the top bit of every field is
tested: with every exponent below 2**(FIELD_BITS - 1) no sum can carry into
the next field, and otherwise ExponentOverflowError is raised.  Every
product runs one loop, _times, and every sum or difference one signed
merge, Poly._merge.  Keys are unpacked only for printing, evaluation and
``leading``.  Text is written by a printer, which splits each key into
its high fields and its low nvars // 2 fields and looks each half up in a
table that builds a half's text, every variable led by "*", on its first
lookup, so a term's text is a coefficient and two table lookups; only a
+-1 coefficient drops the leading "*".  str() prints through a fresh
printer; printer(nvars) keeps one for many values, as mtau does for every
coefficient of an expansion.

A rational function is held in lowest terms as num / (scale * x^mono *
product of factors): scale > 0, and the factors are primitive polynomials
free of monomial factors with a positive leading coefficient, counted in a
Counter.  A sum puts both numerators over the lcm of the denominators and
trial-divides only by the factors the two share; a product cancels each
numerator against the other operand's factors; a quotient adds the
divisor's primitive numerator as one factor.  Exact division is
lexicographic.  Factors are never split, so a value is in lowest terms as
far as its factors are irreducible, as the binomials theta_b - theta_a and
p*theta_b - theta_a from the intertwining constants are.  The denominator
stays in these parts: it is multiplied out only where it is read (the text,
evaluation, and an equality whose operands' parts differ, which is decided
by cross-multiplying), and an ExponentOverflowError of a denominator
surfaces there.  A value is +-1 only when its numerator's largest and
smallest terms are +-scale * x^mono times each factor's leading, or
trailing, term to its power; only then is the denominator multiplied out
and compared whole.

The printed text is the quotient that the same computation would have had
unreduced: stripped of content and common monomials only, with +-1 and 0
written as such.  Each value also carries the multiset of factors that
unreduced denominator collected (both operands' together for a sum, difference
or product; for a quotient the dividend's, the divisor's primitive
numerator, and the divisor's that its reduction cancelled; none for 0 and
+-1), and prints as its reduced pair times the factors of that multiset
that the reduction cancelled.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import or_

# Bits per exponent field of a packed monomial: one byte, so that
# int.to_bytes unpacks a monomial into its exponents.
FIELD_BITS = 8
_FIELD_MASK = (1 << FIELD_BITS) - 1


class ExponentOverflowError(ArithmeticError):
    """An exponent does not fit its packed field, or a product could carry out of it."""


def _field_offsets(nvars: int) -> list[int]:
    """Bit offset of each variable's field, variable 0 (p) highest."""
    return [FIELD_BITS * (nvars - 1 - v) for v in range(nvars)]


def _top_bits(nvars: int) -> int:
    """The top bit of every one of nvars fields."""
    return ((1 << FIELD_BITS * nvars) - 1) // _FIELD_MASK << FIELD_BITS - 1


def _guard(used: int, nvars: int) -> None:
    """Refuse a product whose factors' monomials OR together to used: an
    exponent at its field's top bit could carry into the next field."""
    if used & _top_bits(nvars):
        raise ExponentOverflowError(
            f"an exponent of a factor exceeds {_FIELD_MASK >> 1}, "
            f"so the product could carry out of its {FIELD_BITS}-bit field")


class Poly:
    """Multivariate integer polynomial; variable 0 is p, variable i is theta_i."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.coeffs: dict[int, int] = {}
        if coeffs:
            offsets = _field_offsets(nvars)
            for mono, c in coeffs.items():
                if c:
                    if len(mono) != nvars:
                        raise ValueError("monomial arity mismatch")
                    if any(e < 0 for e in mono):
                        raise ValueError("negative exponent")
                    if any(e > _FIELD_MASK for e in mono):
                        raise ExponentOverflowError(
                            f"exponent above {_FIELD_MASK} in {tuple(mono)}")
                    self.coeffs[sum(e << off for e, off in zip(mono, offsets))] = c

    @classmethod
    def _packed(cls, nvars: int, coeffs: dict[int, int]) -> "Poly":
        """Wrap a dictionary of packed monomials with nonzero coefficients, uncopied."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.coeffs = coeffs
        return poly

    @classmethod
    def const(cls, c: int, nvars: int) -> "Poly":
        return cls._packed(nvars, {0: c} if c else {})

    @classmethod
    def var(cls, index: int, nvars: int) -> "Poly":
        return cls._packed(nvars, {1 << _field_offsets(nvars)[index]: 1})

    def _unpack(self, mono: int) -> tuple[int, ...]:
        return tuple(mono.to_bytes(self.nvars, "big"))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars \
            and self.coeffs == other.coeffs

    def _merge(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, in one pass over other's terms."""
        out = dict(self.coeffs)
        get = out.get
        for mono, c in other.coeffs.items():
            c = get(mono, 0) + sign * c
            if c:
                out[mono] = c
            else:
                del out[mono]
        return Poly._packed(self.nvars, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, 1)

    def __neg__(self) -> "Poly":
        return Poly._packed(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product by _times, with the operand of fewer terms as the factor."""
        if len(self.coeffs) < len(other.coeffs):
            self, other = other, self
        return _times(self, [(tuple(other.coeffs.items()), 1)])

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically largest monomial and its coefficient."""
        mono = max(self.coeffs)
        return self._unpack(mono), self.coeffs[mono]

    def evaluate(self, values: Iterable[Fraction]) -> Fraction:
        values = list(values)
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = Fraction(c)
            for v, e in zip(values, self._unpack(mono)):
                term *= v ** e
            total += term
        return total

    def __str__(self) -> str:
        return _Printer(self.nvars).poly(self)


class _HalfTexts(dict):
    """The text of each packed half-monomial, built on its first lookup:
    every variable of nonzero exponent led by "*", the empty half ""."""

    __slots__ = ("names",)

    def __init__(self, names: list[str]):
        super().__init__()
        self.names = names

    def __missing__(self, half: int) -> str:
        names = self.names
        text = self[half] = "".join(
            (f"*{name}^{e}" if e > 1 else f"*{name}")
            for name, e in zip(names, half.to_bytes(len(names), "big")) if e)
        return text


class _Printer:
    """Text of polynomials and rational functions in nvars variables.

    A monomial's text is that of its high nvars - nvars // 2 fields and then
    that of its low nvars // 2 fields, each looked up in one table per half
    that fills in as the printer meets new halves, so every value printed
    through one printer shares them.
    """

    __slots__ = ("shift", "mask", "high", "low")

    def __init__(self, nvars: int):
        names = ["p"] + [f"θ_{i}" for i in range(1, nvars)]
        cut = nvars - nvars // 2
        self.shift = FIELD_BITS * (nvars - cut)
        self.mask = (1 << self.shift) - 1
        self.high = _HalfTexts(names[:cut])
        self.low = _HalfTexts(names[cut:])

    def poly(self, poly: Poly) -> str:
        coeffs = poly.coeffs
        if not coeffs:
            return "0"
        shift, mask, high, low = self.shift, self.mask, self.high, self.low
        parts = []
        for mono in sorted(coeffs, reverse=True):
            c = coeffs[mono]
            if c > 1:
                parts.append(f"+ {c}{high[mono >> shift]}{low[mono & mask]}")
            elif c < -1:
                parts.append(f"- {-c}{high[mono >> shift]}{low[mono & mask]}")
            else:
                # +-1 drops the body's leading "*", or prints alone without a body
                body = high[mono >> shift] + low[mono & mask]
                parts.append(("+ " if c > 0 else "- ") + (body[1:] if body else "1"))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def ratfunc(self, value: "RatFunc") -> str:
        num, den = value.printed_pair()
        if den.coeffs == {0: 1}:
            return self.poly(num)
        return f"({self.poly(num)}) / ({self.poly(den)})"


def printer(nvars: int) -> Callable[["RatFunc"], str]:
    """The text of a RatFunc in nvars variables, str() of it, from one pair of
    half tables for every value it prints."""
    return _Printer(nvars).ratfunc


def _common_monomial(nvars: int, monos: list[int]) -> int:
    """The packed monomial of the least exponent of each variable over monos."""
    shift = 0
    for off in _field_offsets(nvars):
        least = _FIELD_MASK
        for m in monos:
            e = m >> off & _FIELD_MASK
            if e < least:
                least = e
                if not e:
                    break
        shift |= least << off
    return shift


class ZeroDenominatorError(ZeroDivisionError):
    pass


# A factor of a denominator as a dictionary key: its terms, in decreasing
# order of their monomials.
Factor = tuple[tuple[int, int], ...]


def _factor(coeffs: dict[int, int]) -> Factor:
    return tuple(sorted(coeffs.items(), reverse=True))


def _primitive(nvars: int, coeffs: dict[int, int]) -> tuple[int, int, dict[int, int]]:
    """Split a nonzero polynomial as c * x^m * f.

    c is its content, signed like its leading coefficient, x^m its common
    monomial, and f is primitive, free of monomial factors and has a positive
    leading coefficient.
    """
    c = gcd(*coeffs.values())
    if coeffs[max(coeffs)] < 0:
        c = -c
    m = _common_monomial(nvars, list(coeffs))
    if c == 1 and not m:
        return 1, 0, coeffs
    return c, m, {mono - m: v // c for mono, v in coeffs.items()}


# _exact_quotient finds its first this many quotient terms by max() scans
# before it builds its heap.  In the oracles of the eight spin parabolics
# inside (4,4), every trial division that passes the first/last-term checks
# and then fails does so at its second or third term.
_SCAN_STEPS = 3


def _exact_quotient(nvars: int, f: dict[int, int], g: dict[int, int]) -> dict[int, int] | None:
    """f / g when the primitive polynomial g divides f; None when it does not.

    Lexicographic division: when g divides f, the leading term of every
    remainder is a multiple of g's leading term, so the first one that is
    not proves that g does not divide f.  Divisibility of monomials uses the
    guard bits that _guard tests: with the top bit of every field set, a
    subtraction leaves it set exactly in the fields that do not borrow.  That
    needs exponents below 2**(FIELD_BITS - 1), which every term of an exact
    quotient's remainders has, so a remainder term past it also gives None.
    Most trial divisions fail, and most of those already at the first or
    the last term of f, which are the quotient's times g's.  The largest
    remainder term is found by max() for the first _SCAN_STEPS quotient
    terms, where most of the other failures happen, and after them comes
    from a heap of negated monomials (after Monagan and Pearce, CASC 2007),
    which costs a few max() scans to build.  A term that enters the
    remainder after that is pushed once; a term that cancels stays in the
    remainder as 0 until it is taken and skipped, so one that comes back is
    not pushed again.
    """
    if not f:
        return {}
    top = _top_bits(nvars)
    if reduce(or_, g) & top:
        return None
    for m, gm in ((max(f), max(g)), (min(f), min(g))):
        if m & top or ~((m | top) - gm) & top or f[m] % g[gm]:
            return None
    lead = max(g)
    lc = g[lead]
    rest = [(m, -c) for m, c in g.items() if m != lead]
    rem, quot, heap = dict(f), {}, None
    while rem:
        if heap is None and len(quot) == _SCAN_STEPS:
            heap = [-m for m in rem]
            heapify(heap)
        m = max(rem) if heap is None else -heappop(heap)
        c = rem.pop(m)
        if not c:
            continue  # the term cancelled after it entered the remainder
        if m & top or ~((m | top) - lead) & top or c % lc:
            return None
        t = m - lead
        q = quot[t] = c // lc
        for mg, cg in rest:
            mm = t + mg
            c = rem.get(mm)
            if c is None:
                rem[mm] = q * cg
                if heap is not None:
                    heappush(heap, -mm)
            else:
                rem[mm] = c + q * cg
    return quot


def _cancel(nvars: int, num: dict[int, int], factors: Counter[Factor],
            tries: Iterable[tuple[Factor, int]]) -> dict[int, int]:
    """Divide num by each factor as often as it goes, up to the given number of
    times, and take each quotient's factor out of factors."""
    for key, times in tries:
        g = dict(key)
        for _ in range(times):
            q = _exact_quotient(nvars, num, g)
            if q is None:
                break
            num = q
            factors[key] -= 1
            if not factors[key]:
                del factors[key]
    return num


def _times(poly: Poly, factors: Iterable[tuple[Factor, int]]) -> Poly:
    """poly times each factor to its power, one pass over poly per term of a
    factor, its terms in any order; a factor of no terms is 0.  Each power is
    guarded (_guard), the constant 1 too, which multiplies nothing."""
    nvars = poly.nvars
    coeffs = poly.coeffs
    for key, k in factors:
        (first, c0), *rest = key or ((0, 0),)
        used = reduce(or_, [m for m, _ in rest], first)
        for _ in range(k):
            _guard(reduce(or_, coeffs, used), nvars)
            if key == ((0, 1),):
                continue
            out = {m + first: c * c0 for m, c in coeffs.items()}
            get = out.get
            for mk, ck in rest:
                for m, c in coeffs.items():
                    m += mk
                    out[m] = get(m, 0) + c * ck
            coeffs = out
    if coeffs is poly.coeffs:
        return poly
    return Poly._packed(nvars, {m: c for m, c in coeffs.items() if c})


def _den(nvars: int, scale: int, mono: int, factors: Counter[Factor]) -> Poly:
    """scale * x^mono * prod factors, multiplied out."""
    return _times(Poly._packed(nvars, {mono: scale}), factors.items())


def _unit(nvars: int, num: dict[int, int], scale: int, mono: int,
          factors: Counter[Factor]) -> int:
    """1 or -1 when num is that times scale * x^mono * prod factors, else 0.

    The largest and the smallest term of that product are scale * x^mono
    times each factor's leading, or trailing, term to its power: the
    product is multiplied out only when num's two agree with them up to
    one sign.
    """
    high, low = max(num), min(num)
    sign = 1 if num[high] > 0 else -1
    lead_m = tail_m = mono
    lead_c = tail_c = sign * scale
    for key, k in factors.items():
        (m, c), (mt, ct) = key[0], key[-1]
        lead_m += k * m
        lead_c *= c ** k
        tail_m += k * mt
        tail_c *= ct ** k
    if high != lead_m or low != tail_m or num[high] != lead_c or num[low] != tail_c:
        return 0
    den = _den(nvars, scale, mono, factors).coeffs
    return sign if num == {m: sign * c for m, c in den.items()} else 0


class RatFunc:
    """Quotient of integer polynomials over a factored denominator.

    num / den is the value with no content and no monomial common to the
    two, den = scale * x^mono * (product of factors) and scale > 0.  A value
    holds num, scale, mono and the Counter of factors; den is a property
    that multiplies them out each time it is read, so an
    ExponentOverflowError of the denominator surfaces there, not when the
    value is built.  The factors are primitive, free of monomial factors and
    lead positively; legacy is the multiset of such factors that the
    unreduced quotient of the same computation had in its denominator, and
    holds every factor.
    """

    __slots__ = ("num", "scale", "mono", "factors", "legacy")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator polynomial")
        if num.nvars != den.nvars:
            raise ValueError("arity mismatch")
        nvars = num.nvars
        c, m, prim = _primitive(nvars, den.coeffs)
        nc = num.coeffs if c > 0 else {mono: -v for mono, v in num.coeffs.items()}
        factors: Counter[Factor] = Counter()
        if prim != {0: 1}:
            factors[_factor(prim)] = 1
        legacy = Counter(factors)
        self._store(nvars, _cancel(nvars, nc, factors, list(factors.items())), abs(c), m,
                    factors, legacy)

    def _store(self, nvars: int, num: dict[int, int], scale: int, mono: int,
               factors: Counter[Factor], legacy: Counter[Factor]) -> "RatFunc":
        """Hold num / (scale * x^mono * prod factors) with content and monomials
        cancelled; 0 and +-1 keep no factors at all."""
        if num:
            g = gcd(scale, *num.values())
            shift = _common_monomial(nvars, [mono, *num]) if mono else 0
            if g != 1 or shift:
                num = {m - shift: c // g for m, c in num.items()}
                scale //= g
                mono -= shift
            unit = _unit(nvars, num, scale, mono, factors)
            if not unit:
                self.num = Poly._packed(nvars, num)
                self.scale, self.mono, self.factors, self.legacy = scale, mono, factors, legacy
                return self
            num = {0: unit}
        self.num = Poly._packed(nvars, num)
        self.scale, self.mono, self.factors, self.legacy = 1, 0, Counter(), Counter()
        return self

    @classmethod
    def _make(cls, nvars: int, num: dict[int, int], scale: int, mono: int,
              factors: Counter[Factor], legacy: Counter[Factor]) -> "RatFunc":
        return cls.__new__(cls)._store(nvars, num, scale, mono, factors, legacy)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(Poly(nvars), Poly.const(1, nvars))

    @classmethod
    def const(cls, c: int, nvars: int) -> "RatFunc":
        return cls(Poly.const(c, nvars), Poly.const(1, nvars))

    @classmethod
    def from_poly(cls, poly: Poly) -> "RatFunc":
        return cls(poly, Poly.const(1, poly.nvars))

    @classmethod
    def p_inverse(cls, nvars: int) -> "RatFunc":
        return cls(Poly.const(1, nvars), Poly.var(0, nvars))

    @classmethod
    def theta(cls, i: int, nvars: int) -> "RatFunc":
        return cls.from_poly(Poly.var(i, nvars))

    @property
    def den(self) -> Poly:
        """The denominator, multiplied out from its factors on every read."""
        return _den(self.num.nvars, self.scale, self.mono, self.factors)

    # -- arithmetic ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _lifted(self, scale: int, mono: int, factors: Counter[Factor]) -> Poly:
        """The numerator over the multiple scale * x^mono * prod factors of den."""
        term = ((mono - self.mono, scale // self.scale),)
        return _times(self.num, [(term, 1), *(factors - self.factors).items()])

    def _add(self, other: "RatFunc", sign: int) -> "RatFunc":
        if other.is_zero:
            return self
        if self.is_zero and sign > 0:
            return other
        nvars = self.num.nvars
        mine, theirs = self.factors, other.factors
        factors = mine | theirs
        scale = lcm(self.scale, other.scale)
        mono = self.mono + other.mono - _common_monomial(nvars, [self.mono, other.mono])
        total = self._lifted(scale, mono, factors)._merge(
            other._lifted(scale, mono, factors), sign)
        num = _cancel(nvars, total.coeffs, factors, (mine & theirs).items())
        return RatFunc._make(nvars, num, scale, mono, factors, self.legacy + other.legacy)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return self._add(other, 1)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self._add(other, -1)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        nvars = self.num.nvars
        if self.is_zero or other.is_zero:
            return RatFunc.zero(nvars)
        factors = self.factors + other.factors
        left = _cancel(nvars, self.num.coeffs, factors, other.factors.items())
        right = _cancel(nvars, other.num.coeffs, factors, self.factors.items())
        num = Poly._packed(nvars, left) * Poly._packed(nvars, right)
        _guard(self.mono | other.mono, nvars)
        return RatFunc._make(nvars, num.coeffs, self.scale * other.scale,
                             self.mono + other.mono, factors, self.legacy + other.legacy)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero function")
        nvars = self.num.nvars
        if self.is_zero:
            return self
        c, m, prim = _primitive(nvars, other.num.coeffs)
        common = self.factors & other.factors
        factors = self.factors - common
        legacy = self.legacy + (other.legacy - other.factors)
        num = self.num.coeffs
        if prim != {0: 1}:
            key = _factor(prim)
            factors[key] += 1
            legacy[key] += 1
            num = _cancel(nvars, num, factors, [(key, 1)])
        term = ((other.mono, other.scale if c > 0 else -other.scale),)
        num = _times(Poly._packed(nvars, num), [(term, 1), *(other.factors - common).items()])
        _guard(self.mono | m, nvars)
        return RatFunc._make(nvars, num.coeffs, self.scale * abs(c), self.mono + m,
                             factors, legacy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num == other.num and (self.scale, self.mono, self.factors) == (
                other.scale, other.mono, other.factors):
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, p_value, theta_values) -> Fraction:
        """Exact evaluation; substitutions hitting a pole of the reduced quotient
        are rejected."""
        values = [Fraction(p_value)] + [Fraction(v) for v in theta_values]
        den = self.den.evaluate(values)
        if den == 0:
            raise ZeroDenominatorError("substitution lands on a pole")
        return self.num.evaluate(values) / den

    def printed_pair(self) -> tuple[Poly, Poly]:
        """Numerator and denominator as printed: num and den times the legacy
        factors that the reduction cancelled."""
        extra = self.legacy - self.factors
        if not extra:
            return self.num, self.den
        spare = _times(Poly.const(1, self.num.nvars), extra.items())
        return self.num * spare, self.den * spare

    def __str__(self) -> str:
        return _Printer(self.num.nvars).ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"
