"""Exact rational functions in p and the Satake symbols theta_1, ..., theta_2n.

Polynomials are dictionaries from packed monomials to integer coefficients.
A monomial packs its exponent tuple (p first, then the thetas) into one int
with a FIELD_BITS-wide field per variable, p in the most significant field,
so integer order is the lexicographic order of the exponent tuples and the
product of two monomials is the sum of their keys.  Before a product the
keys of both factors are OR-ed together and the top bit of every field is
tested: with every exponent below 2**(FIELD_BITS - 1) no sum can carry into
the next field, and otherwise ExponentOverflowError is raised.  Keys are
unpacked only for printing, evaluation and ``leading``.

Rational functions keep a numerator and denominator jointly stripped of
integer content and of common monomial factors, with the denominator's
sign pinned by its lexicographically leading monomial.  No polynomial
factorization is attempted, so this is not a normal form: equality holds
at once when numerators and denominators agree term by term, and is
otherwise decided by cross-multiplying.  Coefficients stay small at the
ranks used here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import getitem, or_
from typing import Iterable, Mapping

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

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        get = out.get
        for mono, c in other.coeffs.items():
            c += get(mono, 0)
            if c:
                out[mono] = c
            else:
                del out[mono]
        return Poly._packed(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._packed(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        used = reduce(or_, self.coeffs, 0) | reduce(or_, other.coeffs, 0)
        if used & _top_bits(self.nvars):
            raise ExponentOverflowError(
                f"an exponent of a factor exceeds {_FIELD_MASK >> 1}, "
                f"so the product could carry out of its {FIELD_BITS}-bit field")
        out: dict[int, int] = {}
        get = out.get
        right = list(other.coeffs.items())
        for m1, c1 in self.coeffs.items():
            for m2, c2 in right:
                mono = m1 + m2
                out[mono] = get(mono, 0) + c1 * c2
        return Poly._packed(self.nvars, {m: c for m, c in out.items() if c})

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
        if self.is_zero:
            return "0"
        nvars = self.nvars
        largest = max(reduce(or_, self.coeffs).to_bytes(nvars, "big"))
        # factors[v][e]: the text of variable v to the power e, then "*"
        factors = [["", f"{name}*"] + [f"{name}^{e}*" for e in range(2, largest + 1)]
                   for name in ["p"] + [f"θ_{i}" for i in range(1, nvars)]]
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            body = "".join(map(getitem, factors, mono.to_bytes(nvars, "big")))[:-1]
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


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


class RatFunc:
    """Quotient of integer polynomials, canonicalized but not factored."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator polynomial")
        if num.nvars != den.nvars:
            raise ValueError("arity mismatch")
        nvars = num.nvars
        if num.is_zero:
            den = Poly.const(1, nvars)
        else:
            nc, dc = num.coeffs, den.coeffs
            shift = _common_monomial(nvars, [*nc, *dc])
            g = gcd(*nc.values(), *dc.values())
            if dc[max(dc)] < 0:
                g = -g
            if shift or g != 1:
                nc = {m - shift: c // g for m, c in nc.items()}
                dc = {m - shift: c // g for m, c in dc.items()}
            if nc == dc:
                nc = dc = {0: 1}
            elif nc == {m: -c for m, c in dc.items()}:
                nc, dc = {0: -1}, {0: 1}
            num, den = Poly._packed(nvars, nc), Poly._packed(nvars, dc)
        self.num = num
        self.den = den

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
    def var_p(cls, nvars: int) -> "RatFunc":
        return cls.from_poly(Poly.var(0, nvars))

    @classmethod
    def p_inverse(cls, nvars: int) -> "RatFunc":
        return cls(Poly.const(1, nvars), Poly.var(0, nvars))

    @classmethod
    def theta(cls, i: int, nvars: int) -> "RatFunc":
        return cls.from_poly(Poly.var(i, nvars))

    # -- arithmetic ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, p_value, theta_values) -> Fraction:
        """Exact evaluation; degenerate substitutions hitting the pole are rejected."""
        values = [Fraction(p_value)] + [Fraction(v) for v in theta_values]
        den = self.den.evaluate(values)
        if den == 0:
            raise ZeroDenominatorError("substitution lands on a pole")
        return self.num.evaluate(values) / den

    def __str__(self) -> str:
        if self.den.coeffs == {0: 1}:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"
