"""Exact rational functions in p and the Satake symbols theta_1, ..., theta_2n.

Polynomials are dictionaries from exponent tuples (p first, then the
thetas) to integer coefficients.  Rational functions keep a numerator and
denominator jointly stripped of integer content, with the denominator's
sign pinned by its lexicographically leading monomial; no polynomial
factorization is attempted, so equality is decided by cross-multiplying.
Coefficients stay small at the ranks used here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


class Poly:
    """Multivariate integer polynomial; variable 0 is p, variable i is theta_i."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.coeffs: dict[tuple[int, ...], int] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if c:
                    if len(mono) != nvars:
                        raise ValueError("monomial arity mismatch")
                    self.coeffs[tuple(mono)] = c

    @classmethod
    def const(cls, c: int, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, index: int, nvars: int) -> "Poly":
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {mono: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars \
            and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) + c
            if not out[mono]:
                del out[mono]
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
                if not out[mono]:
                    del out[mono]
        return Poly(self.nvars, out)

    def content(self) -> int:
        g = 0
        for c in self.coeffs.values():
            g = _gcd(g, c)
        return g

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically largest monomial and its coefficient."""
        mono = max(self.coeffs)
        return mono, self.coeffs[mono]

    def evaluate(self, values: Iterable[Fraction]) -> Fraction:
        values = list(values)
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = Fraction(c)
            for v, e in zip(values, mono):
                term *= v ** e
            total += term
        return total

    def _mono_str(self, mono: tuple[int, ...]) -> str:
        names = ["p"] + [f"θ_{i}" for i in range(1, self.nvars)]
        pieces = []
        for name, e in zip(names, mono):
            if e == 1:
                pieces.append(name)
            elif e:
                pieces.append(f"{name}^{e}")
        return "*".join(pieces) if pieces else "1"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            body = self._mono_str(mono)
            if body == "1":
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


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
        if num.is_zero:
            den = Poly.const(1, den.nvars)
        else:
            shift = [min(min(e[v] for e in num.coeffs), min(e[v] for e in den.coeffs))
                     for v in range(num.nvars)]
            if any(shift):
                num = Poly(num.nvars, {tuple(a - s for a, s in zip(m, shift)): c
                                       for m, c in num.coeffs.items()})
                den = Poly(den.nvars, {tuple(a - s for a, s in zip(m, shift)): c
                                       for m, c in den.coeffs.items()})
            g = _gcd(num.content(), den.content())
            if g > 1:
                num = Poly(num.nvars, {m: c // g for m, c in num.coeffs.items()})
                den = Poly(den.nvars, {m: c // g for m, c in den.coeffs.items()})
            if den.leading()[1] < 0:
                num, den = -num, -den
            if num == den:
                num = den = Poly.const(1, num.nvars)
            elif num == -den:
                num = Poly.const(-1, num.nvars)
                den = Poly.const(1, num.nvars)
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

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
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
        if self.den == Poly.const(1, self.den.nvars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"
