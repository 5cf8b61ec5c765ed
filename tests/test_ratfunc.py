"""Packed-monomial polynomials against a plain tuple-keyed reference."""

import random

import pytest

from spinref import ratfunc
from spinref.ratfunc import ExponentOverflowError, Poly, RatFunc


# -- reference: exponent tuples as keys, p first ------------------------------

def ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_str(a, nvars):
    if not a:
        return "0"
    names = ["p"] + [f"θ_{i}" for i in range(1, nvars)]
    parts = []
    for mono in sorted(a, reverse=True):
        c = a[mono]
        body = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, mono) if e) or "1"
        if body == "1":
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_poly(rng, nvars, terms, max_exp):
    return {tuple(rng.randint(0, max_exp) for _ in range(nvars)): rng.randint(-4, 4)
            for _ in range(terms)}


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 11)
        max_exp = rng.choice([1, 2, 5, 60])
        a = random_poly(rng, nvars, rng.randint(0, 12), max_exp)
        b = random_poly(rng, nvars, rng.randint(0, 12), max_exp)
        if rng.random() < 0.3:
            # share terms so that sums cancel
            b.update(ref_neg(dict(list(a.items())[: len(a) // 2])))
        yield nvars, a, b


class TestPolyAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_str_and_leading(self, seed):
        for nvars, a, b in cases(seed, 150):
            pa, pb = Poly(nvars, a), Poly(nvars, b)
            expected = {
                "+": ref_add(a, b),
                "-": ref_add(a, ref_neg(b)),
                "*": ref_mul(a, b),
                "neg": ref_neg({m: c for m, c in a.items() if c}),
            }
            results = {"+": pa + pb, "-": pa - pb, "*": pa * pb, "neg": -pa}
            for op, ref in expected.items():
                got = results[op]
                assert got == Poly(nvars, ref), op
                assert str(got) == ref_str(ref, nvars), op
                if ref:
                    mono = max(ref)
                    assert got.leading() == (mono, ref[mono]), op
            assert str(pa) == ref_str({m: c for m, c in a.items() if c}, nvars)

    def test_canceling_products(self):
        nv = 4
        x, y = Poly.var(1, nv), Poly.var(2, nv)
        assert (x + y) * (x - y) == x * x - y * y
        assert ((x - y) * (x + y) - x * x + y * y).is_zero
        assert str((x - y) * (x - y)) == "θ_1^2 - 2*θ_1*θ_2 + θ_2^2"

    def test_p_is_most_significant(self):
        nv = 3
        p, t1, t2 = (Poly.var(i, nv) for i in range(nv))
        poly = t2 * t2 * t2 + t1 * t2 + p
        assert poly.leading() == ((1, 0, 0), 1)
        assert str(poly) == "p + θ_1*θ_2 + θ_2^3"

    def test_evaluate(self):
        nv = 3
        poly = Poly(nv, {(2, 1, 0): 3, (0, 0, 4): -1, (0, 0, 0): 5})
        assert poly.evaluate([2, 3, 1]) == 3 * 4 * 3 - 1 + 5


class TestOverflowGuard:
    def test_error_is_arithmetic(self):
        assert issubclass(ExponentOverflowError, ArithmeticError)

    def test_largest_safe_factors(self):
        top = (1 << ratfunc.FIELD_BITS - 1) - 1
        a = Poly(3, {(top, 0, top): 2})
        square = a * a
        assert square.leading() == ((2 * top, 0, 2 * top), 4)

    @pytest.mark.parametrize("var", [0, 1, 2])
    def test_every_field_guarded(self, var):
        big = [0, 0, 0]
        big[var] = 1 << ratfunc.FIELD_BITS - 1
        a = Poly(3, {tuple(big): 1})
        with pytest.raises(ExponentOverflowError):
            a * Poly.const(1, 3)
        with pytest.raises(ExponentOverflowError):
            Poly.const(1, 3) * a

    def test_repeated_squaring_never_wraps(self):
        x = Poly.var(1, 2)
        power = 1
        with pytest.raises(ExponentOverflowError):
            while True:
                x = x * x
                power *= 2
                assert x.leading() == ((0, power), 1)

    def test_construction_checks_exponents(self):
        with pytest.raises(ExponentOverflowError):
            Poly(2, {(1 << ratfunc.FIELD_BITS, 0): 1})
        with pytest.raises(ValueError):
            Poly(2, {(0, -1): 1})
        with pytest.raises(ValueError):
            Poly(2, {(0, 0, 0): 1})


class TestCommonMonomial:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_least_exponents(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(200):
            nvars = rng.randint(1, 9)
            floor = [rng.choice([0, 0, 1, 3, 200]) for _ in range(nvars)]
            monos = [tuple(f + rng.choice([0, 0, 1, 40]) for f in floor)
                     for _ in range(rng.randint(1, 6))]
            monos = [tuple(min(e, 255) for e in m) for m in monos]
            least = tuple(min(col) for col in zip(*monos))
            packed = list(Poly(nvars, {m: 1 for m in monos}).coeffs)
            expected = next(iter(Poly(nvars, {least: 1}).coeffs))
            assert ratfunc._common_monomial(nvars, packed) == expected


class TestRatFuncEquality:
    NV = 4

    def parts(self):
        return [RatFunc.var_p(self.NV)] + [RatFunc.theta(i, self.NV) for i in (1, 2, 3)]

    def test_structural_path_multiplies_nothing(self, monkeypatch):
        p, t1, t2, t3 = self.parts()
        a = (p * t2 - t1) / (p * (t2 - t1)) + t3
        b = (p * t2 - t1) / (p * (t2 - t1)) + t3
        assert a is not b and a.num is not b.num

        def refuse(self, other):
            raise AssertionError("cross-multiplied")
        monkeypatch.setattr(Poly, "__mul__", refuse)
        assert a == b

    def test_equal_functions_with_different_structure(self):
        p, t1, t2, _ = self.parts()
        a = (t1 * t1 - t2 * t2) / (t1 - t2)
        b = t1 + t2
        assert (a.num, a.den) != (b.num, b.den)
        assert a == b

    def test_unequal_with_equal_denominators(self):
        p, t1, t2, t3 = self.parts()
        den = p * (t2 - t1)
        a, b = (t1 + t3) / den, (t1 - t3) / den
        assert a.den == b.den and a.num != b.num
        assert a != b

    def test_unequal_with_equal_numerators(self):
        p, t1, t2, t3 = self.parts()
        a, b = (t1 + p) / (t2 - t3), (t1 + p) / (t2 + t3)
        assert a.num == b.num
        assert a != b

    def test_sign_and_content_canonical(self):
        p, t1, t2, _ = self.parts()
        two = RatFunc.const(2, self.NV)
        a = (two * t1 - two * p) / (RatFunc.const(-2, self.NV) * t2)
        assert str(a) == "(p - θ_1) / (θ_2)"
