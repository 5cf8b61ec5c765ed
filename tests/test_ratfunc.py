"""Packed-monomial polynomials against a plain tuple-keyed reference."""

import random
from collections import Counter
from math import gcd
from operator import add, mul, sub, truediv

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


def operand(rng, nvars):
    """Zero, one term or several, now and then with an exponent past a field's guard bit."""
    terms = rng.choice([0, 1, 1, 2, rng.randint(3, 12)])
    a = random_poly(rng, nvars, terms, rng.choice([1, 5, 60, 255]))
    return {m: c for m, c in a.items() if c}


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

    @pytest.mark.parametrize("seed", range(3))
    def test_both_orders(self, seed):
        """The product takes the operand of fewer terms as its factor, so every
        pair runs both ways round, the guard included."""
        rng = random.Random(500 + seed)
        top = 1 << ratfunc.FIELD_BITS - 1
        seen = Counter()
        for _ in range(200):
            nvars = rng.randint(1, 6)
            a, b = operand(rng, nvars), operand(rng, nvars)
            guarded = any(e >= top for mono in [*a, *b] for e in mono)
            for x, y in ((a, b), (b, a)):
                px, py = Poly(nvars, x), Poly(nvars, y)
                assert px + py == Poly(nvars, ref_add(x, y))
                assert px - py == Poly(nvars, ref_add(x, ref_neg(y)))
                if guarded:
                    with pytest.raises(ExponentOverflowError):
                        px * py
                else:
                    assert px * py == Poly(nvars, ref_mul(x, y))
            seen.update([min(len(a), 2), min(len(b), 2), "guarded" if guarded else "product"])
        assert all(seen[k] for k in (0, 1, 2, "guarded", "product"))

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


class TestStrAgainstReference:
    """The text is built from the first nvars - nvars // 2 exponents and the
    last nvars // 2, each half's text once per distinct half; these cases
    are chosen for that split."""

    COEFFS = [1, -1, 2, -3, 7 * 10**30 + 1, -(10**35) - 9]

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_halves(self, nvars, seed):
        rng = random.Random(900 + seed)
        exps = [0, 0, 1, 2, 127, 128, 254, 255]
        cut = nvars - nvars // 2
        high = [tuple(rng.choice(exps) for _ in range(cut)) for _ in range(6)]
        low = [tuple(rng.choice(exps) for _ in range(nvars - cut)) for _ in range(6)]
        monos = {h + lo for h in high for lo in low}
        monos.add((0,) * nvars)
        while len(monos) < 250:
            monos.add(tuple(rng.choice([*exps, rng.randint(0, 255)]) for _ in range(nvars)))
        a = {m: rng.choice(self.COEFFS) for m in monos}
        assert str(Poly(nvars, a)) == ref_str(a, nvars)
        # a half that occurs in several terms is printed from one table entry
        counts = Counter(half for m in a for half in (m[:cut], m[cut:]))
        assert max(counts.values()) > 1

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_unit_coefficients_and_constants(self, nvars):
        one, top = (0,) * nvars, (255,) + (0,) * (nvars - 1)
        last = (0,) * (nvars - 1) + (1,)
        for c in (1, -1):
            for terms in ({one: c}, {top: c}, {last: c}, {top: c, one: c},
                          {top: -c, last: c, one: -c}, {last: 2 * c, one: c},
                          {top: 10**40 * c, last: -c, one: 10**30 * c}):
                assert str(Poly(nvars, terms)) == ref_str(terms, nvars), terms
        assert str(Poly(nvars, {})) == ref_str({}, nvars) == "0"
        assert str(Poly.const(-1, nvars)) == "-1" and str(Poly.const(1, nvars)) == "1"

    @pytest.mark.parametrize("nvars", [1, 2, 5, 9])
    def test_one_printer_many_values(self, nvars):
        # A printer's half tables fill in as it prints: a text must not depend
        # on what the same printer printed before it.
        rng = random.Random(950 + nvars)
        exps = [0, 1, 2, 127, 255]
        cut = nvars - nvars // 2
        high = [tuple(rng.choice(exps) for _ in range(cut)) for _ in range(4)]
        low = [tuple(rng.choice(exps) for _ in range(nvars - cut)) for _ in range(4)]
        one = (0,) * nvars
        terms = [{}, {one: 1}, {one: -1}, {one: 7}, {one: -(10**30)}]
        for _ in range(12):
            shared = {rng.choice(high) + rng.choice(low): rng.choice(self.COEFFS)
                      for _ in range(rng.randint(1, 8))}
            disjoint = {tuple(rng.randint(0, 255) for _ in range(nvars)): rng.choice(self.COEFFS)
                        for _ in range(rng.randint(1, 8))}
            terms += [shared, disjoint]
        if nvars == 2:
            terms.append({(255, 0): -1, (1, 255): 10**30, (0, 1): 1, (0, 0): -1})
        values = [(ref_str(a, nvars), Poly(nvars, a)) for a in terms]
        for _ in range(8):
            num, den = (Poly(nvars, random_poly(rng, nvars, rng.randint(1, 5), 3))
                        for _ in range(2))
            if not den.is_zero:
                values.append((None, RatFunc(num, den)))
        for order in (values, values[::-1]):
            fresh = ratfunc._Printer(nvars)
            text = ratfunc.printer(nvars)
            for want, value in order:
                if isinstance(value, Poly):
                    assert fresh.poly(value) == want == str(value)
                    value = RatFunc.from_poly(value)
                else:
                    num, den = ({part._unpack(m): c for m, c in part.coeffs.items()}
                                for part in value.printed_pair())
                    want = ref_str(num, nvars) if den == {one: 1} else \
                        f"({ref_str(num, nvars)}) / ({ref_str(den, nvars)})"
                assert text(value) == want == str(value)

    def test_known_text(self):
        poly = Poly(2, {(255, 0): -1, (1, 255): 10**30, (0, 1): 1, (0, 0): -1})
        assert str(poly) == f"-p^255 + {10**30}*p*θ_1^255 + θ_1 - 1"
        assert str(Poly(1, {(3,): -1, (1,): 1, (0,): 1})) == "-p^3 + p + 1"


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
        return [RatFunc.from_poly(Poly.var(0, self.NV))] + \
            [RatFunc.theta(i, self.NV) for i in (1, 2, 3)]

    def test_structural_path_multiplies_nothing(self, monkeypatch):
        p, t1, t2, t3 = self.parts()
        a = (p * t2 - t1) / (p * (t2 - t1)) + t3
        b = (p * t2 - t1) / (p * (t2 - t1)) + t3
        assert a is not b and a.num is not b.num  # reduced pairs, equal but not shared

        def refuse(self, other):
            raise AssertionError("cross-multiplied")
        monkeypatch.setattr(Poly, "__mul__", refuse)
        assert a == b

    def test_equal_functions_with_different_structure(self):
        p, t1, t2, _ = self.parts()
        # t1^2 - t2^2 enters as one factor, which trial division keeps whole
        a = RatFunc((t1 + t2).num, (t1 * t1 - t2 * t2).num)
        b = RatFunc.const(1, self.NV) / (t1 - t2)
        assert (a.num, a.den) != (b.num, b.den)  # reduced pairs
        assert a == b

    def test_reduced_pair_equal_printed_pair_not(self):
        p, t1, t2, _ = self.parts()
        a = (t1 * t1 - t2 * t2) / (t1 - t2)
        b = t1 + t2
        assert (a.num, a.den) == (b.num, b.den)  # reduced pairs
        assert a.printed_pair() != b.printed_pair()
        assert str(a) == "(θ_1^2 - θ_2^2) / (θ_1 - θ_2)"
        assert str(b) == "θ_1 + θ_2"
        assert a == b

    def test_shared_factors_cancel(self):
        p, t1, t2, t3 = self.parts()
        one = RatFunc.const(1, self.NV)
        diff = t1 * t3 / (t1 - t2) - t2 * t3 / (t1 - t2)
        assert (diff.num, diff.den) == (t3.num, one.num)  # reduced pair
        assert str(diff) == ("(θ_1^2*θ_3 - 2*θ_1*θ_2*θ_3 + θ_2^2*θ_3)"
                             " / (θ_1^2 - 2*θ_1*θ_2 + θ_2^2)")
        prod = t1 / (t1 - t2) * ((t1 - t2) / t3)
        assert (prod.num, prod.den) == (t1.num, t3.num)  # reduced pair
        assert str(prod) == "(θ_1^2 - θ_1*θ_2) / (θ_1*θ_3 - θ_2*θ_3)"

    def test_unequal_with_equal_denominators(self):
        p, t1, t2, t3 = self.parts()
        den = p * (t2 - t1)
        a, b = (t1 + t3) / den, (t1 - t3) / den
        assert a.den == b.den and a.num != b.num  # reduced pairs
        assert a != b

    def test_unequal_with_equal_numerators(self):
        p, t1, t2, t3 = self.parts()
        a, b = (t1 + p) / (t2 - t3), (t1 + p) / (t2 + t3)
        assert a.num == b.num  # reduced pairs
        assert a != b

    def test_sign_and_content_canonical(self):
        p, t1, t2, _ = self.parts()
        two = RatFunc.const(2, self.NV)
        a = (two * t1 - two * p) / (RatFunc.const(-2, self.NV) * t2)
        assert str(a) == "(p - θ_1) / (θ_2)"


class TestExactDivision:
    def test_exponent_past_guard_bit_keeps_quotient(self):
        nv = 3
        t1, t2 = Poly.var(1, nv), Poly.var(2, nv)
        num = Poly(nv, {(0, 200, 1): 1, (0, 199, 2): -1})  # θ_1^199*θ_2*(θ_1 - θ_2)
        assert ratfunc._exact_quotient(nv, num.coeffs, (t1 - t2).coeffs) is None
        value = RatFunc(num, t1 - t2)
        assert str(value) == "(θ_1^200*θ_2 - θ_1^199*θ_2^2) / (θ_1 - θ_2)"
        assert value.evaluate(1, [2, 3]) == 2 ** 199 * 3

    @pytest.mark.parametrize("seed", range(3))
    def test_quotients_of_products(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(60):
            nvars = rng.randint(2, 6)
            f = Poly(nvars, random_poly(rng, nvars, rng.randint(1, 6), 3))
            g = Poly(nvars, random_poly(rng, nvars, rng.randint(1, 4), 3))
            if f.is_zero or g.is_zero:
                continue
            g = Poly._packed(nvars, ratfunc._primitive(nvars, g.coeffs)[2])
            assert ratfunc._exact_quotient(nvars, (f * g).coeffs, g.coeffs) == f.coeffs
            if g.coeffs != {0: 1}:
                h = f * g + Poly.const(1, nvars)
                assert ratfunc._exact_quotient(nvars, h.coeffs, g.coeffs) is None

    @staticmethod
    def max_reference(nvars, f, g):
        """Lexicographic division taking max(rem) each step: the quotient or
        None, and whether a remainder term cancelled and later came back."""
        lead = max(g)
        rem, quot, gone, returned = dict(f), {}, set(), False
        while rem:
            m = max(rem)
            c = rem.pop(m)
            fields = zip(m.to_bytes(nvars, "big"), lead.to_bytes(nvars, "big"))
            if any(e < el for e, el in fields) or c % g[lead]:
                return None, returned
            t = m - lead
            q = quot[t] = c // g[lead]
            for mg, cg in g.items():
                if mg != lead:
                    mm = t + mg
                    returned |= mm in gone and mm not in rem
                    c = rem.get(mm, 0) - q * cg
                    if c:
                        rem[mm] = c
                    else:
                        del rem[mm]
                        gone.add(mm)
        return quot, returned

    @pytest.mark.parametrize("seed", range(3))
    def test_heap_matches_max_reference(self, seed):
        # Seeded products f * g and the same with one term changed, drawn
        # until quotients and refusals have each been seen, with and without
        # a remainder term that cancelled and came back, a few times.
        rng = random.Random(310 + seed)
        outcomes = Counter()
        for _ in range(4000):
            if len(outcomes) == 4 and min(outcomes.values()) >= 5:
                break
            nvars = rng.randint(1, 3)
            f = Poly(nvars, random_poly(rng, nvars, rng.randint(1, 12), 2))
            g = Poly(nvars, random_poly(rng, nvars, rng.randint(1, 6), 2))
            if f.is_zero or g.is_zero:
                continue
            g = ratfunc._primitive(nvars, g.coeffs)[2]
            h = (f * Poly._packed(nvars, g)).coeffs
            changed = dict(h)
            mono = rng.choice([*h, *(m + 1 for m in h)])
            changed[mono] = changed.get(mono, 0) + rng.choice([-2, -1, 1, 3])
            changed = {m: c for m, c in changed.items() if c}
            for dividend in (h, changed):
                want, returned = self.max_reference(nvars, dividend, g)
                assert ratfunc._exact_quotient(nvars, dividend, g) == want
                outcomes[want is None, returned] += 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 5, outcomes


# -- reference: the unreduced quotient ----------------------------------------

def least_monomial(nvars, monos):
    fields = zip(*(m.to_bytes(nvars, "big") for m in monos))
    return int.from_bytes(bytes(map(min, fields)), "big")


class Unreduced:
    """The quotient as RatFunc printed it before it was kept in lowest terms:
    numerator and denominator of the whole computation, jointly stripped of
    integer content and common monomials, the denominator's leading
    coefficient positive, +-1 written as such, and equality decided by
    cross-multiplying."""

    def __init__(self, num, den):
        nvars = num.nvars
        nc, dc = num.coeffs, den.coeffs
        if not nc:
            nc, dc = {}, {0: 1}
        else:
            shift = least_monomial(nvars, [*nc, *dc])
            g = gcd(*nc.values(), *dc.values())
            if dc[max(dc)] < 0:
                g = -g
            nc = {m - shift: c // g for m, c in nc.items()}
            dc = {m - shift: c // g for m, c in dc.items()}
            if nc == dc:
                nc = dc = {0: 1}
            elif nc == {m: -c for m, c in dc.items()}:
                nc, dc = {0: -1}, {0: 1}
        self.num, self.den = Poly._packed(nvars, nc), Poly._packed(nvars, dc)

    def __add__(self, other):
        return Unreduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return Unreduced(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return Unreduced(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Unreduced(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return self.num * other.den == other.num * self.den

    def __str__(self):
        if self.den.coeffs == {0: 1}:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


class TestAgainstUnreduced:
    """Seeded expression sequences, computed in lowest terms and unreduced:
    the printed text and every equality must agree."""

    NV = 6  # p and theta_1..theta_5

    def atoms(self):
        nv = self.NV
        var = [Poly.var(i, nv) for i in range(nv)]
        one = Poly.const(1, nv)
        p, t = var[0], var[1:]
        pairs = [(x, one) for x in var] + [(Poly.const(c, nv), one) for c in (-2, 3)]
        for a, b in ((1, 2), (2, 4), (3, 5), (1, 5)):
            x, y = t[a - 1], t[b - 1]
            pairs += [(one, y - x), (y - x, one), (one, p * y - x),
                      (p * y - x, p * (y - x)), (x, p * y - x)]
        pairs += [(one, t[1] + t[2]), (t[0] - p, t[1] + t[2]), (one, p)]
        # numerator and denominator with a factor in common
        pairs += [((t[1] - t[0]) * t[2], t[1] - t[0]),
                  ((p * t[3] - t[2]) * (t[3] - t[2]), p * p * (t[3] - t[2]))]
        return [(RatFunc(n, d), Unreduced(n, d)) for n, d in pairs]

    def step(self, rng, pool):
        """One new value: an operation on the pool, or a sum through 0 or +-1."""
        nv = self.NV
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool[-6:] + pool)
        one = (RatFunc.const(1, nv), Unreduced(Poly.const(1, nv), Poly.const(1, nv)))
        kind = rng.choice("+-*/" * 3 + "zoOsq")
        if kind == "/" and y.is_zero:
            kind = "*"
        if kind == "z":  # through 0: (x - y) + (y - x), then + y
            return [((x - y) + (y - x) + y), ((rx - ry) + (ry - rx) + ry)]
        if kind == "o":  # through 1: (x + 1) - x, then times y
            return [((x + one[0]) - x) * y, ((rx + one[1]) - rx) * ry]
        if kind == "O":  # through -1: (x - 1) - x, then plus y
            return [((x - one[0]) - x) + y, ((rx - one[1]) - rx) + ry]
        if kind == "s":  # x / x and x - x, when x is not 0
            if x.is_zero:
                return [x + y, rx + ry]
            return [x / x - (y - y), rx / rx - (ry - ry)]
        if kind == "q":  # (x + y) - y
            return [(x + y) - y, (rx + ry) - ry]
        op = {"+": add, "-": sub, "*": mul, "/": truediv}[kind]
        return [op(x, y), op(rx, ry)]

    @pytest.mark.parametrize("seed", range(8))
    def test_sequences_print_and_compare_alike(self, seed):
        rng = random.Random(1000 + seed)
        pool = self.atoms()
        for _ in range(40):
            value, ref = self.step(rng, pool)
            assert str(value) == str(ref)
            assert value.num * ref.den == ref.num * value.den
            if len(ref.num.coeffs) + len(ref.den.coeffs) <= 400:
                pool.append((value, ref))
        for _ in range(60):
            (a, ra), (b, rb) = rng.choice(pool), rng.choice(pool)
            assert (a == b) == (ra == rb)
        for a, ra in pool:
            assert a == a and (a - a).is_zero and str(a - a) == "0"


# -- the factored denominator -------------------------------------------------

def unpacked(poly):
    return {poly._unpack(m): c for m, c in poly.coeffs.items()}


class TestFactoredDenominator:
    """A value keeps scale, x^mono and its factors; den is their product,
    multiplied out when it is read."""

    NV = 4

    def parts(self):
        return [RatFunc.from_poly(Poly.var(0, self.NV))] + \
            [RatFunc.theta(i, self.NV) for i in (1, 2, 3)]

    def expansions(self, monkeypatch):
        """Count the denominators multiplied out from here on."""
        calls = []
        den = ratfunc._den

        def counted(*args):
            calls.append(args)
            return den(*args)
        monkeypatch.setattr(ratfunc, "_den", counted)
        return calls

    def test_ends_agree_but_not_one(self, monkeypatch):
        _, t1, t2, _ = self.parts()
        square = (t1 - t2) * (t1 - t2)
        calls = self.expansions(monkeypatch)
        value = (t1 * t1 + t2 * t2) / square
        # leading terms θ_1^2 and trailing terms θ_2^2 agree, so the whole
        # denominator was multiplied out and compared
        assert len(calls) == 1
        assert str(value) == "(θ_1^2 + θ_2^2) / (θ_1^2 - 2*θ_1*θ_2 + θ_2^2)"
        assert sum(value.factors.values()) == 1 and value != RatFunc.const(1, self.NV)

    def test_ends_disagree_multiply_nothing(self, monkeypatch):
        _, t1, t2, t3 = self.parts()
        calls = self.expansions(monkeypatch)
        values = [t1 / (t1 - t2), (t1 * t1 - t2 * t3) / ((t1 - t2) * (t1 - t3)),
                  (t1 - t2) / (t1 + t2)]
        assert not calls
        assert [str(v) for v in values] == [
            "(θ_1) / (θ_1 - θ_2)",
            "(θ_1^2 - θ_2*θ_3) / (θ_1^2 - θ_1*θ_2 - θ_1*θ_3 + θ_2*θ_3)",
            "(θ_1 - θ_2) / (θ_1 + θ_2)"]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exactly_plus_or_minus_one(self, sign):
        nv = self.NV
        t1, t2 = Poly.var(1, nv), Poly.var(2, nv)
        num = (t1 - t2) * (t1 - t2)
        value = RatFunc(num if sign > 0 else -num, t1 * t1 - Poly.const(2, nv) * t1 * t2 + t2 * t2)
        assert str(value) == str(sign)
        assert value == RatFunc.const(sign, nv)
        assert not value.factors and not value.legacy
        assert (value.scale, value.mono, value.den) == (1, 0, Poly.const(1, nv))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_found_over_uncancelled_factors(self, monkeypatch, sign):
        """t1^2 - t2^2 and t1 - t2 share a divisor that trial division by whole
        factors does not see: the sum below has num = den, found only by
        multiplying den out."""
        _, t1, t2, _ = self.parts()
        zero = RatFunc.zero(self.NV)
        first = (zero - t2 * (t1 + t2)) / (t1 * t1 - t2 * t2)
        second = t1 / (t1 - t2)
        assert sum(first.factors.values()) == 1
        calls = self.expansions(monkeypatch)
        value = first + second if sign > 0 else (zero - second) - first
        assert len(calls) == 1 and len(calls[0][3]) == 2
        assert str(value) == str(sign)
        assert not value.factors and not value.legacy

    def test_overflowing_denominator_raises_when_read(self):
        _, t1, t2, _ = self.parts()
        value = RatFunc.const(1, self.NV)
        for _ in range(130):
            value = value / (t1 - t2)
        assert dict(value.factors) == {ratfunc._factor((t1 - t2).num.coeffs): 130}
        with pytest.raises(ExponentOverflowError):
            value.den
        with pytest.raises(ExponentOverflowError):
            str(value)

    @pytest.mark.parametrize("seed", range(4))
    def test_den_is_the_product_of_its_parts(self, seed):
        """Seeded chains of + - * /: den is readable and equals scale * x^mono
        * prod factors multiplied out by the reference product, and the value
        prints as the unreduced reference does."""
        rng = random.Random(2600 + seed)
        suite = TestAgainstUnreduced()
        nv = suite.NV
        pool = suite.atoms()
        ops = {"+": add, "-": sub, "*": mul, "/": truediv}
        for _ in range(60):
            (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool[-6:] + pool)
            kind = rng.choice("+-*/")
            if kind == "/" and y.is_zero:
                kind = "*"
            value, ref = ops[kind](x, y), ops[kind](rx, ry)
            expected = {(0,) * nv: value.scale}
            expected = ref_mul(expected, {value.num._unpack(value.mono): 1})
            for key, k in value.factors.items():
                for _ in range(k):
                    expected = ref_mul(expected, unpacked(Poly._packed(nv, dict(key))))
            assert unpacked(value.den) == expected
            assert str(value) == str(ref)
            if len(ref.num.coeffs) + len(ref.den.coeffs) <= 400:
                pool.append((value, ref))
