import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref.rootdata import (GLCharacter, GLCocharacter, GSpinCharacter, GSpinCocharacter,
                              PureWeight, RankMismatchError, is_pure, jmath_char,
                              jmath_vee_cochar, pairing, rho_doubled)


def gl(coeffs):
    return GLCharacter(len(coeffs) // 2, tuple(coeffs))


class TestJmathChar:
    def test_f1_n2(self):
        assert jmath_char(GSpinCharacter(2, (0, 1, 0)), 2) == gl((1, 0, 0, -1))

    def test_f0_n2(self):
        assert jmath_char(GSpinCharacter(2, (1, 0, 0)), 2) == gl((0, 0, 1, 1))

    def test_zero(self):
        assert jmath_char(GSpinCharacter(3, (0, 0, 0, 0)), 3) == gl((0,) * 6)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            jmath_char(GSpinCharacter(2, (0, 1, 0)), 3)

    def test_linear(self):
        rng = random.Random(0)
        for n in (1, 2, 3):
            a = GSpinCharacter(n, tuple(rng.randint(-5, 5) for _ in range(n + 1)))
            b = GSpinCharacter(n, tuple(rng.randint(-5, 5) for _ in range(n + 1)))
            s = GSpinCharacter(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
            assert jmath_char(s, n) == jmath_char(a, n) + jmath_char(b, n)

    def test_image_is_pure_sublattice(self):
        rng = random.Random(1)
        for n in (1, 2, 3):
            for _ in range(25):
                mu = GSpinCharacter(n, tuple(rng.randint(-6, 6) for _ in range(n + 1)))
                img = jmath_char(mu, n)
                # the purity weight is the f_0 coefficient, lambda_i the f_i one
                assert is_pure(img) == mu.coeffs[0]
                assert img.coeffs[:n] == mu.coeffs[1:]
            # a random pure vector is hit
            sw = rng.randint(-4, 4)
            top = [rng.randint(-6, 6) for _ in range(n)]
            lam = gl(top + [sw - t for t in reversed(top)])
            assert jmath_char(GSpinCharacter(n, (sw, *top)), n) == lam

    def test_not_pure_not_in_image(self):
        assert is_pure(gl((1, 0, 0, 0))) is None


class TestJmathVee:
    def test_e1_star(self):
        nu = GLCocharacter(2, (1, 0, 0, 0))
        assert jmath_vee_cochar(nu, 2).coeffs == (0, 1, 0)

    def test_zero(self):
        assert jmath_vee_cochar(GLCocharacter(2, (0,) * 4), 2).coeffs == (0, 0, 0)

    @settings(max_examples=100)
    @given(st.integers(1, 3), st.data())
    def test_adjunction(self, n, data):
        mu = GSpinCharacter(
            n, tuple(data.draw(st.integers(-8, 8)) for _ in range(n + 1)))
        nu = GLCocharacter(
            n, tuple(data.draw(st.integers(-8, 8)) for _ in range(2 * n)))
        assert pairing(mu, jmath_vee_cochar(nu, n)) == pairing(jmath_char(mu, n), nu)

    def test_adjunction_all_basis_pairs(self):
        for n in (1, 2, 3, 4):
            for i in range(n + 1):
                mu = GSpinCharacter(n, tuple(
                    1 if k == i else 0 for k in range(n + 1)))
                for j in range(2 * n):
                    nu = GLCocharacter(n, tuple(
                        1 if k == j else 0 for k in range(2 * n)))
                    assert pairing(mu, jmath_vee_cochar(nu, n)) == \
                        pairing(jmath_char(mu, n), nu)


class TestLattices:
    def test_pairing_refuses_mismatched_lattices(self):
        for mu, nu in [
                (GLCharacter(2, (1, 0, 0, 5)), GSpinCocharacter(2, (1, 0, 0))),
                (GSpinCharacter(2, (1, 0, 0)), GLCocharacter(2, (1, 0, 0, 5))),
                (GLCharacter(1, (1, 2)), GSpinCocharacter(1, (3, 4))),  # same length
                (GLCharacter(1, (1, 2)), GLCharacter(1, (3, 4))),
                (GLCharacter(1, (1, 2)), GLCocharacter(2, (1, 0, 0, 0))),
                (GSpinCharacter(2, (1, 0, 0)), GSpinCocharacter(3, (1, 0, 0, 0)))]:
            with pytest.raises(RankMismatchError, match="cannot pair"):
                pairing(mu, nu)
        assert pairing(GLCharacter(1, (1, 2)), GLCocharacter(1, (3, 4))) == 11
        assert pairing(GSpinCharacter(1, (1, 2)), GSpinCocharacter(1, (3, 4))) == 11

    def test_gl_character_sum_refuses_other_lattices_and_ranks(self):
        mu = GLCharacter(1, (1, 2))
        for other, text in [
                (GLCocharacter(1, (3, 4)), "rank-1 GL cocharacter"),
                (GSpinCharacter(1, (3, 4)), "rank-1 GSpin character"),
                (GLCharacter(2, (3, 4, 5, 6)), "rank-2 GL character")]:
            with pytest.raises(RankMismatchError,
                               match=f"cannot add a {text} to a rank-1 GL character"):
                mu + other
        assert mu + GLCharacter(1, (3, 4)) == GLCharacter(1, (4, 6))

    def test_lattices_told_apart(self):
        assert GLCharacter(1, (1, 2)) != GLCocharacter(1, (1, 2))
        assert GSpinCharacter(1, (1, 2)) != GSpinCocharacter(1, (1, 2))
        assert GLCharacter(1, (1, 2)) != GSpinCharacter(1, (1, 2))
        assert GLCharacter(1, (1, 2)) == GLCharacter(1, (1, 2))

    @pytest.mark.parametrize("cls, size, rule", [
        (GLCharacter, 4, "GL character needs 2n=4"),
        (GLCocharacter, 4, "GL cocharacter needs 2n=4"),
        (GSpinCharacter, 3, "GSpin character needs n\\+1=3"),
        (GSpinCocharacter, 3, "GSpin cocharacter needs n\\+1=3")])
    def test_wrong_length_refused(self, cls, size, rule):
        assert cls(2, (0,) * size).coeffs == (0,) * size
        for wrong in (size - 1, size + 1):
            with pytest.raises(RankMismatchError, match=rule):
                cls(2, (0,) * wrong)
        with pytest.raises(RankMismatchError, match="rank must be >= 1"):
            cls(0, ())


class TestRho:
    def test_gl_n1(self):
        assert rho_doubled("GL", 1).coeffs == (1, -1)

    def test_gspin_matches_positive_root_sum(self):
        # oracle: sum the listed positive roots {f_i} and {f_i +- f_j, i<j}
        for n in (1, 2, 3, 4):
            total = [0] * (n + 1)
            for i in range(1, n + 1):
                total[i] += 1
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    total[i] += 2  # (f_i + f_j) + (f_i - f_j)
            assert rho_doubled("GSpin", n).coeffs == tuple(total)

    def test_transfer_identity(self):
        for n in (1, 2, 3, 4):
            assert jmath_char(rho_doubled("GSpin", n), n) == rho_doubled("GL", n)

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            rho_doubled("Sp", 2)


class TestSimpleRootImages:
    def test_b_to_a(self):
        for n in (1, 2, 3, 4):
            for i in range(1, n + 1):
                b = GSpinCharacter(n, tuple(
                    (1 if k == i else 0) - (1 if k == i + 1 else 0)
                    for k in range(n + 1)))
                expect = [0] * (2 * n)
                expect[i - 1] += 1
                expect[i] -= 1
                if i < n:
                    expect[2 * n - i - 1] += 1
                    expect[2 * n - i] -= 1
                assert jmath_char(b, n) == gl(expect)


class TestPurity:
    def test_gl4_weight(self):
        assert is_pure(gl((12, 1, -1, -12))) == 0

    def test_not_pure(self):
        assert is_pure(gl((1, 0, 0, 0))) is None

    def test_constant(self):
        for c in (-3, 0, 5):
            assert is_pure(gl((c,) * 6)) == 2 * c

    def test_pure_weight_type(self):
        lam = PureWeight.from_coeffs((12, 1, -1, -12))
        assert lam.sw == 0 and lam.is_dominant
        assert lam.gap(1) == 11 and lam.gap(2) == 2 and lam.gap(3) == 11
        with pytest.raises(ValueError):
            PureWeight.from_coeffs((1, 0, 0, 0))
        assert not PureWeight.from_coeffs((0, 1, -1, 0)).is_dominant
