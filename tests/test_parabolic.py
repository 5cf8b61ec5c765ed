import itertools
import random

import pytest

from spinref import parabolic
from spinref.parabolic import (NotSpinError, RankMemoryError, SpinParabolic, all_spin_parabolics,
                               alpha_basis_decompose, crit_range, critical_shift,
                               format_xp, parse_composition, pure_basis_weights,
                               pure_parabolic_dim, weight_in_parabolic_coset)
from spinref.rootdata import PureWeight

LAM = PureWeight.from_coeffs((12, 1, -1, -12))


class TestConstruction:
    def test_141(self):
        p = SpinParabolic.from_composition((1, 4, 1))
        assert p.delta == frozenset({2, 3, 4})
        assert p.xp == frozenset({1})

    def test_1221(self):
        p = SpinParabolic.from_composition((1, 2, 2, 1))
        assert p.delta == frozenset({2, 4})

    def test_full_group(self):
        p = SpinParabolic.from_composition((6,))
        assert p.is_full_group and p.xp == frozenset()
        assert p.delta == frozenset(range(1, 6))

    def test_non_spin_rejected(self):
        # refused when built, with the message the CLI prints
        with pytest.raises(NotSpinError,
                           match=r"^composition \(1, 3, 2\) is not symmetric around the middle$"):
            SpinParabolic.from_composition((1, 3, 2))
        with pytest.raises(NotSpinError):
            SpinParabolic(2, frozenset({1}))

    def test_delta_above_memory_refused(self, monkeypatch):
        # building delta takes about 100 bytes for each of its 2n - r indices
        monkeypatch.setattr(parabolic, "physical_memory", lambda: 100 * 4)
        assert SpinParabolic.from_composition((3, 3)).delta == frozenset({1, 2, 4, 5})
        with pytest.raises(RankMemoryError, match=r"^rank n=5 needs more than the 400 bytes "
                                                  r"of physical memory for the Levi of its "
                                                  r"composition$"):
            SpinParabolic.from_composition((1, 4, 4, 1))
        # the palindrome is checked first
        with pytest.raises(NotSpinError):
            SpinParabolic.from_composition((1, 3, 6))

    def test_huge_composition_refused_before_delta(self, monkeypatch):
        def build(parts):
            raise AssertionError("delta built")

        monkeypatch.setattr(parabolic, "composition_delta", build)
        with pytest.raises(NotSpinError, match=r"^composition \(1, 2, 1000"):
            SpinParabolic.from_composition((1, 2, 10 ** 4000 + 1))
        with pytest.raises(RankMemoryError, match=r"^rank n above 10\^60 needs more than"):
            SpinParabolic.from_composition((10 ** 4000, 10 ** 4000))

    @pytest.mark.parametrize("N", range(1, 9))
    def test_from_composition_round_trip(self, N):
        # every composition of N, from its set of cut points
        for r in range(N):
            for cuts in itertools.combinations(range(1, N), r):
                c = tuple(b - a for a, b in zip((0,) + cuts, cuts + (N,)))
                if N % 2:
                    with pytest.raises(ValueError) as exc:
                        SpinParabolic.from_composition(c)
                    assert type(exc.value) is ValueError
                elif c == c[::-1]:
                    assert SpinParabolic.from_composition(c).composition == c
                else:
                    with pytest.raises(NotSpinError):
                        SpinParabolic.from_composition(c)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_spin_exactly_when_delta_symmetric(self, n):
        N = 2 * n
        for r in range(N):
            for delta in map(frozenset, itertools.combinations(range(1, N), r)):
                if delta == frozenset(N - i for i in delta):
                    p = SpinParabolic(n, delta)
                    assert SpinParabolic.from_xp(p.xp, n) == p
                else:
                    with pytest.raises(NotSpinError):
                        SpinParabolic(n, delta)

    def test_from_xp(self):
        assert SpinParabolic.from_xp({1, 2}, 2).is_borel
        assert SpinParabolic.from_xp({2}, 2).composition == (2, 2)
        assert SpinParabolic.from_xp(set(), 2).is_full_group

    def test_xp_bijection(self):
        for n in (1, 2, 3, 4):
            for r in range(n + 1):
                for xs in itertools.combinations(range(1, n + 1), r):
                    p = SpinParabolic.from_xp(xs, n)
                    assert p.xp == frozenset(xs)
                    assert SpinParabolic.from_xp(p.xp, n) == p

    def test_inclusion_reversing(self):
        for n in (2, 3, 4):
            ps = list(all_spin_parabolics(n))
            for p in ps:
                for q in ps:
                    assert (q.contains(p)) == (q.xp <= p.xp)

    def test_parse_and_label(self):
        assert parse_composition("1,2,1") == (1, 2, 1)
        assert SpinParabolic.borel(2).label() == "B"
        assert SpinParabolic.from_composition((2, 2)).label() == "2,2"
        assert format_xp(frozenset({3, 1})) == "{1,3}"


class TestIntersect:
    def test_with_full_group(self):
        p = SpinParabolic.from_composition((1, 4, 1))
        assert p.intersect(SpinParabolic.full_group(3)) == p

    def test_141_with_1221(self):
        p = SpinParabolic.from_composition((1, 4, 1))
        q = SpinParabolic.from_composition((1, 2, 2, 1))
        meet = p.intersect(q)
        assert meet.delta == frozenset({2, 4})
        assert meet.composition == (1, 2, 2, 1)

    def test_with_borel(self):
        b = SpinParabolic.borel(3)
        p = SpinParabolic.from_composition((2, 2, 2))
        assert b.intersect(p) == b

    def test_xp_union(self):
        for n in (2, 3):
            ps = list(all_spin_parabolics(n))
            for p in ps:
                for q in ps:
                    assert p.intersect(q).xp == p.xp | q.xp


class TestStaircase:
    def test_22(self):
        assert SpinParabolic.from_composition((2, 2)).staircase_cochar().coeffs == \
            (1, 1, 0, 0)

    def test_121(self):
        assert SpinParabolic.from_composition((1, 2, 1)).staircase_cochar().coeffs == \
            (2, 1, 1, 0)

    def test_full_group_zero(self):
        assert SpinParabolic.full_group(2).staircase_cochar().coeffs == (0,) * 4

    def test_swap_symmetry_for_spin(self):
        # the staircase of a spin parabolic with k blocks satisfies
        # e_i + e_{2n+1-i} = k - 1 (conjugation by the long element inverts it)
        for n in (1, 2, 3, 4):
            for p in all_spin_parabolics(n):
                exps = p.staircase_cochar().coeffs
                k = len(p.composition)
                assert all(exps[i] + exps[2 * n - 1 - i] == k - 1
                           for i in range(n))


class TestWeightCoset:
    def test_reflexive(self):
        for p in all_spin_parabolics(2):
            assert weight_in_parabolic_coset(LAM, LAM, p)

    def test_q_example_true(self):
        lam = PureWeight.from_coeffs((13, 2, 0, -11))
        q = SpinParabolic.from_composition((2, 2))
        assert weight_in_parabolic_coset(lam, LAM, q)

    def test_q_example_false(self):
        lam = PureWeight.from_coeffs((13, 1, -1, -13))
        q = SpinParabolic.from_composition((2, 2))
        assert not weight_in_parabolic_coset(lam, LAM, q)

    def test_membership_inherited_by_smaller_parabolics(self):
        # fewer Levi roots means fewer gap constraints, so membership mod P
        # passes down to every P' contained in P
        rng = random.Random(23)
        ps = list(all_spin_parabolics(3))
        zero = PureWeight.from_coeffs((0,) * 6)
        hits = 0
        for _ in range(60):
            top = [rng.randint(-6, 6) for _ in range(3)]
            sw = rng.randint(-3, 3) * 2
            lam = PureWeight.from_coeffs(tuple(top + [sw - t for t in reversed(top)]))
            p = rng.choice(ps)
            if weight_in_parabolic_coset(lam, zero, p):
                hits += 1
                for q in ps:
                    if p.contains(q):
                        assert weight_in_parabolic_coset(lam, zero, q)
        assert hits > 0

    def test_membership_not_inherited_upward(self):
        zero = PureWeight.from_coeffs((0,) * 4)
        lam = PureWeight.from_coeffs((1, 1, -1, -1))
        q = SpinParabolic.from_composition((2, 2))
        g = SpinParabolic.full_group(2)
        assert weight_in_parabolic_coset(lam, zero, q)
        assert g.contains(q)
        assert not weight_in_parabolic_coset(lam, zero, g)


class TestDimensions:
    def test_gl4_dims(self):
        dims = [pure_parabolic_dim(SpinParabolic.from_xp(x, 2))
                for x in ({1, 2}, {2}, set())]
        assert dims == [3, 2, 1]

    def test_borel_general(self):
        for n in (1, 2, 3, 4, 5):
            assert pure_parabolic_dim(SpinParabolic.borel(n)) == n + 1
            assert pure_parabolic_dim(SpinParabolic.borel(n)) - \
                pure_parabolic_dim(SpinParabolic.full_group(n)) == n


class TestAlphaBasis:
    def test_basis_shapes(self):
        basis = pure_basis_weights(2)
        assert basis == [(1, 1, 1, 1), (1, 0, 0, -1), (1, 1, 0, 0)]

    def test_zero_difference(self):
        mu, nonneg = alpha_basis_decompose(LAM, LAM)
        assert mu == (0, 0, 0) and nonneg

    def test_alpha0_shift(self):
        lam = PureWeight.from_coeffs((13, 2, 0, -11))
        mu, nonneg = alpha_basis_decompose(lam, LAM)
        assert mu == (1, 0, 0) and nonneg

    def test_random_reconstruction(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            base_top = [10 * n - 3 * i for i in range(n)]
            base = PureWeight.from_coeffs(
                tuple(base_top + [-t for t in reversed(base_top)]))
            basis = pure_basis_weights(n)
            for _ in range(30):
                mu = [rng.randint(0, 4) for _ in range(n + 1)]
                mu[n] = 2 * rng.randint(0, 2)  # keep the purity gap even
                coeffs = list(base.coeffs)
                for c, vec in zip(mu, basis):
                    for k in range(2 * n):
                        coeffs[k] += c * vec[k]
                lam = PureWeight.from_coeffs(tuple(coeffs))
                got, nonneg = alpha_basis_decompose(lam, base)
                assert got == tuple(mu) and nonneg

    def test_odd_gap_rejected(self):
        base = PureWeight.from_coeffs((2, 1, -1, -2))
        lam = PureWeight.from_coeffs((3, 2, -1, -2))  # difference is alpha_n
        with pytest.raises(ValueError, match="odd"):
            alpha_basis_decompose(lam, base)

    def test_negative_flagged(self):
        lam = PureWeight.from_coeffs((11, 0, -2, -13))
        mu, nonneg = alpha_basis_decompose(lam, LAM)
        assert mu == (-1, 0, 0) and not nonneg


class TestCritRange:
    def test_gl4_weight(self):
        assert list(crit_range(LAM)) == [-1, 0, 1]

    def test_singleton(self):
        lam = PureWeight.from_coeffs((5, 3, 3, 1))
        assert list(crit_range(lam)) == [-3]

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            crit_range(PureWeight.from_coeffs((0, 1, -1, 0)))

    def test_critical_shift(self):
        lam = PureWeight.from_coeffs(tuple(c + 1 for c in LAM.coeffs))  # + alpha_0
        assert critical_shift(0, lam, LAM) == -1
