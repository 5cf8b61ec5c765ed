import itertools
from fractions import Fraction

import pytest

from spinref.intertwine import (ParahoricVector, PSVector, T_s, _rho_of_gl_coset, c_s,
                                factorisation_membership, lower_block_composition,
                                m_tau_expansion, m_tau_expansion_oracle, nu_beta, w_of_rho,
                                zeta_support_verdict)
from spinref.parabolic import NotSpinError, SpinParabolic, all_spin_parabolics
from spinref.ratfunc import Poly, RatFunc, ZeroDenominatorError
from spinref.weyl import LeviCoset, Perm, Trichotomy, simple_trichotomy


class TestRatFunc:
    def test_arithmetic_and_equality(self):
        nv = 3
        p = RatFunc.from_poly(Poly.var(0, nv))
        t1 = RatFunc.theta(1, nv)
        t2 = RatFunc.theta(2, nv)
        half = t1 / (p * t2)
        other = (t1 * t1) / (p * t2 * t1)
        assert half == other  # equal in lowest terms
        assert (half - other).is_zero
        assert (p * RatFunc.p_inverse(nv)) == RatFunc.const(1, nv)

    def test_zero_denominator(self):
        nv = 2
        with pytest.raises(ZeroDenominatorError):
            RatFunc(Poly.const(1, nv), Poly(nv))
        with pytest.raises(ZeroDenominatorError):
            RatFunc.const(1, nv) / RatFunc.zero(nv)

    def test_canonical_one(self):
        nv = 3
        t1 = RatFunc.theta(1, nv)
        t2 = RatFunc.theta(2, nv)
        expr = (t1 + t2) / (t1 + t2)
        assert str(expr) == "1"
        assert str((t1 - t2) / (t2 - t1)) == "-1"

    def test_monomial_content_stripped(self):
        nv = 3
        p = RatFunc.from_poly(Poly.var(0, nv))
        t1 = RatFunc.theta(1, nv)
        t2 = RatFunc.theta(2, nv)
        expr = (p * t1 * t2) / (p * p * t1 * t1)
        assert str(expr) == "(θ_2) / (p*θ_1)"

    def test_evaluate(self):
        nv = 3
        expr = (RatFunc.from_poly(Poly.var(0, nv)) + RatFunc.theta(1, nv)) / RatFunc.theta(2, nv)
        assert expr.evaluate(2, [3, 4]) == Fraction(5, 4)

    def test_str_deterministic(self):
        nv = 3
        expr = RatFunc.theta(2, nv) - RatFunc.from_poly(Poly.var(0, nv))
        assert str(expr) == "-p + θ_2"


class TestCs:
    def test_formula_at_trivial_twist(self):
        # (1 - p^{-1} t3/t4) / (1 - t3/t4) for 2n = 4, a = 3
        nv = 5
        one = RatFunc.const(1, nv)
        p_inv = RatFunc.p_inverse(nv)
        ratio = RatFunc.theta(3, nv) / RatFunc.theta(4, nv)
        expected = (one - p_inv * ratio) / (one - ratio)
        assert c_s(3, Perm.identity(4)) == expected

    def test_twisted(self):
        nv = 5
        tw = Perm((2, 1, 4, 3))
        one = RatFunc.const(1, nv)
        p_inv = RatFunc.p_inverse(nv)
        ratio = RatFunc.theta(4, nv) / RatFunc.theta(3, nv)
        assert c_s(3, tw) == (one - p_inv * ratio) / (one - ratio)

    def test_never_zero(self):
        for tw_images in itertools.permutations((1, 2, 3, 4)):
            assert not c_s(3, Perm(tw_images)).is_zero

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            c_s(1, Perm.identity(4))
        with pytest.raises(ValueError):
            c_s(2, Perm.identity(4))

    def test_degenerate_substitution_reported(self):
        cs = c_s(3, Perm.identity(4))
        with pytest.raises(ZeroDenominatorError):
            cs.evaluate(7, [1, 2, 5, 5])
        assert cs.evaluate(7, [1, 2, 5, 6]) != 0


class TestTs:
    def test_lengthening_case(self):
        nv = 5
        v = PSVector.cell(Perm.identity(4))
        out = T_s(v, 3)
        s = Perm.simple(3, 4)
        assert out.twist == s
        cs = c_s(3, Perm.identity(4))
        assert out.terms[s] == RatFunc.p_inverse(nv)
        assert out.terms[Perm.identity(4)] == cs - RatFunc.const(1, nv)

    def test_shortening_case(self):
        nv = 5
        s = Perm.simple(3, 4)
        v = PSVector.cell(s)
        out = T_s(v, 3)
        cs = c_s(3, Perm.identity(4))
        assert out.terms[Perm.identity(4)] == RatFunc.const(1, nv)
        assert out.terms[s] == cs - RatFunc.p_inverse(nv)

    def test_parahoric_coherence(self):
        # expanding a coset cell, applying the operator, and regrouping
        # reproduces the three-way trichotomy formula, for every coset
        N = 4
        nv = N + 1
        deltas = [frozenset(), frozenset({1}), frozenset({1, 3}), frozenset({2}),
                  frozenset({1, 2})]
        one = RatFunc.const(1, nv)
        p_inv = RatFunc.p_inverse(nv)
        for delta in deltas:
            cosets = {LeviCoset(Perm(im), delta)
                      for im in itertools.permutations(range(1, N + 1))}
            for coset in cosets:
                for a in (3,):
                    h = ParahoricVector(Perm.identity(N), {coset: one})
                    result = ParahoricVector.collect(T_s(h.expand(), a), delta)
                    cs = c_s(a, Perm.identity(N))
                    verdict = simple_trichotomy(a, coset)
                    moved = LeviCoset(Perm.simple(a, N) * coset.rep, delta)
                    if verdict is Trichotomy.PERMUTES:
                        expected = {coset: cs}
                    elif verdict is Trichotomy.ALL_LONGER:
                        expected = {moved: p_inv, coset: cs - one}
                    else:
                        expected = {moved: one, coset: cs - p_inv}
                    assert set(result.cosets) == set(expected)
                    for key, val in expected.items():
                        assert result.cosets[key] == val


class TestWOfRho:
    def test_long_element(self):
        assert w_of_rho(Perm.longest(2)) == Perm.longest(4)

    def test_shape(self):
        w = w_of_rho(Perm((2, 1, 3)))
        assert w.images == (5, 4, 6, 3, 2, 1)

    def test_left_multiplication_compatibility(self):
        # s acting in the lower block matches left multiplication upstairs
        for rho_images in itertools.permutations((1, 2, 3)):
            rho = Perm(rho_images)
            for m in (1, 2):
                lhs = Perm.simple(3 + m, 6) * w_of_rho(rho)
                rhs = w_of_rho(Perm.simple(m, 3) * rho)
                assert lhs == rhs


class TestMTau:
    def test_n1_trivial(self):
        expansion, prenorm = m_tau_expansion(1, SpinParabolic.borel(1))
        (coset, coeff), = expansion.items()
        assert coset.rep == Perm.identity(1)
        assert str(coeff) == "1"
        assert str(prenorm) == "1"

    def test_n2_q_single_coset(self):
        q = SpinParabolic.from_composition((2, 2))
        expansion, prenorm = m_tau_expansion(2, q)
        assert len(expansion) == 1
        (coset, coeff), = expansion.items()
        assert coeff == RatFunc.const(1, 5)
        # the pre-normalization coefficient is exactly the c_s factor of
        # the single lower-block reflection (times p^0)
        assert prenorm == c_s(3, Perm.identity(4))

    def test_n2_borel_two_cosets(self):
        b = SpinParabolic.borel(2)
        expansion, prenorm = m_tau_expansion(2, b)
        assert len(expansion) == 2
        identity_key = LeviCoset(Perm.identity(2), frozenset())
        assert expansion[identity_key] == RatFunc.const(1, 5)
        assert prenorm == RatFunc.const(1, 5)
        other_key = LeviCoset(Perm((2, 1)), frozenset())
        # independent derivation: one shortening step gives c_s - p^{-1}
        assert expansion[other_key] == \
            c_s(3, Perm.identity(4)) - RatFunc.p_inverse(5)

    @pytest.mark.parametrize("label", ["B", "Q"])
    def test_oracle_agreement_n2(self, label):
        p = SpinParabolic.borel(2) if label == "B" else \
            SpinParabolic.from_composition((2, 2))
        expansion, _ = m_tau_expansion(2, p)
        oracle = m_tau_expansion_oracle(2, p)
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]

    @pytest.mark.parametrize("comp", [(1, 1, 1, 1, 1, 1), (1, 2, 2, 1),
                                      (2, 1, 1, 2), (3, 3)])
    def test_oracle_agreement_n3(self, comp):
        p = SpinParabolic.from_composition(comp)
        expansion, _ = m_tau_expansion(3, p)
        oracle = m_tau_expansion_oracle(3, p)
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]

    def test_oracle_agreement_n4_borel(self):
        p = SpinParabolic.borel(4)
        expansion, _ = m_tau_expansion(4, p)
        oracle = m_tau_expansion_oracle(4, p)
        assert len(expansion) == 24
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]

    @pytest.mark.parametrize("comp", [(4, 4), (1, 3, 3, 1), (2, 2, 2, 2), (3, 1, 1, 3),
                                      (1, 1, 2, 2, 1, 1), (1, 2, 1, 1, 2, 1),
                                      (2, 1, 1, 1, 1, 2)])
    def test_oracle_agreement_n4(self, comp):
        p = SpinParabolic.from_composition(comp)
        expansion, _ = m_tau_expansion(4, p)
        oracle = m_tau_expansion_oracle(4, p)
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]

    def test_oracle_agreement_n5_2332(self):
        p = SpinParabolic.from_composition((2, 3, 3, 2))
        expansion, _ = m_tau_expansion(5, p)
        oracle = m_tau_expansion_oracle(5, p)
        assert len(expansion) == 10
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]

    def test_rejects_parabolic_outside_q(self):
        with pytest.raises(NotSpinError):
            m_tau_expansion(2, SpinParabolic.from_composition((1, 2, 1)))

    def test_no_spurious_poles(self):
        # normalized coefficients evaluate finitely whenever the symbols
        # are pairwise distinct
        for p in (SpinParabolic.borel(2), SpinParabolic.from_composition((2, 2))):
            expansion, _ = m_tau_expansion(2, p)
            for coeff in expansion.values():
                for theta in ([2, 3, 5, 7], [11, 4, 9, 2], [1, 6, 8, 3]):
                    coeff.evaluate(13, theta)

    def test_lower_block_composition(self):
        assert lower_block_composition(SpinParabolic.borel(3)) == (1, 1, 1)
        assert lower_block_composition(
            SpinParabolic.from_composition((2, 1, 1, 2))) == (2, 1)
        with pytest.raises(NotSpinError):
            lower_block_composition(SpinParabolic.from_composition((1, 4, 1)))
        for n in range(1, 7):
            for p in all_spin_parabolics(n):
                if p.contained_in_nn:
                    half = lower_block_composition(p)
                    assert sum(half) == n
                    assert half + half[::-1] == p.composition

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lower_block_trichotomy_matches_gl_coset(self, n):
        # m_tau_expansion decides each step on the lower-block coset; the
        # reference asks the same question of the GL(2n) coset of w(rho)
        for p in all_spin_parabolics(n):
            if not p.contained_in_nn:
                continue
            delta_k = _delta_of(lower_block_composition(p), n)
            cosets = {LeviCoset(Perm(images), delta_k)
                      for images in itertools.permutations(range(1, n + 1))}
            for coset in cosets:
                gl_coset = LeviCoset(w_of_rho(coset.rep), p.delta)
                for letter in range(1, n):
                    assert simple_trichotomy(letter, coset) is \
                        simple_trichotomy(n + letter, gl_coset)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rho_read_off_the_gl_coset(self, n):
        # the oracle reads rho off the minimal representative of the GL(2n)
        # coset of w(rho); it must land in rho's own lower-block coset
        for p in all_spin_parabolics(n):
            if not p.contained_in_nn:
                continue
            delta_k = _delta_of(lower_block_composition(p), n)
            for images in itertools.permutations(range(1, n + 1)):
                rho = Perm(images)
                gl_coset = LeviCoset(w_of_rho(rho), p.delta)
                assert LeviCoset(_rho_of_gl_coset(gl_coset, n), delta_k) == \
                    LeviCoset(rho, delta_k)
            # the first n values are not n+1..2n
            with pytest.raises(ValueError, match="does not come from the lower block"):
                _rho_of_gl_coset(LeviCoset(Perm.identity(2 * n), p.delta), n)
        # the first n values are, but the last n are not those of any w(rho)
        with pytest.raises(ValueError, match="does not come from the lower block"):
            _rho_of_gl_coset(LeviCoset(Perm((3, 4, 1, 2)), frozenset()), 2)


class TestNuBeta:
    def test_q_example(self):
        m = nu_beta((1, 1), (0, 0), 1)
        assert m.exponents == (0, 0) and m.integral

    def test_121_example(self):
        m = nu_beta((2, 1), (1, 0), 1)
        assert m.exponents == (-1, 1) and not m.integral

    def test_beta_scaling(self):
        for beta in (1, 2, 3):
            m = nu_beta(tuple(beta * e for e in (2, 1)),
                        tuple(beta * e for e in (1, 0)), beta)
            assert m.exponents == (-beta, beta)


class TestZetaSupport:
    def test_22_no_vanishing(self):
        v = zeta_support_verdict(SpinParabolic.from_composition((2, 2)), 1)
        assert not v.forced_vanishing and v.block_count_parity == "even"

    def test_121_forced_vanishing(self):
        v = zeta_support_verdict(SpinParabolic.from_composition((1, 2, 1)), 1)
        assert v.forced_vanishing and not v.contained_in_Q

    def test_borel_even(self):
        v = zeta_support_verdict(SpinParabolic.borel(2), 1)
        assert v.integral and v.contained_in_Q

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_three_way_equivalence(self, n):
        for p in all_spin_parabolics(n):
            for beta in (1, 2):
                v = zeta_support_verdict(p, beta)
                even = v.block_count_parity == "even"
                assert v.integral == even == v.contained_in_Q

    def test_non_spin_rejected(self):
        # a non-spin parabolic cannot be built, so it never reaches the verdict
        with pytest.raises(NotSpinError):
            zeta_support_verdict(SpinParabolic.from_composition((1, 3, 2)), 1)


class TestFactorisationGate:
    def test_w_n_passes(self):
        for n in (2, 3):
            assert factorisation_membership(Perm.longest(n), SpinParabolic.borel(n))

    def test_identity_fails_at_borel(self):
        assert not factorisation_membership(Perm.identity(2), SpinParabolic.borel(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_exactly_one_coset_passes(self, n):
        # in terms of rho = delta * w_n (the coset index of the eigenvector
        # expansion) exactly the identity coset passes the gate
        for p in all_spin_parabolics(n):
            if not p.contained_in_nn:
                continue
            kcomp = lower_block_composition(p)
            delta_k = _delta_of(kcomp, n)
            passing_rhos = set()
            for d in itertools.permutations(range(1, n + 1)):
                if factorisation_membership(Perm(d), p):
                    rho = Perm(d) * Perm.longest(n)
                    passing_rhos.add(LeviCoset(rho, delta_k))
            assert len(passing_rhos) == 1
            assert passing_rhos.pop().rep == Perm.identity(n)


def _delta_of(kcomp, n):
    delta = set(range(1, n))
    pos = 0
    for m in kcomp[:-1]:
        pos += m
        delta.discard(pos)
    return frozenset(delta)
