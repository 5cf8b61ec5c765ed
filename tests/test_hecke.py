import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref.hecke import (CertificateRow, FracHeckeWord, GammaScanAmbiguous,
                           GammaScanNoSolution, GeneratorNotInAlgebraError,
                           HeckeWord, MissingSlopeError, ProfileSolution, SatakeMonomial,
                           ValuationProfile,
                           alpha_U, alpha_U_circ, build_circ_alphas, char_poly_roots,
                           delta_half_exponent, factors_through_spin, gamma_relation_holds,
                           gamma_uniqueness_scan,
                           jmath_hecke, multiset_divides, non_critical_slope, phi_ij,
                           phi_tau, reducibility_regularity_flags, slope, solve_profile,
                           solve_profile_joint, spin_relation_check, theta_from_ratios)
from spinref.parabolic import SpinParabolic, all_spin_parabolics
from spinref.refine import GammaMap, Refinement, gamma, is_P_spin, is_r_spin, \
    optimal_parabolic, to_B_spin
from spinref.rootdata import PureWeight
from spinref.weyl import Perm, format_one_line

LAM = PureWeight.from_coeffs((12, 1, -1, -12))
ZERO4 = PureWeight.from_coeffs((0, 0, 0, 0))


def all_refinements(n):
    for images in itertools.permutations(range(1, 2 * n + 1)):
        yield Refinement(n, Perm(images))


def generic_pure_weight(n, rng=None):
    top = [6 * n - 4 * i for i in range(n)]
    return PureWeight.from_coeffs(tuple(top + [-t for t in reversed(top)]))


class TestAlphaU:
    def test_rank1(self):
        m = alpha_U(Refinement.identity(1), 1)
        assert (m.half_p, m.theta, m.eta) == (-1, (1, 0), 0)
        assert str(m) == "p^{-1/2} * θ_1"

    def test_full_level_is_central(self):
        for n in (1, 2, 3):
            for r in (Refinement.identity(n),
                      Refinement(n, Perm.longest(2 * n))):
                m = alpha_U(r, 2 * n).normal_form()
                assert m == SatakeMonomial.eta_power(n, n)

    def test_depends_on_value_set_only(self):
        a = alpha_U(Refinement.from_one_line("1234"), 2)
        b = alpha_U(Refinement.from_one_line("2134"), 2)
        assert a == b

    def test_never_zero_monomial(self):
        # a monomial is never the zero eigenvalue; sanity-check the exponent sums
        for k in range(5):
            m = alpha_U(Refinement.from_one_line("2413"), k)
            assert sum(m.theta) == k
            assert m.half_p == delta_half_exponent(k, 2)


class TestAlphaUCirc:
    def test_zero_weight(self):
        r = Refinement.from_one_line("3142")
        for k in range(5):
            assert alpha_U_circ(r, k, ZERO4) == alpha_U(r, k)

    def test_gl4_weight_k1(self):
        m = alpha_U_circ(Refinement.identity(2), 1, LAM)
        assert (m.half_p, m.theta) == (21, (1, 0, 0, 0))

    def test_full_level(self):
        lam = PureWeight.from_coeffs((3, 2, 1, 0))
        m = alpha_U_circ(Refinement.identity(2), 4, lam).normal_form()
        assert m == SatakeMonomial(2, 2 * lam.sw * 2, (0, 0, 0, 0), 2)


class TestNormalForm:
    def test_pair_reduces(self):
        m = SatakeMonomial(2, 0, (1, 0, 0, 1)).normal_form()
        assert m == SatakeMonomial.eta_power(1, 2)

    @settings(max_examples=200)
    @given(st.integers(1, 3), st.data())
    def test_confluence(self, n, data):
        exps = [data.draw(st.integers(-3, 3)) for _ in range(2 * n)]
        eta = data.draw(st.integers(-2, 2))
        m = SatakeMonomial(n, 0, tuple(exps), eta)
        # apply single-pair reductions in a random order until stable
        th = list(exps)
        e = eta
        order = data.draw(st.permutations(list(range(n))))
        for i in order:
            j = 2 * n - 1 - i
            shift = min(th[i], th[j])
            th[i] -= shift
            th[j] -= shift
            e += shift
        assert SatakeMonomial(n, 0, tuple(th), e) == m.normal_form()

    def test_spin_equal(self):
        a = SatakeMonomial(2, 0, (1, 0, 0, 1))
        b = SatakeMonomial.eta_power(1, 2)
        assert a.spin_equal(b)
        assert not a.spin_equal(SatakeMonomial.one(2))

    def test_str_and_json(self):
        m = SatakeMonomial(2, -3, (0, 1, 0, 0), 2)
        assert str(m) == "p^{-3/2} * θ_2 * η^2"
        assert m.to_json() == {"half_p": -3, "theta": [0, 1, 0, 0], "eta": 2}
        assert str(SatakeMonomial.one(2)) == "1"

    def test_str_powers_and_eta(self):
        # theta powers other than 1, and eta to the first power
        assert str(SatakeMonomial(2, 3, (2, 0, 0, -1), 1)) == "p^{3/2} * θ_1^2 * θ_4^-1 * η"
        assert str(SatakeMonomial(2, -4, (0, 1, 0, 0), -2)) == "p^-2 * θ_2 * η^-2"


class TestSpinRelation:
    def test_identity_every_k(self):
        lam = generic_pure_weight(3)
        r = Refinement.identity(3)
        assert all(spin_relation_check(r, k, lam) for k in (1, 2, 3))

    def test_k_equals_n_vacuous(self):
        for r in all_refinements(2):
            assert spin_relation_check(r, 2, LAM)

    def test_2134_k1_fails(self):
        assert not spin_relation_check(Refinement.from_one_line("2134"), 1, LAM)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_characterization(self, n):
        # k-spin implies the relation, never conversely: the relation holds
        # exactly when the middle 2n-2k one-line values are closed under
        # complementation, which k-spin implies but does not equal
        lam = generic_pure_weight(n)
        failures = 0
        for r in all_refinements(n):
            for k in range(1, n + 1):
                holds = spin_relation_check(r, k, lam)
                middle = {r.sigma(i) for i in range(k + 1, 2 * n - k + 1)}
                assert holds == ({2 * n + 1 - v for v in middle} == middle)
                if is_r_spin(r, k):
                    assert holds
                elif not holds:
                    failures += 1
        if n > 1:
            assert failures > 0

    def test_not_iff_witness(self):
        # closed middle block without the cross pairing: satisfies the
        # relation at k=2 yet is not 2-spin
        r = Refinement.from_one_line("162534")
        lam = generic_pure_weight(3)
        assert spin_relation_check(r, 2, lam)
        assert not is_r_spin(r, 2)


class TestThetaRecovery:
    def test_k1_direct(self):
        r = Refinement.from_one_line("2134")
        assert theta_from_ratios(r, 1) == SatakeMonomial.theta_symbol(2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recovers_slots_with_weight(self, n):
        lam = generic_pure_weight(n)
        for r in all_refinements(n):
            for k in range(1, 2 * n + 1):
                assert theta_from_ratios(r, k, lam) == \
                    SatakeMonomial.theta_symbol(r.sigma(k), n)

    def test_recovers_slots_exhaustive_s8(self):
        # raw form only: every sigma in S_8, every level
        for r in all_refinements(4):
            for k in range(1, 9):
                got = theta_from_ratios(r, k)
                assert got == SatakeMonomial.theta_symbol(r.sigma(k), 4)


class TestGammaScan:
    def test_identity_unique_among_injections(self):
        r = Refinement.identity(2)
        assert gamma_uniqueness_scan(r) == gamma(r)

    def test_216345(self):
        r = Refinement.from_one_line("216345")
        assert gamma_uniqueness_scan(r) == gamma(r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        for r in all_refinements(n):
            assert gamma_uniqueness_scan(r) == gamma(r)

    def test_degenerate_profile_ambiguous(self):
        prof = ValuationProfile.of([0, 0, 1, 1], eta_val=1)
        with pytest.raises(GammaScanAmbiguous) as info:
            gamma_uniqueness_scan(Refinement.identity(2), prof)
        assert len(info.value.candidates) == 2

    def test_no_solution_reported(self):
        prof = ValuationProfile.of([0, 0, 0, 0], eta_val=5)
        with pytest.raises(GammaScanNoSolution):
            gamma_uniqueness_scan(Refinement.identity(2), prof)

    def test_regular_profile_unique(self):
        prof = ValuationProfile.of([0, 1, 2, 3], eta_val=3)
        got = gamma_uniqueness_scan(Refinement.identity(2), prof)
        assert got == gamma(Refinement.identity(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_relation_holds_for_true_gamma(self, n):
        lam = generic_pure_weight(n)
        for r in all_refinements(n):
            g = gamma(r)
            for s in range(1, n + 1):
                assert gamma_relation_holds(r, g, s)
                assert gamma_relation_holds(r, g, s, lam)

    def test_scan_equivalent_to_all_level_relations(self):
        # an injection passes the scan exactly when the cumulative relation
        # holds at every level
        import itertools as it
        for r in all_refinements(2):
            true_gamma = gamma(r)
            for values in it.permutations(range(1, 5), 2):
                g = GammaMap(values)
                all_levels = all(gamma_relation_holds(r, g, s) for s in (1, 2))
                assert all_levels == (g == true_gamma)


class TestJmathHecke:
    def test_rules(self):
        q = SpinParabolic.from_composition((2, 2))
        assert jmath_hecke(HeckeWord.generator(2, 2), q).exps == (0, 1, 0, 0)
        assert jmath_hecke(HeckeWord.generator(4, 2), q).v == 2

    def test_product_rule(self):
        b = SpinParabolic.borel(2)
        w = HeckeWord.generator(1, 2) * HeckeWord.generator(3, 2)
        out = jmath_hecke(w, b)
        assert out.exps == (2, 0, 0, 0) and out.v == 1

    def test_rejects_levi_generator(self):
        q = SpinParabolic.from_composition((2, 2))
        with pytest.raises(GeneratorNotInAlgebraError):
            jmath_hecke(HeckeWord.generator(1, 2), q)


def word_generators(n):
    """Every U_k^e for k in 0..2n and e in {-1, 1, 2}, plus a bare p^{1/2}."""
    gens = [HeckeWord.generator(k, n, e) for k in range(2 * n + 1) for e in (-1, 1, 2)]
    return gens + [HeckeWord(n, (0,) * (2 * n), p_half=1)]


def sample_refinements(n):
    """All refinements for n <= 2; for n = 3 a seeded sample and its B-spin targets."""
    if n <= 2:
        return list(all_refinements(n))
    rng = random.Random(53)
    sample = [Refinement(n, Perm(tuple(rng.sample(range(1, 2 * n + 1), 2 * n))))
              for _ in range(40)]
    return sample + [to_B_spin(r)[1] for r in sample]


class TestHeckeWord:
    def test_generator_range(self):
        assert HeckeWord.generator(0, 2) == HeckeWord(2, (0, 0, 0, 0))
        assert HeckeWord.generator(4, 2, -3) == HeckeWord(2, (0, 0, 0, -3))
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..4"):
                HeckeWord.generator(k, 2)

    def test_exponent_vector_length(self):
        with pytest.raises(ValueError):
            HeckeWord(2, (1, 0, 0))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            HeckeWord.generator(1, 2) * HeckeWord.generator(1, 3)

    def test_frac_alias(self):
        assert FracHeckeWord is HeckeWord

    def test_jmath_rejects_non_gl_word(self):
        for word in (HeckeWord(2, (0, 0, 0, 0), v=1), HeckeWord.generator(1, 3)):
            with pytest.raises(ValueError, match="rank-2 GL word"):
                jmath_hecke(word, SpinParabolic.borel(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jmath_multiplicative(self, n):
        gens = word_generators(n)
        for p in all_spin_parabolics(n):
            inside = [a for a in gens
                      if not any(a.exps[k - 1] for k in p.delta if k < 2 * n)]
            for a in inside:
                for b in inside:
                    assert jmath_hecke(a * b, p) == jmath_hecke(a, p) * jmath_hecke(b, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phi_multiplicative(self, n):
        lam = generic_pure_weight(n)
        gens = word_generators(n)
        for i, j in itertools.combinations(range(1, 2 * n + 1), 2):
            for a in gens:
                for b in gens:
                    assert phi_ij(a * b, i, j, lam) == \
                        phi_ij(a, i, j, lam) * phi_ij(b, i, j, lam)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_assignment_value_multiplicative(self, n):
        # the GSpin eigenvalues are HeckeWord.evaluate at the zero weight:
        # U'_{p,k} by the returned alpha(U_{p,k}), V by eta, multiplicatively
        zero = PureWeight.from_coeffs((0,) * (2 * n))
        similitude = [HeckeWord(n, (0,) * (2 * n), v=e) for e in (-1, 1)]
        for p in all_spin_parabolics(n):
            words = [HeckeWord.generator(k, n, e) for k in sorted(p.xp) for e in (-1, 1, 2)]
            words += similitude
            for r in sample_refinements(n):
                values = factors_through_spin(r, p)
                if values is None:
                    continue
                for k in p.xp:
                    assert HeckeWord.generator(k, n).evaluate(r, zero).spin_equal(values[k])
                for x in words:
                    for y in words:
                        assert (x * y).evaluate(r, zero).spin_equal(
                            x.evaluate(r, zero) * y.evaluate(r, zero))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transfer_keeps_normalized_eigenvalues(self, n):
        # on a P-spin refinement the transferred word, with U'_{p,r} acting
        # by alpha(U°_{p,r}) and V by eta_0, has the GL word's eigenvalue
        lam = generic_pure_weight(n)
        for p in all_spin_parabolics(n):
            gens = [HeckeWord.generator(k, n) for k in range(2 * n + 1)
                    if not 0 < k < 2 * n or k not in p.delta]
            for r in sample_refinements(n):
                if not is_P_spin(r, p):
                    continue
                for a in gens:
                    assert jmath_hecke(a, p).evaluate(r, lam).spin_equal(a.evaluate(r, lam))


class TestFactorsThroughSpin:
    def test_identity_any_parabolic(self):
        identity = Refinement.identity(2)
        for p in all_spin_parabolics(2):
            assert factors_through_spin(identity, p) == \
                {k: alpha_U(identity, k).normal_form() for k in sorted(p.xp)}
        assert HeckeWord(2, (0,) * 4, v=1).evaluate(identity, ZERO4) == \
            SatakeMonomial.eta_power(1, 2)

    def test_2314_q_absent(self):
        q = SpinParabolic.from_composition((2, 2))
        assert factors_through_spin(Refinement.from_one_line("2314"), q) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_presence_iff_p_spin(self, n):
        for r in all_refinements(n):
            for p in all_spin_parabolics(n):
                present = factors_through_spin(r, p) is not None
                assert present == is_P_spin(r, p)


class TestCharPolyRoots:
    def test_rank1_borel(self):
        roots = char_poly_roots(SpinParabolic.borel(1), 1, "GL")
        assert sorted(str(m) for m in roots) == \
            ["p^{-1/2} * θ_1", "p^{-1/2} * θ_2"]

    def test_full_level_central(self):
        q = SpinParabolic.from_composition((2, 2))
        roots = char_poly_roots(q, 4, "GL")
        assert all(m == SatakeMonomial.eta_power(2, 2) for m in roots)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gspin_divides_gl(self, n):
        for p in all_spin_parabolics(n):
            for k in range(1, 2 * n + 1):
                if k != 2 * n and k in p.delta:
                    continue
                gl = char_poly_roots(p, k, "GL")
                gs = char_poly_roots(p, k, "GSpin")
                assert multiset_divides(gs, gl)
                assert len(gs) <= len(gl)

    @pytest.mark.parametrize("n", [1, 2])
    def test_gspin_equals_spin_coset_submultiset(self, n):
        # the signed-permutation route reproduces exactly the roots of the
        # cosets that meet the purity subgroup, with multiplicity
        from collections import Counter
        from spinref.weyl import coset_min_rep
        for p in all_spin_parabolics(n):
            for k in range(1, 2 * n + 1):
                if k != 2 * n and k in p.delta:
                    continue
                gs = Counter((m.half_p, m.theta, m.eta)
                             for m in char_poly_roots(p, k, "GSpin"))
                reps = {coset_min_rep(Perm(im), p.delta)
                        for im in itertools.permutations(range(1, 2 * n + 1))}
                sub = Counter()
                for rep in reps:
                    r = Refinement(n, rep)
                    if is_P_spin(r, p):
                        m = alpha_U(r, k).normal_form()
                        sub[(m.half_p, m.theta, m.eta)] += 1
                assert gs == sub

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degrees_match_coset_counts(self, n):
        # GL degree is the multinomial coefficient of the composition; the
        # GSpin degree equals the number of spin parahoric cosets
        import math
        from spinref.refine import parahoric_is_spin, parahoric_restrict
        for p in all_spin_parabolics(n):
            gl = char_poly_roots(p, 2 * n, "GL")
            expected = math.factorial(2 * n)
            for m in p.composition:
                expected //= math.factorial(m)
            assert len(gl) == expected
            gs = char_poly_roots(p, 2 * n, "GSpin")
            spin_cosets = set()
            for images in itertools.permutations(range(1, 2 * n + 1)):
                pr = parahoric_restrict(Refinement(n, Perm(images)), p)
                if parahoric_is_spin(pr):
                    spin_cosets.add(pr.coset)
            assert len(gs) == len(spin_cosets)


class TestSlope:
    def test_skeleton(self):
        v = slope(Refinement.identity(2), 1, ZERO4, ValuationProfile.zero(2))
        assert v == Fraction(-3, 2)

    def test_full_level_pure(self):
        lam = PureWeight.from_coeffs((3, 2, 1, 0))
        prof = ValuationProfile.of([2, 1, 2, 1], eta_val=3)
        assert prof.is_pure
        v = slope(Refinement.identity(2), 4, lam, prof)
        assert v == 2 * lam.sw + 2 * prof.eta_val

    def test_round_trip_with_solver(self):
        rng = random.Random(41)
        for n in (1, 2, 3):
            lam = generic_pure_weight(n)
            for _ in range(10):
                eta_val = Fraction(rng.randint(-4, 4))
                t = [Fraction(rng.randint(-12, 12), rng.choice((1, 2))) for _ in range(n)]
                t = t + [eta_val - v for v in reversed(t)]
                prof = ValuationProfile(n, tuple(t), eta_val)
                sigma = Perm(tuple(rng.sample(range(1, 2 * n + 1), 2 * n)))
                r = Refinement(n, sigma)
                slopes = {k: slope(r, k, lam, prof) for k in range(1, 2 * n + 1)}
                sol = solve_profile(slopes, lam, sigma)
                assert sol.status == "unique"
                assert sol.profile.t == prof.t
                assert sol.profile.eta_val == prof.eta_val
                # and slopes recompute identically
                for k, v in slopes.items():
                    assert slope(r, k, lam, sol.profile) == v

    def test_partial_slopes_round_trip_up_to_purity_kernel(self):
        # declaring only some indices leaves a family; the particular
        # solution still reproduces every declared slope exactly
        rng = random.Random(42)
        for n in (2, 3):
            lam = generic_pure_weight(n)
            for _ in range(10):
                eta_val = Fraction(rng.randint(-4, 4))
                t = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
                t = t + [eta_val - v for v in reversed(t)]
                prof = ValuationProfile(n, tuple(t), eta_val)
                sigma = Perm(tuple(rng.sample(range(1, 2 * n + 1), 2 * n)))
                r = Refinement(n, sigma)
                declared = sorted(rng.sample(range(1, 2 * n + 1), n))
                slopes = {k: slope(r, k, lam, prof) for k in declared}
                sol = solve_profile(slopes, lam, sigma)
                assert sol.consistent
                for k, v in slopes.items():
                    assert slope(r, k, lam, sol.profile) == v
                if sol.status == "family":
                    assert sol.free


class TestSolveProfile:
    def test_simple(self):
        sol = solve_profile({1: Fraction(-3, 2)}, ZERO4, Perm.identity(4))
        assert sol.consistent and sol.profile.t[0] == 0
        assert sol.status == "family" and sol.free

    def test_gl4_single_systems_are_consistent(self):
        a = solve_profile({1: 11, 2: 0, 3: 11}, LAM, Perm.identity(4))
        assert a.status == "unique"
        assert a.profile.t == (Fraction(1, 2), Fraction(-23, 2),
                               Fraction(23, 2), Fraction(-1, 2))
        b = solve_profile({1: 11, 2: 0, 3: 1}, LAM, Perm((2, 1, 3, 4)))
        assert b.status == "unique"

    @pytest.mark.parametrize("sigma", [Perm((5, 1, 2, 3, 4)), Perm((1, 2, 3))])
    def test_rank_mismatch(self, sigma):
        lam = PureWeight.from_coeffs((3, 1, -1, -3))
        with pytest.raises(ValueError, match="rank mismatch"):
            solve_profile({1: 1, 2: 0}, lam, sigma)
        with pytest.raises(ValueError, match="rank mismatch"):
            solve_profile_joint([(Perm.identity(4), {1: 1}), (sigma, {1: 1})], lam)

    def test_joint_labels_distinct_from_2n_12(self):
        # concatenated digits would name both refinements 111234567891012
        a = Perm((1, 11, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12))
        b = Perm((11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12))
        sol = solve_profile_joint([(a, {2: 0}), (b, {2: 1})], PureWeight.from_coeffs((0,) * 12))
        assert sol.status == "inconsistent"
        assert [row.describe() for row in sol.certificate] == [
            "(-1)*[slope[1,11,2,3,4,5,6,7,8,9,10,12]:U_2]"
            " + (1)*[slope[11,1,2,3,4,5,6,7,8,9,10,12]:U_2] = 1 != 0"]

    def test_gl4_joint_system_certificate(self):
        systems = [(Perm.identity(4), {1: 11, 2: 0, 3: 11}),
                   (Perm((2, 1, 3, 4)), {1: 11, 2: 0, 3: 1})]
        sol = solve_profile_joint(systems, LAM)
        assert sol.status == "inconsistent"
        assert len(sol.certificate) == 2
        residuals = sorted(row.residual for row in sol.certificate)
        assert residuals == [Fraction(-10), Fraction(12)]
        for row in sol.certificate:
            assert all(label.startswith(("slope", "purity"))
                       for label, _ in row.combination)

    def test_certificate_combination_is_honest(self):
        # re-add the named combination of input equations; it must reproduce
        # the nonzero residual with a zero coefficient vector
        systems = [(Perm.identity(4), {1: 11, 2: 0, 3: 11}),
                   (Perm((2, 1, 3, 4)), {1: 11, 2: 0, 3: 1})]
        sol = solve_profile_joint(systems, LAM)
        from spinref.hecke import _slope_rows
        rows = []
        for sigma, slopes in systems:
            tag = f"[{''.join(map(str, sigma.images))}]"
            rows.extend(_slope_rows(slopes, LAM, sigma, tag))
        for i in range(1, 3):
            coeffs = [Fraction(0)] * 5
            coeffs[i - 1] += 1
            coeffs[4 - i] += 1
            coeffs[4] -= 1
            rows.append((coeffs, Fraction(0), f"purity:{i}"))
        by_label = {label: (coeffs, rhs) for coeffs, rhs, label in rows}
        for row in sol.certificate:
            acc_coeffs = [Fraction(0)] * 5
            acc_rhs = Fraction(0)
            for label, c in row.combination:
                coeffs, rhs = by_label[label]
                acc_coeffs = [a + c * b for a, b in zip(acc_coeffs, coeffs)]
                acc_rhs += c * rhs
            assert all(v == 0 for v in acc_coeffs)
            assert acc_rhs == row.residual != 0


def reference_eliminate(rows, num_vars):
    """Gauss elimination in Fractions, tracking the provenance of every row.

    The solver's former algorithm, kept as the reference for its integer
    elimination.  Returns (pivots: dict col -> (coeffs, rhs, combination),
    certificate rows).
    """
    labels = [label for _, _, label in rows]
    work = []
    for idx, (coeffs, rhs, _) in enumerate(rows):
        combo = [Fraction(0)] * len(rows)
        combo[idx] = Fraction(1)
        work.append((list(coeffs), rhs, combo))
    pivots = {}
    bad = []
    for coeffs, rhs, combo in work:
        for col, pivot in sorted(pivots.items()):
            if coeffs[col]:
                f = coeffs[col] / pivot[0][col]
                coeffs = [a - f * b for a, b in zip(coeffs, pivot[0])]
                rhs = rhs - f * pivot[1]
                combo = [a - f * b for a, b in zip(combo, pivot[2])]
        lead = next((c for c in range(num_vars) if coeffs[c]), None)
        if lead is None:
            if rhs:
                combination = tuple((labels[i], c) for i, c in enumerate(combo) if c)
                bad.append(CertificateRow(combination, rhs))
            continue
        pivots[lead] = (coeffs, rhs, combo)
    return pivots, bad


def reference_solve(systems, lam):
    """solve_profile_joint through reference_eliminate, on Fraction rows."""
    n = lam.n
    num_vars = 2 * n + 1
    rows = []
    for sigma, slopes in systems:
        tag = f"[{format_one_line(sigma)}]" if len(systems) > 1 else ""
        for k in sorted(slopes):
            coeffs = [Fraction(0)] * num_vars
            for j in range(1, k + 1):
                coeffs[sigma(j) - 1] += 1
            rhs = (Fraction(slopes[k]) - sum(lam.coeffs[:k])
                   - Fraction(delta_half_exponent(k, n), 2))
            rows.append((coeffs, rhs, f"slope{tag}:U_{k}"))
    for i in range(1, n + 1):
        coeffs = [Fraction(0)] * num_vars
        coeffs[i - 1] += 1
        coeffs[2 * n - i] += 1
        coeffs[2 * n] -= 1
        rows.append((coeffs, Fraction(0), f"purity:{i}"))
    pivots, bad = reference_eliminate(rows, num_vars)
    if bad:
        return ProfileSolution("inconsistent", None, certificate=tuple(bad))
    names = [f"t_{i}" for i in range(1, 2 * n + 1)] + ["eta"]
    solution = [Fraction(0)] * num_vars
    for col in sorted(pivots, reverse=True):
        coeffs, rhs, _ = pivots[col]
        acc = rhs
        for c in range(col + 1, num_vars):
            acc -= coeffs[c] * solution[c]
        solution[col] = acc / coeffs[col]
    free = tuple(names[c] for c in range(num_vars) if c not in pivots)
    profile = ValuationProfile(n, tuple(solution[: 2 * n]), solution[2 * n])
    return ProfileSolution("family" if free else "unique", profile, free=free)


def random_pure_weight(rng, n):
    """A dominant pure weight: lambda_i + lambda_{2n+1-i} = sw, non-increasing."""
    sw = rng.randint(-3, 3)
    upper = [-(-sw // 2) + rng.randint(0, 2)]
    for _ in range(n - 1):
        upper.append(upper[-1] + rng.randint(0, 4))
    upper.reverse()
    return PureWeight.from_coeffs(tuple(upper + [sw - v for v in reversed(upper)]))


def random_profile(rng, lam):
    n = lam.n
    eta = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    half = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    return ValuationProfile(n, tuple(half + [eta - v for v in reversed(half)]), eta)


class TestSolverMatchesReference:
    """The integer solver returns what Fraction elimination returns, exactly."""

    # all slopes declared, a random subset, all with one perturbed, and 2-3
    # refinements with a profile each or one shared profile
    SHAPES = ("all", "some", "perturbed", "joint", "joint-shared")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_systems(self, n):
        rng = random.Random(700 + n)
        N = 2 * n
        statuses = set()
        for _ in range(16):
            for shape in self.SHAPES:
                lam = random_pure_weight(rng, n)
                prof = random_profile(rng, lam)
                systems = []
                for _ in range(rng.randint(2, 3) if shape.startswith("joint") else 1):
                    sigma = Perm(tuple(rng.sample(range(1, N + 1), N)))
                    declared = (range(1, N + 1) if shape in ("all", "perturbed")
                                else rng.sample(range(1, N + 1), rng.randint(1, N)))
                    if shape == "joint" and systems:
                        prof = random_profile(rng, lam)
                    slopes = {k: slope(Refinement(n, sigma), k, lam, prof) for k in declared}
                    if shape == "perturbed":
                        k = rng.choice(sorted(slopes))
                        slopes[k] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
                    systems.append((sigma, slopes))
                fast = solve_profile_joint(systems, lam)
                ref = reference_solve(systems, lam)
                assert fast.status == ref.status
                assert fast.profile == ref.profile
                assert fast.free == ref.free
                assert fast.certificate == ref.certificate
                assert [row.describe() for row in fast.certificate] == \
                    [row.describe() for row in ref.certificate]
                statuses.add(fast.status)
        assert statuses == {"unique", "family", "inconsistent"}


class TestNonCriticalSlope:
    def test_gl4_bounds(self):
        audit = non_critical_slope(LAM, {1: 11, 2: 0, 3: 11}, SpinParabolic.borel(2))
        assert [row.bound for row in audit.rows] == [12, 3, 12]
        assert audit.ok

    def test_second_triple(self):
        assert non_critical_slope(LAM, {1: 11, 2: 0, 3: 1},
                                  SpinParabolic.borel(2)).ok

    def test_equality_fails(self):
        audit = non_critical_slope(LAM, {1: 12, 2: 0, 3: 11}, SpinParabolic.borel(2))
        assert not audit.ok
        assert [row.index for row in audit.rows if not row.ok] == [1]

    def test_missing_slope(self):
        with pytest.raises(MissingSlopeError):
            non_critical_slope(LAM, {1: 11}, SpinParabolic.borel(2))

    def test_parahoric_subset_of_indices(self):
        q = SpinParabolic.from_composition((2, 2))
        audit = non_critical_slope(LAM, {2: 0}, q)
        assert [row.index for row in audit.rows] == [2] and audit.ok

    def test_mirror_bounds_agree(self):
        rng = random.Random(43)
        for n in (2, 3):
            lam = generic_pure_weight(n)
            for r in range(1, n):
                assert lam.gap(r) == lam.gap(2 * n - r)


class TestReducibilityFlags:
    def test_generic_all_false(self):
        alphas = build_circ_alphas(Refinement.identity(2), LAM)
        flags = reducibility_regularity_flags(alphas, LAM)
        assert not any(f.reducible or f.regular_fail for f in flags.values())

    def test_constructed_reducible(self):
        # substitute theta_1 = p * theta_2 into every eigenvalue monomial
        alphas = {k: m.subst_theta(1, 2, 2)
                  for k, m in build_circ_alphas(Refinement.identity(2), LAM).items()}
        flags = reducibility_regularity_flags(alphas, LAM)
        assert flags[(1, 2)].reducible or flags[(2, 1)].reducible

    def test_constructed_regular_fail(self):
        alphas = {k: m.subst_theta(1, 2, 0)
                  for k, m in build_circ_alphas(Refinement.identity(2), LAM).items()}
        flags = reducibility_regularity_flags(alphas, LAM)
        assert flags[(1, 2)].regular_fail or flags[(2, 1)].regular_fail


class TestPhiMaps:
    def test_outside_window_unchanged(self):
        gen = FracHeckeWord.generator(4, 2)
        assert phi_ij(gen, 1, 3, LAM) == gen
        gen0 = FracHeckeWord.generator(0, 2)
        assert phi_ij(gen0, 1, 3, LAM) == gen0

    def test_transfer_lemma_exhaustive_gl4(self):
        for images in itertools.permutations((1, 2, 3, 4)):
            r = Refinement(2, Perm(images))
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    rp = Refinement(2, r.sigma * Perm.transposition(i, j, 4))
                    for k in range(1, 5):
                        gen = FracHeckeWord.generator(k, 2)
                        moved = phi_ij(gen, i, j, LAM)
                        assert moved.evaluate(rp, LAM).spin_equal(
                            alpha_U_circ(r, k, LAM))
                        assert moved.evaluate(r, LAM).spin_equal(
                            alpha_U_circ(rp, k, LAM))

    def test_involution(self):
        for k in range(1, 5):
            gen = FracHeckeWord.generator(k, 2)
            assert phi_ij(phi_ij(gen, 1, 3, LAM), 1, 3, LAM) == gen
            assert phi_ij(phi_ij(gen, 2, 4, LAM), 2, 4, LAM) == gen

    def test_phi_tau_empty(self):
        apply_tau = phi_tau([], LAM)
        gen = FracHeckeWord.generator(2, 2)
        assert apply_tau(gen) == gen

    def test_phi_tau_2134(self):
        r = Refinement.from_one_line("2134")
        taus, target = to_B_spin(r)
        apply_tau = phi_tau(taus, LAM)
        for k in range(1, 5):
            assert apply_tau(FracHeckeWord.generator(k, 2)).evaluate(
                target, LAM).spin_equal(alpha_U_circ(r, k, LAM))

    def test_phi_tau_weight_invariance(self):
        rng = random.Random(47)
        for r in (Refinement.from_one_line("2134"),
                  Refinement.from_one_line("1342")):
            taus, _ = to_B_spin(r)
            p = optimal_parabolic(r).optimal
            apply_base = phi_tau(taus, LAM)
            base_pows = [apply_base(FracHeckeWord.generator(k, 2)).p_half
                         for k in range(1, 5)]
            from spinref.parabolic import weight_in_parabolic_coset
            for _ in range(5):
                c = rng.randint(-4, 4)
                mid = rng.randint(0, 5)
                l1 = c + 12
                l2 = c + 1
                l3 = c + 1 - mid
                lam2 = PureWeight.from_coeffs((l1, l2, l3, l3 - 11))
                assert weight_in_parabolic_coset(lam2, LAM, p)
                apply2 = phi_tau(taus, lam2)
                pows = [apply2(FracHeckeWord.generator(k, 2)).p_half
                        for k in range(1, 5)]
                assert pows == base_pows
