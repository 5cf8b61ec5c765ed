"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact and the stated runtime budgets are
asserted with a wall clock.
"""

import itertools
import json
import random
import time
from pathlib import Path


from spinref.hecke import (FracHeckeWord, alpha_U_circ, char_poly_roots,
                           gamma_uniqueness_scan, multiset_divides, non_critical_slope,
                           phi_tau, solve_profile_joint, spin_relation_check)
from spinref.intertwine import (m_tau_expansion, m_tau_expansion_oracle,
                                zeta_support_verdict)
from spinref.parabolic import (SpinParabolic, all_spin_parabolics, pure_basis_weights,
                               pure_parabolic_dim, weight_in_parabolic_coset)
from spinref.refine import (Refinement, gamma, is_B_spin, is_P_spin, is_r_spin,
                            optimal_parabolic, parahoric_is_spin, parahoric_restrict,
                            spin_set, stratify, to_B_spin)
from spinref.rootdata import PureWeight
from spinref.weyl import LeviCoset, Perm, in_wg0

DATA = Path(__file__).parent / "data"
LAM = PureWeight.from_coeffs((12, 1, -1, -12))

GL4_TABLE = {
    "B": ["1234", "1324", "2143", "2413", "3142", "3412", "4231", "4321"],
    "2,2": ["1243", "1342", "2134", "2431", "3124", "3421", "4213", "4312"],
    "G": ["1423", "1432", "2314", "2341", "3214", "3241", "4123", "4132"],
    "1,2,1": [],
}


def report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS  {text}")


def all_refinements(n):
    for images in itertools.permutations(range(1, 2 * n + 1)):
        yield Refinement(n, Perm(images))


def coset_weights(base, p, rng, count=5):
    """Random pure weights in the P-parabolic coset through base."""
    basis = pure_basis_weights(base.n)
    out = []
    for _ in range(count):
        coeffs = list(base.coeffs)
        moves = [(0, rng.randint(-3, 3))] + \
            [(j, rng.randint(-3, 3)) for j in sorted(p.xp)]
        for j, m in moves:
            for k in range(2 * base.n):
                coeffs[k] += m * basis[j][k]
        out.append(PureWeight.from_coeffs(tuple(coeffs)))
    return out


def test_criterion_01_gl4_stratification():
    start = time.perf_counter()
    strata = stratify(2)
    got = {p.label(): [r.one_line() for r in members]
           for p, members in strata.items()}
    elapsed = time.perf_counter() - start
    assert got == GL4_TABLE
    assert elapsed < 1.0
    report(1, f"GL(4) table reproduced exactly (8/8/8, (1,2,1) empty) in {elapsed:.3f}s")


def test_criterion_02_q_coset_classification():
    start = time.perf_counter()
    q = SpinParabolic.from_composition((2, 2))
    verdicts = {}
    for r in all_refinements(2):
        pr = parahoric_restrict(r, q)
        verdicts[pr.coset.block_values()] = parahoric_is_spin(pr)
    elapsed = time.perf_counter() - start
    assert len(verdicts) == 6
    spin = {blocks for blocks, ok in verdicts.items() if ok}
    assert spin == {((1, 2), (3, 4)), ((1, 3), (2, 4)),
                    ((2, 4), (1, 3)), ((3, 4), (1, 2))}
    assert verdicts[((1, 4), (2, 3))] is False
    assert verdicts[((2, 3), (1, 4))] is False
    assert elapsed < 1.0
    report(2, f"exactly 4 of 6 Q-cosets are Q-spin, in {elapsed:.3f}s")


def test_criterion_03_dimension_predictions():
    dims = [pure_parabolic_dim(SpinParabolic.from_xp(x, 2))
            for x in ({1, 2}, {2}, set())]
    assert dims == [3, 2, 1]
    report(3, "pure parabolic family dimensions at n=2 are 3, 2, 1 for B, Q, G")


def test_criterion_04_non_critical_slope_audit():
    b = SpinParabolic.borel(2)
    first = non_critical_slope(LAM, {1: 11, 2: 0, 3: 11}, b)
    second = non_critical_slope(LAM, {1: 11, 2: 0, 3: 1}, b)
    assert [row.bound for row in first.rows] == [12, 3, 12]
    assert first.ok and second.ok
    report(4, "bounds (12, 3, 12): slope triples (11,0,11) and (11,0,1) both pass")


def test_criterion_05_three_criteria_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for r in all_refinements(n):
            for p in all_spin_parabolics(n):
                verdicts = {is_P_spin(r, p, m)
                            for m in ("weyl", "combinatorial", "gamma")}
                assert len(verdicts) == 1
                checked += 1
    rng = random.Random(20260810)
    parabolics8 = list(all_spin_parabolics(4))
    base = list(range(1, 9))
    for _ in range(100_000):
        r = Refinement(4, Perm(tuple(rng.sample(base, 8))))
        p = rng.choice(parabolics8)
        a = is_P_spin(r, p, "weyl")
        assert a == is_P_spin(r, p, "combinatorial") == is_P_spin(r, p, "gamma")
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"weyl/combinatorial/gamma agree on {checked} cases "
              f"(exhaustive 2n<=6, 1e5 samples at 2n=8) in {elapsed:.1f}s")


def test_criterion_06_b_spin_count():
    import math
    counts = {}
    for n in (1, 2, 3):
        counts[n] = sum(1 for r in all_refinements(n) if is_B_spin(r))
        assert counts[n] == 2 ** n * math.factorial(n)
    # n = 4 through the pairing characterization of the embedded subgroup
    count4 = 0
    rng = random.Random(5)
    sample_checked = 0
    for images in itertools.permutations(range(1, 9)):
        sigma = Perm(images)
        member = in_wg0(sigma) is not None
        if member:
            count4 += 1
        if sample_checked < 500 and rng.random() < 0.02:
            assert member == is_B_spin(Refinement(4, sigma))
            sample_checked += 1
    assert count4 == 2 ** 4 * math.factorial(4) == 384
    report(6, f"fully spin counts 2^n n! confirmed: {counts} and n=4 -> 384")


def test_criterion_07_symbolic_hecke_identities():
    for n in (1, 2, 3):
        top = [7 * n - 5 * i for i in range(n)]
        lam = PureWeight.from_coeffs(tuple(top + [-t for t in reversed(top)]))
        for r in all_refinements(n):
            for k in range(1, n + 1):
                if is_r_spin(r, k):
                    assert spin_relation_check(r, k, lam)
            assert gamma_uniqueness_scan(r) == gamma(r)
    report(7, "similitude eigenvalue relation holds for every k-spin refinement and "
              "the gamma scan is unique and exact, exhaustively for 2n <= 6")


def test_criterion_08_switching_soundness():
    rng = random.Random(808)
    # exhaustive at 2n = 4, with the eigenvalue-transfer weight invariance
    for r in all_refinements(2):
        taus, target = to_B_spin(r)
        assert is_B_spin(target)
        profile = optimal_parabolic(r)
        assert len(taus) <= 2 - len(profile.spin_set)
        weights = [LAM] + coset_weights(LAM, profile.optimal, rng, count=5)
        reference = None
        for lam in weights:
            assert weight_in_parabolic_coset(lam, LAM, profile.optimal)
            apply_tau = phi_tau(taus, lam)
            pows = [apply_tau(FracHeckeWord.generator(k, 2)).p_half
                    for k in range(1, 5)]
            if reference is None:
                reference = pows
            else:
                assert pows == reference
        # and the transfer is exact on eigenvalues at the base weight
        apply_tau = phi_tau(taus, LAM)
        for k in range(1, 5):
            moved = apply_tau(FracHeckeWord.generator(k, 2))
            assert moved.evaluate(target, LAM).spin_equal(alpha_U_circ(r, k, LAM))
    # sampled at 2n = 6
    base6 = list(range(1, 7))
    top = [9, 4, 1]
    lam6 = PureWeight.from_coeffs(tuple(top + [-t for t in reversed(top)]))
    for _ in range(200):
        r = Refinement(3, Perm(tuple(rng.sample(base6, 6))))
        taus, target = to_B_spin(r)
        assert is_B_spin(target)
        assert len(taus) <= 3 - len(spin_set(r))
        apply_tau = phi_tau(taus, lam6)
        for k in range(1, 7):
            moved = apply_tau(FracHeckeWord.generator(k, 3))
            assert moved.evaluate(target, lam6).spin_equal(alpha_U_circ(r, k, lam6))
        base_pows = [apply_tau(FracHeckeWord.generator(k, 3)).p_half
                     for k in range(1, 7)]
        p6 = optimal_parabolic(r).optimal
        for lam_alt in coset_weights(lam6, p6, rng, count=2):
            alt = phi_tau(taus, lam_alt)
            assert [alt(FracHeckeWord.generator(k, 3)).p_half
                    for k in range(1, 7)] == base_pows
    report(8, "switching always lands fully spin within the transposition budget; "
              "transfer coefficients constant across the parabolic weight coset")


def test_criterion_09_gspin_divisibility():
    checked = 0
    for n in (1, 2, 3):
        for p in all_spin_parabolics(n):
            for k in range(1, 2 * n + 1):
                if k != 2 * n and k in p.delta:
                    continue
                gl = char_poly_roots(p, k, "GL")
                gs = char_poly_roots(p, k, "GSpin")
                assert multiset_divides(gs, gl)
                checked += 1
    report(9, f"GSpin root multiset divides the GL one in all {checked} cases, n <= 3")


def test_criterion_10_support_verdicts():
    for n in (1, 2, 3, 4):
        for p in all_spin_parabolics(n):
            v = zeta_support_verdict(p, 1)
            even = v.block_count_parity == "even"
            assert v.integral == even == v.contained_in_Q
    v121 = zeta_support_verdict(SpinParabolic.from_composition((1, 2, 1)), 1)
    assert v121.forced_vanishing
    report(10, "integral <=> even block count <=> inside (n,n), all spin P with "
               "n <= 4; the (1,2,1) case reports forced vanishing")


def test_criterion_11_m_tau_oracle_agreement():
    start = time.perf_counter()
    nvars = 5
    from spinref.intertwine import RatFunc
    one = RatFunc.const(1, nvars)
    for p in (SpinParabolic.borel(2), SpinParabolic.from_composition((2, 2))):
        expansion, prenorm = m_tau_expansion(2, p)
        oracle = m_tau_expansion_oracle(2, p)
        assert set(expansion) == set(oracle)
        for key in expansion:
            assert expansion[key] == oracle[key]
        identity_key = LeviCoset(
            Perm.identity(2),
            frozenset() if p.is_borel else frozenset({1}))
        assert expansion[identity_key] == one
        assert not prenorm.is_zero
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(11, f"coset recursion matches the cell-by-cell oracle for n=2, "
               f"P in {{B, Q}}; identity coefficient is exactly 1; {elapsed:.2f}s")


def test_criterion_12_slope_system_audit():
    archived = json.loads((DATA / "gl4_slope_certificate.json").read_text())
    systems = [(Perm.identity(4), {1: 11, 2: 0, 3: 11}),
               (Perm((2, 1, 3, 4)), {1: 11, 2: 0, 3: 1})]
    sol = solve_profile_joint(systems, LAM)
    got = {
        "status": sol.status,
        "certificate": [
            {"combination": [[label, str(c)] for label, c in row.combination],
             "residual": str(row.residual)}
            for row in sol.certificate
        ],
    }
    assert got["status"] == archived["status"] == "inconsistent"
    assert got["certificate"] == archived["certificate"]
    report(12, "declared GL(4) slope system certified inconsistent; certificate "
               "matches the archived fixture (2 violated relations)")
