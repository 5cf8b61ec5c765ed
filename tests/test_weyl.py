import itertools
import math
import random

import pytest

from spinref.rootdata import GLCharacter, GLCocharacter, GSpinCharacter, GSpinCocharacter, \
    RankMismatchError, jmath_char, jmath_vee_cochar
from spinref.weyl import (LeviCoset, Perm, SignedPerm, Trichotomy, composition_delta,
                          coset_min_rep, embed_wg0, enumerate_signed_perms, format_one_line,
                          gspin_weyl_act, gspin_weyl_act_cochar, in_wg0,
                          parse_one_line, position_blocks, simple_trichotomy)


def compositions(N):
    """Every composition of N, as a tuple of positive parts."""
    if N == 0:
        yield ()
        return
    for first in range(1, N + 1):
        for rest in compositions(N - first):
            yield (first,) + rest


class TestPerm:
    def test_parse_format_round_trip(self):
        for text in ("1234", "2134", "216345", "21"):
            assert format_one_line(parse_one_line(text)) == text
        long = Perm(tuple([10] + list(range(1, 10))))
        assert parse_one_line(format_one_line(long)) == long

    def test_parse_errors_name_position(self):
        with pytest.raises(ValueError, match="position 3"):
            parse_one_line("12x4")
        with pytest.raises(ValueError, match="position 3: value 2 repeated"):
            parse_one_line("1224")
        with pytest.raises(ValueError, match="position 2"):
            parse_one_line("16234")

    def test_multiplication_is_composition(self):
        s = Perm((2, 1, 3, 4))
        t = Perm((1, 3, 2, 4))
        st = s * t
        for i in range(1, 5):
            assert st(i) == s(t(i))

    def test_right_multiplication_swaps_positions(self):
        sigma = Perm((3, 1, 4, 2))
        swapped = sigma * Perm.transposition(1, 3, 4)
        assert swapped.images == (4, 1, 3, 2)

    def test_lengths(self):
        assert Perm.identity(4).length() == 0
        assert Perm.longest(4).length() == 6
        assert Perm((2, 1, 3, 4)).length() == 1

    def test_reduced_words_s4(self):
        for images in itertools.permutations((1, 2, 3, 4)):
            sigma = Perm(images)
            word = sigma.reduced_word()
            assert len(word) == sigma.length()
            assert Perm.from_word(word, 4) == sigma

    def test_reduced_words_random_s8(self):
        rng = random.Random(3)
        for _ in range(50):
            images = list(range(1, 9))
            rng.shuffle(images)
            sigma = Perm(tuple(images))
            word = sigma.reduced_word()
            assert len(word) == sigma.length()
            assert Perm.from_word(word, 8) == sigma

    def test_inverse(self):
        sigma = Perm((3, 1, 4, 2))
        assert sigma * sigma.inverse() == Perm.identity(4)

    def test_char_action_is_right_action(self):
        rng = random.Random(5)
        for _ in range(30):
            a = Perm(tuple(rng.sample(range(1, 7), 6)))
            b = Perm(tuple(rng.sample(range(1, 7), 6)))
            mu = tuple(rng.randint(-5, 5) for _ in range(6))
            assert b.act_char(a.act_char(mu)) == (a * b).act_char(mu)


class TestEmbedding:
    def test_identity(self):
        assert embed_wg0(SignedPerm.identity(2), 2) == Perm.identity(4)

    def test_sign_flip_slot1(self):
        got = embed_wg0(SignedPerm.sign_flip(1, 2), 2)
        assert got.images == (4, 2, 3, 1)

    def test_image_counts(self):
        for n in (1, 2, 3):
            images = {embed_wg0(s, n).images for s in enumerate_signed_perms(n)}
            assert len(images) == 2 ** n * math.factorial(n)

    def test_homomorphism(self):
        elems = list(enumerate_signed_perms(2))
        for a in elems:
            for b in elems:
                assert embed_wg0(a * b, 2) == embed_wg0(a, 2) * embed_wg0(b, 2)

    def test_homomorphism_n3_sampled(self):
        rng = random.Random(29)
        elems = list(enumerate_signed_perms(3))
        for _ in range(300):
            a, b = rng.choice(elems), rng.choice(elems)
            assert embed_wg0(a * b, 3) == embed_wg0(a, 3) * embed_wg0(b, 3)

    def test_round_trip(self):
        for n in (1, 2, 3):
            for s in enumerate_signed_perms(n):
                assert in_wg0(embed_wg0(s, n)) == s

    def test_in_wg0_rejects(self):
        assert in_wg0(Perm((2, 1, 3, 4))) is None

    def test_in_wg0_example(self):
        s = in_wg0(Perm((4, 2, 3, 1)))
        assert s is not None
        assert s.word == (-1, 2)

    def test_pairing_characterization_counts(self):
        # permutations with sigma(i) + sigma(2n+1-i) = 2n+1 number 2^n n!
        for n in (1, 2, 3, 4):
            count = sum(1 for images in itertools.permutations(range(1, 2 * n + 1))
                        if in_wg0(Perm(images)) is not None)
            assert count == 2 ** n * math.factorial(n)

    def test_image_satisfies_pairing(self):
        for s in enumerate_signed_perms(3):
            sigma = embed_wg0(s, 3)
            assert all(sigma(i) + sigma(7 - i) == 7 for i in range(1, 4))


class TestCosets:
    def test_min_rep_identity(self):
        for delta in (frozenset(), frozenset({1}), frozenset({1, 2, 3})):
            assert coset_min_rep(Perm.identity(4), delta) == Perm.identity(4)

    def test_min_rep_2134_mod_a1(self):
        assert coset_min_rep(Perm((2, 1, 3, 4)), frozenset({1})) == Perm.identity(4)

    def test_min_rep_exhaustive_s4(self):
        deltas = [frozenset(s) for r in range(4)
                  for s in itertools.combinations((1, 2, 3), r)]
        for images in itertools.permutations((1, 2, 3, 4)):
            sigma = Perm(images)
            for delta in deltas:
                coset = LeviCoset.of(sigma, delta)
                members = list(coset.members())
                assert sigma in members
                lengths = {m: m.length() for m in members}
                rep = coset.rep
                assert lengths[rep] == min(lengths.values())
                assert sum(1 for m in members if lengths[m] == lengths[rep]) == 1
                assert coset_min_rep(rep, delta) == rep

    def test_position_blocks(self):
        assert [list(b) for b in position_blocks({2, 3, 4}, 6)] == \
            [[1], [2, 3, 4, 5], [6]]

    @pytest.mark.parametrize("N", range(1, 9))
    def test_composition_delta_inverts_position_blocks(self, N):
        for parts in compositions(N):
            delta = composition_delta(parts)
            assert delta <= set(range(1, N))
            assert tuple(len(b) for b in position_blocks(delta, N)) == parts
        for bits in range(2 ** (N - 1)):
            delta = frozenset(i for i in range(1, N) if bits >> (i - 1) & 1)
            assert composition_delta(len(b) for b in position_blocks(delta, N)) == delta

    def test_members_count(self):
        coset = LeviCoset.of(Perm.identity(4), {1, 3})
        assert coset.size() == 4 == len(list(coset.members()))
        assert coset.block_values() == ((1, 2), (3, 4))


class TestTrichotomy:
    def test_permutes_example(self):
        coset = LeviCoset.of(Perm.identity(4), {1})
        assert simple_trichotomy(1, coset) is Trichotomy.PERMUTES

    def test_all_longer_example(self):
        coset = LeviCoset.of(Perm.identity(4), frozenset())
        assert simple_trichotomy(1, coset) is Trichotomy.ALL_LONGER

    @pytest.mark.parametrize("N", [4, 6])
    def test_exhaustive_member_wise(self, N):
        deltas = [frozenset(s) for r in range(N)
                  for s in itertools.combinations(range(1, N), r)]
        seen_cosets = set()
        for images in itertools.permutations(range(1, N + 1)):
            sigma = Perm(images)
            for delta in deltas:
                coset = LeviCoset.of(sigma, delta)
                if (coset.rep.images, delta) in seen_cosets:
                    continue
                seen_cosets.add((coset.rep.images, delta))
                for s in range(1, N):
                    verdict = simple_trichotomy(s, coset)
                    members = list(coset.members())
                    simple = Perm.simple(s, N)
                    if verdict is Trichotomy.PERMUTES:
                        assert {(simple * m).images for m in members} == \
                            {m.images for m in members}
                    elif verdict is Trichotomy.ALL_SHORTER:
                        assert all((simple * m).length() < m.length() for m in members)
                    else:
                        assert all((simple * m).length() > m.length() for m in members)


class TestGSpinAction:
    def test_sign_rules(self):
        f0 = GSpinCharacter(2, (1, 0, 0))
        f1 = GSpinCharacter(2, (0, 1, 0))
        flip = SignedPerm.sign_flip(1, 2)
        assert gspin_weyl_act(flip, f0).coeffs == (1, 1, 0)
        assert gspin_weyl_act(flip, f1).coeffs == (0, -1, 0)
        f2 = GSpinCharacter(2, (0, 0, 1))
        assert gspin_weyl_act(flip, f2).coeffs == (0, 0, 1)

    def test_identity_trivial(self):
        chi = GSpinCharacter(3, (2, -1, 0, 4))
        assert gspin_weyl_act(SignedPerm.identity(3), chi) == chi

    def test_equivariance(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for s in enumerate_signed_perms(n):
                sigma = embed_wg0(s, n)
                for _ in range(3):
                    mu = GSpinCharacter(n, tuple(rng.randint(-5, 5)
                                                 for _ in range(n + 1)))
                    lhs = jmath_char(gspin_weyl_act(s, mu), n)
                    rhs = GLCharacter(n, sigma.act_char(jmath_char(mu, n).coeffs))
                    assert lhs == rhs

    def test_dual_equivariance(self):
        rng = random.Random(12)
        for n in (1, 2, 3):
            for s in enumerate_signed_perms(n):
                sigma = embed_wg0(s, n)
                for _ in range(3):
                    nu = GLCocharacter(n, tuple(rng.randint(-5, 5)
                                                for _ in range(2 * n)))
                    nu_sigma = GLCocharacter(n, sigma.act_char(nu.coeffs))
                    lhs = jmath_vee_cochar(nu_sigma, n)
                    rhs = gspin_weyl_act_cochar(in_wg0(sigma), jmath_vee_cochar(nu, n))
                    assert lhs == rhs

    def test_action_composition(self):
        rng = random.Random(13)
        elems = list(enumerate_signed_perms(2))
        for _ in range(100):
            a, b = rng.choice(elems), rng.choice(elems)
            chi = GSpinCharacter(2, tuple(rng.randint(-5, 5) for _ in range(3)))
            assert gspin_weyl_act(b, gspin_weyl_act(a, chi)) == \
                gspin_weyl_act(a * b, chi)
            nu = GSpinCocharacter(2, tuple(rng.randint(-5, 5) for _ in range(3)))
            assert gspin_weyl_act_cochar(b, gspin_weyl_act_cochar(a, nu)) == \
                gspin_weyl_act_cochar(a * b, nu)


class TestSignedPermGroup:
    def test_inverse(self):
        for s in enumerate_signed_perms(2):
            assert s * s.inverse() == SignedPerm.identity(2)
            assert s.inverse() * s == SignedPerm.identity(2)

    def test_associative_sample(self):
        rng = random.Random(17)
        elems = list(enumerate_signed_perms(2))
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_sign_flip_word(self):
        assert SignedPerm.sign_flip(1, 2).word == (-1, 2)


class TestSignedPermRefusals:
    @pytest.mark.parametrize("word", [(1, 1), (0, 2), (1, 3), (2, -2)])
    def test_refuses_non_signed_permutation(self, word):
        with pytest.raises(ValueError, match="not a signed permutation"):
            SignedPerm(word)

    def test_product_refuses_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            SignedPerm.identity(2) * SignedPerm.identity(3)

    def test_embedding_refuses_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            embed_wg0(SignedPerm.identity(2), 3)

    def test_actions_refuse_rank_mismatch(self):
        w = SignedPerm((2, -1))
        with pytest.raises(RankMismatchError,
                           match="rank mismatch: element has n=2, character n=3"):
            gspin_weyl_act(w, GSpinCharacter(3, (0, 1, 2, 3)))
        with pytest.raises(RankMismatchError,
                           match="rank mismatch: element has n=2, cocharacter n=3"):
            gspin_weyl_act_cochar(w, GSpinCocharacter(3, (0, 1, 2, 3)))
