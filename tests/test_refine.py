import itertools
import random
import tracemalloc
from collections import Counter
from math import comb, factorial

import pytest

from spinref.parabolic import SpinParabolic, all_spin_parabolics
from spinref import refine
from spinref.refine import (EnumerationBoundError, Refinement, StratumCountError,
                            gamma, improve_spin_step, is_B_spin, is_P_spin, is_r_spin,
                            optimal_parabolic, parahoric_is_spin, parahoric_restrict,
                            spin_set, stratify, stratum_counts, to_B_spin)
from spinref.weyl import Perm, enumerate_wg0, format_one_line

ALL_S4 = [Refinement(2, Perm(images))
          for images in itertools.permutations((1, 2, 3, 4))]


def all_refinements(n):
    for images in itertools.permutations(range(1, 2 * n + 1)):
        yield Refinement(n, Perm(images))


def extensions(pr):
    """The Iwahori refinements above a parahoric one: its coset's members."""
    return [Refinement(pr.parabolic.n, w) for w in pr.coset.members()]


def partner_ranks(n, head):
    """The ranks within the rest R of the partners 2n+1-v of the head's first
    values v, up to the first partner that is not in R."""
    rest = sorted(set(range(1, 2 * n + 1)) - set(head))
    ranks = []
    for v in head:
        if 2 * n + 1 - v not in rest:
            break
        ranks.append(rest.index(2 * n + 1 - v))
    return tuple(ranks)


def own_split(n, head):
    """Each spin set of head + an arrangement of its own rest R, mapped to the
    positions 1..n! of those arrangements after a 0, by is_r_spin."""
    rest = sorted(set(range(1, 2 * n + 1)) - set(head))
    groups = {}
    for index, tail in enumerate(itertools.permutations(rest), 1):
        r = Refinement(n, Perm(tuple(head) + tail))
        spins = frozenset(k for k in range(1, n + 1) if is_r_spin(r, k))
        groups.setdefault(spins, [0]).append(index)
    return groups


def own_texts(sep, head, rest):
    """sep and the one-line text of head + each arrangement of rest, as the
    head table's records write them, by format_one_line."""
    return [(sep + format_one_line(Perm(tuple(head) + tail))).encode()
            for tail in itertools.permutations(rest)]


def split_by_spin_set(n, groups):
    """A split keyed by spin sets: index k is spin when bit k - 1 of the key
    is set."""
    return {frozenset(k for k in range(1, n + 1) if key >> (k - 1) & 1): group
            for key, group in groups.items()}


def stratum_counts_by_inclusion_exclusion(n):
    """The slow oracle for stratum_counts: the same closed form, with
    inclusion-exclusion summed over every superset of every X, O(4^n)."""
    subsets = [frozenset(c) for size in range(n + 1)
               for c in itertools.combinations(range(1, n + 1), size)]
    at_least = {}
    for x in subsets:
        count, prev = 1, 0
        for r in sorted(x):
            d, m = r - prev, n - prev
            count *= comb(m, d) * 2 ** d * factorial(d) ** 2
            prev = r
        at_least[x] = count * factorial(2 * (n - prev))
    return {x: sum((-1) ** len(y - x) * at_least[y] for y in subsets if x <= y)
            for x in subsets}


class TestGamma:
    def test_identity(self):
        for n in (1, 2, 3):
            g = gamma(Refinement.identity(n))
            assert g.values == tuple(range(1, n + 1))

    def test_216345(self):
        g = gamma(Refinement.from_one_line("216345"))
        assert g(1) == 1

    def test_defining_equation_s4(self):
        for r in ALL_S4:
            g = gamma(r)
            for i in range(1, 3):
                assert r.sigma(i) + r.sigma(5 - g(i)) == 5
            assert len(set(g.values)) == 2

    def test_left_invariance_under_wg0(self):
        for zeta in enumerate_wg0(2):
            for r in ALL_S4:
                shifted = Refinement(2, zeta * r.sigma)
                assert gamma(shifted) == gamma(r)

    def test_left_invariance_under_wg0_n3_sampled(self):
        import random
        rng = random.Random(7)
        wg0 = enumerate_wg0(3)
        for _ in range(150):
            r = Refinement(3, Perm(tuple(rng.sample(range(1, 7), 6))))
            zeta = rng.choice(wg0)
            assert gamma(Refinement(3, zeta * r.sigma)) == gamma(r)


class TestRSpin:
    def test_216345(self):
        r = Refinement.from_one_line("216345")
        assert [is_r_spin(r, k) for k in (1, 2, 3)] == [True, False, False]

    def test_132456(self):
        r = Refinement.from_one_line("132456")
        assert [is_r_spin(r, k) for k in (1, 2, 3)] == [True, False, True]

    def test_identity_all(self):
        r = Refinement.identity(3)
        assert all(is_r_spin(r, k) for k in (1, 2, 3))

    def test_n_minus_1_implies_n(self):
        for n in (2, 3, 4):
            for r in all_refinements(n):
                if is_r_spin(r, n - 1):
                    assert is_r_spin(r, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gamma_prefix_iff_r_spin(self, n):
        for r in all_refinements(n):
            g = gamma(r)
            for k in range(1, n + 1):
                assert g.preserves_prefix(k) == is_r_spin(r, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_incremental_sweep_matches_direct_test(self, n):
        for r in all_refinements(n):
            assert spin_set(r) == \
                frozenset(k for k in range(1, n + 1) if is_r_spin(r, k))

    @pytest.mark.parametrize("n", [5, 6])
    def test_incremental_sweep_matches_direct_test_sampled(self, n):
        rng = random.Random(n)
        for _ in range(10_000):
            r = Refinement(n, Perm(tuple(rng.sample(range(1, 2 * n + 1), 2 * n))))
            assert spin_set(r) == \
                frozenset(k for k in range(1, n + 1) if is_r_spin(r, k))


class TestPSpin:
    def test_216345_examples(self):
        r = Refinement.from_one_line("216345")
        p141 = SpinParabolic.from_composition((1, 4, 1))
        assert is_P_spin(r, p141)
        assert not is_P_spin(r, SpinParabolic.borel(3))

    def test_wg0_always_b_spin(self):
        b = SpinParabolic.borel(2)
        for zeta in enumerate_wg0(2):
            assert is_P_spin(Refinement(2, zeta), b, method="weyl")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_methods_agree(self, n):
        for r in all_refinements(n):
            for p in all_spin_parabolics(n):
                verdicts = {is_P_spin(r, p, m)
                            for m in ("weyl", "combinatorial", "gamma")}
                assert len(verdicts) == 1

    def test_wg0_left_invariance_of_optimal(self):
        for zeta in enumerate_wg0(2):
            for r in ALL_S4:
                shifted = Refinement(2, zeta * r.sigma)
                assert optimal_parabolic(shifted).optimal == \
                    optimal_parabolic(r).optimal


class TestOptimal:
    def test_worked_examples(self):
        assert optimal_parabolic(
            Refinement.from_one_line("216345")).optimal.composition == (1, 4, 1)
        assert optimal_parabolic(
            Refinement.from_one_line("132456")).optimal.composition == (1, 2, 2, 1)
        assert optimal_parabolic(
            Refinement.from_one_line("2314")).optimal.is_full_group

    def test_optimality(self):
        # P-spin exactly for P containing the optimal one
        for r in ALL_S4:
            opt = optimal_parabolic(r).optimal
            for p in all_spin_parabolics(2):
                assert is_P_spin(r, p) == (opt.delta <= p.delta)


GL4_TABLE = {
    "B": ["1234", "1324", "2143", "2413", "3142", "3412", "4231", "4321"],
    "2,2": ["1243", "1342", "2134", "2431", "3124", "3421", "4213", "4312"],
    "G": ["1423", "1432", "2314", "2341", "3214", "3241", "4123", "4132"],
    "1,2,1": [],
}


class TestStratify:
    def test_gl4_table(self):
        strata = stratify(2)
        got = {p.label(): [r.one_line() for r in members]
               for p, members in strata.items()}
        assert got == GL4_TABLE

    def test_n1(self):
        strata = stratify(1)
        got = {p.label(): [r.one_line() for r in members]
               for p, members in strata.items()}
        assert got == {"B": ["12", "21"], "G": []}

    def test_bound(self):
        with pytest.raises(EnumerationBoundError):
            stratify(6)
        with pytest.raises(EnumerationBoundError):
            stratify(3, bound=2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_direct_count(self, n):
        direct = Counter(frozenset(k for k in range(1, n + 1) if is_r_spin(r, k))
                         for r in all_refinements(n))
        assert {x: c for x, c in stratum_counts(n).items() if c} == dict(direct)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sizes_match_closed_form(self, n):
        sizes = {p.xp: len(members) for p, members in stratify(n).items()}
        assert sizes == stratum_counts(n)

    def test_closed_form_totals(self):
        for n in (*range(1, 13), 16):
            counts = stratum_counts(n)
            assert len(counts) == 2 ** n
            assert sum(counts.values()) == factorial(2 * n)
            assert counts[frozenset(range(1, n + 1))] == 2 ** n * factorial(n)
            # r-spin at r = n-1 (vacuous at r = 0) leaves one pair
            # {v, 2n+1-v} for the middle positions n and n+1, which makes the
            # refinement n-spin too; every other stratum is occupied
            for x, count in counts.items():
                assert (count == 0) == ((n - 1 in x or n == 1) and n not in x), (n, x)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_matches_inclusion_exclusion_oracle(self, n):
        assert stratum_counts(n) == stratum_counts_by_inclusion_exclusion(n)

    def test_count_mismatch_raises(self, monkeypatch):
        wrong = stratum_counts(2)
        wrong[frozenset({1, 2})] += 1
        wrong[frozenset()] -= 1
        monkeypatch.setattr(refine, "stratum_counts", lambda n: wrong)
        with pytest.raises(StratumCountError):
            stratify(2)

    def test_g_count_mismatch_raises(self, monkeypatch):
        # G is counted from its parts, not from a buffer; a wrong closed form
        # for G alone is still caught
        wrong = stratum_counts(3)
        wrong[frozenset()] += 1
        monkeypatch.setattr(refine, "stratum_counts", lambda n: wrong)
        with pytest.raises(StratumCountError, match=r"^stratum G has 384 members, "
                                                    r"closed form 385$"):
            refine.stratum_words(3, " ")

    def test_members_sorted_and_spin_exactly_xp(self):
        for n in (3, 4):
            for p, members in stratify(n).items():
                images = [r.sigma.images for r in members]
                assert images == sorted(set(images))
                for r in members:
                    assert {k for k in range(1, n + 1) if is_r_spin(r, k)} == p.xp

    @pytest.mark.parametrize("sep", [" ", '", "'])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bulk_words_match_naive_bucketing(self, n, sep):
        # The slow independent check of the bulk text: each word of
        # itertools.permutations on its own, formatted by format_one_line
        # after sep and put in the stratum of its spin set.
        naive = {p: [] for p in all_spin_parabolics(n)}
        by_xp = {p.xp: p for p in naive}
        for images in itertools.permutations(range(1, 2 * n + 1)):
            r = Refinement(n, Perm(images))
            naive[by_xp[spin_set(r)]].append(sep + format_one_line(r.sigma))
        words = refine.stratum_words(n, sep)
        assert list(words) == list(naive)
        # read as classify reads them: in row order, each stratum to its end
        # before the next, every one a single-use iterator over one table
        for p in sorted(naive, key=lambda p: (-len(p.xp), p.composition)):
            size, chunks = words[p]
            assert "".join(chunks) == "".join(naive[p]), p.label()
            assert size == len(naive[p]), p.label()
            assert next(chunks, None) is None, p.label()

    @pytest.mark.parametrize("sep", [" ", '", "'])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_head_table_bound_covers_the_traced_peak(self, n, sep):
        # the memory refusal's figure is an upper bound of what is held,
        # while the table is built and while every stratum is read
        tracemalloc.start()
        try:
            for _, chunks in refine.stratum_words(n, sep).values():
                for _ in chunks:
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= refine._head_table_bytes(n, sep)

    @pytest.mark.parametrize("sep", [" ", '", "'])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_head_split_matches_its_own_arrangements(self, n, sep):
        # the slow independent check of the sharing rule: each head's shared
        # split, keyed by its partner ranks, equals the split of its own R,
        # word by word with is_r_spin; and each head and arrangement write
        # the word's one-line text after sep
        records, _ = refine._head_table(n, sep)
        heads = list(itertools.permutations(range(1, 2 * n + 1), n))
        assert [record[1] for record in records] == \
            [(sep + "".join(map(str, values))).encode() for values in heads]
        for (j, head, groups, words), values in zip(records, heads):
            rest = sorted(set(range(1, 2 * n + 1)) - set(values))
            assert words[0] == b""
            assert [head + word for word in words[1:]] == own_texts(sep, values, rest)
            assert j == len(partner_ranks(n, values))
            assert split_by_spin_set(n, groups) == own_split(n, values), head

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_rank_split_matches_rank_sets(self, n):
        # the slow independent check of every split a head can use (206 at
        # n = 5): index k <= j is spin for an arrangement of the ranks when
        # its last k ranks are the set of the tuple's first k
        arrangements = list(itertools.permutations(range(n)))
        for j in (*range(n - 1), n):
            for ranks in itertools.permutations(range(n), j):
                direct = {}
                for position, arrangement in enumerate(arrangements, 1):
                    spins = frozenset(k for k in range(1, j + 1)
                                      if set(arrangement[n - k:]) == set(ranks[:k]))
                    direct.setdefault(spins, [0]).append(position)
                assert split_by_spin_set(n, refine._rank_split(n, ranks)) == direct, ranks

    @pytest.mark.parametrize("n, seed", [(5, 5), (6, 6)])
    def test_sampled_head_splits_match_their_own_arrangements(self, n, seed):
        # two seeded heads for each j; at n = 5 read off the head table, at
        # n = 6 (no table in Tier-1) from the split its ranks are keyed by.
        # No head has j = n - 1: R would hold the partners of its first n - 1
        # values and of its last.
        rng = random.Random(seed)
        sampled = {}
        while len(sampled) < 2 * n:
            values = tuple(rng.sample(range(1, 2 * n + 1), n))
            ranks = partner_ranks(n, values)
            if sum(len(other) == len(ranks) for other in sampled.values()) < 2:
                sampled[values] = ranks
        if n == 5:
            records = refine._head_table(n, " ")[0]
            heads = list(itertools.permutations(range(1, 2 * n + 1), n))
        for values, ranks in sampled.items():
            if n == 5:
                # degree 10: values comma-separated, the head's text ending
                # in the comma before its arrangement's
                j, head, groups, words = records[heads.index(values)]
                assert (j, head) == (len(ranks), (" " + ",".join(map(str, values)) + ",").encode())
                rest = sorted(set(range(1, 2 * n + 1)) - set(values))
                assert [head + word for word in words[1:]] == own_texts(" ", values, rest)
            else:
                groups = refine._rank_split(n, ranks)
            assert split_by_spin_set(n, groups) == own_split(n, values), values

    @pytest.mark.parametrize("sep", [" ", '", "'])
    def test_degree_10_heads_write_comma_separated_text(self, sep):
        # every head at n = 5 is sep, its values comma-separated and the
        # comma before its arrangement's text; every 97th head's
        # arrangements write the whole word as format_one_line does
        records = refine._head_table(5, sep)[0]
        heads = list(itertools.permutations(range(1, 11), 5))
        assert [record[1] for record in records] == \
            [(sep + ",".join(map(str, values)) + ",").encode() for values in heads]
        for (_, head, _, words), values in list(zip(records, heads))[::97]:
            rest = sorted(set(range(1, 11)) - set(values))
            assert words[0] == b""
            assert [head + word for word in words[1:]] == own_texts(sep, values, rest)

    def test_counts_n3(self):
        strata = stratify(3)
        total = sum(len(m) for m in strata.values())
        assert total == 720
        b = SpinParabolic.borel(3)
        assert len(strata[b]) == 2 ** 3 * 6  # 48 fully spin refinements


class TestParahoric:
    def test_identity_mod_q(self):
        q = SpinParabolic.from_composition((2, 2))
        pr = parahoric_restrict(Refinement.identity(2), q)
        assert pr.coset.block_values() == ((1, 2), (3, 4))
        exts = sorted(r.one_line() for r in extensions(pr))
        assert exts == ["1234", "1243", "2134", "2143"]

    def test_restrict_mod_g_single_coset(self):
        g = SpinParabolic.from_xp((), 2)
        cosets = {parahoric_restrict(r, g).coset for r in ALL_S4}
        assert len(cosets) == 1

    def test_q_spin_cosets(self):
        q = SpinParabolic.from_composition((2, 2))
        verdicts = {}
        for r in ALL_S4:
            pr = parahoric_restrict(r, q)
            verdicts[pr.coset.block_values()] = parahoric_is_spin(pr)
        assert len(verdicts) == 6
        spin_blocks = {blocks for blocks, ok in verdicts.items() if ok}
        assert spin_blocks == {((1, 2), (3, 4)), ((1, 3), (2, 4)),
                               ((2, 4), (1, 3)), ((3, 4), (1, 2))}
        assert not verdicts[((1, 4), (2, 3))]
        assert not verdicts[((2, 3), (1, 4))]

    def test_b_level_of_wg0_is_spin(self):
        b = SpinParabolic.borel(2)
        for zeta in enumerate_wg0(2):
            pr = parahoric_restrict(Refinement(2, zeta), b)
            assert parahoric_is_spin(pr)

    def test_extensions_restrict_back(self):
        for r in ALL_S4:
            for p in all_spin_parabolics(2):
                pr = parahoric_restrict(r, p)
                exts = extensions(pr)
                assert r in exts
                for ext in exts:
                    assert parahoric_restrict(ext, p).coset == pr.coset

    def test_spin_constant_on_extensions(self):
        for r in ALL_S4:
            for p in all_spin_parabolics(2):
                pr = parahoric_restrict(r, p)
                verdicts = {is_P_spin(ext, p) for ext in extensions(pr)}
                assert len(verdicts) == 1
                assert parahoric_is_spin(pr) == verdicts.pop()


class TestSwitching:
    def test_2134(self):
        i, j, out = improve_spin_step(Refinement.from_one_line("2134"))
        assert (i, j) == (1, 2)
        assert out.one_line() == "1234"

    def test_216345(self):
        r = Refinement.from_one_line("216345")
        i, j, out = improve_spin_step(r)
        assert i == 2
        assert r.sigma(j) + r.sigma(7 - i) == 7  # j located by the pairing equation
        assert is_r_spin(out, 1) and is_r_spin(out, 2)

    def test_b_spin_input_rejected(self):
        with pytest.raises(ValueError):
            improve_spin_step(Refinement.identity(2))

    def test_to_b_spin_trivial(self):
        taus, out = to_B_spin(Refinement.identity(3))
        assert taus == [] and out == Refinement.identity(3)

    def test_to_b_spin_2134(self):
        taus, out = to_B_spin(Refinement.from_one_line("2134"))
        assert taus == [(1, 2)] and out.one_line() == "1234"

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive(self, n):
        for r in all_refinements(n):
            taus, out = to_B_spin(r)
            assert is_B_spin(out)
            assert len(taus) <= n - len(spin_set(r))
            # the product of the transpositions recovers the target
            sigma = r.sigma
            for i, j in taus:
                sigma = sigma * Perm.transposition(i, j, 2 * n)
            assert sigma == out.sigma

    def test_windows_between_adjacent_spin_indices(self):
        # each switch window sits between adjacent members of the running
        # spin set (with 0 and the mirror bound as sentinels)
        for r in all_refinements(3):
            current = r
            while not is_B_spin(current):
                X = spin_set(current)
                i, j, current = improve_spin_step(current)
                above = sorted(m for m in X if m > i - 1)
                k = (2 * 3 - i) if not above else above[0]
                assert i + 1 <= j <= k
