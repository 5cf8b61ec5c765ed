import itertools
import random
import resource

import pytest

from spinref import parabolic
from spinref.parabolic import (NotSpinError, RankMemoryError, SpinParabolic, all_spin_parabolics,
                               format_xp, parse_composition, pure_basis_weights,
                               pure_parabolic_dim, weight_in_parabolic_coset)
from spinref.rootdata import PureWeight

LAM = PureWeight.from_coeffs((12, 1, -1, -12))


def unlimited(monkeypatch):
    """Patch getrlimit to report no soft or hard limit, as in an unlimited shell."""
    monkeypatch.setattr(resource, "getrlimit",
                        lambda limit: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))


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
        with pytest.raises(RankMemoryError, match=r"^n=5 needs 600 bytes for the Levi of its "
                                                  r"composition, more than the 400 bytes of "
                                                  r"memory this process may use$"):
            SpinParabolic.from_composition((1, 4, 4, 1))
        # the palindrome is checked first
        with pytest.raises(NotSpinError):
            SpinParabolic.from_composition((1, 3, 6))

    @pytest.mark.parametrize("files, expected", [
        # cgroup v2: the process's memory.max, or the lowest of its parents'
        ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "1000000\n"},
         1000000),
        ({"/proc/self/cgroup": "0::/box/inner\n", "/sys/fs/cgroup/box/inner/memory.max": "max\n",
          "/sys/fs/cgroup/box/memory.max": "3000000\n", "/sys/fs/cgroup/memory.max": "max\n"},
         3000000),
        # "max", garbage or no limit file: physical memory
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "max\n"}, 4096000),
        ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "lots\n"}, 4096000),
        ({"/proc/self/cgroup": "0::/box\n"}, 4096000),
        ({}, 4096000),
        # a limit above physical memory
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "9999999\n"}, 4096000),
        # cgroup v1: the memory hierarchy's limit_in_bytes, the other
        # controllers and malformed lines ignored
        ({"/proc/self/cgroup": "5:cpu,cpuacct:/a\n4:memory:/a/b\nbad line\n3:memory:x\n",
          "/sys/fs/cgroup/memory/a/b/memory.limit_in_bytes": "9223372036854771712\n",
          "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "2000000\n",
          "/sys/fs/cgroup/cpu,cpuacct/a/memory.limit_in_bytes": "1\n"},
         2000000),
        # a hybrid layout: the smaller of both
        ({"/proc/self/cgroup": "4:memory:/a\n0::/a\n",
          "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "2500000\n",
          "/sys/fs/cgroup/a/memory.max": "1500000\n"},
         1500000),
    ])
    def test_physical_memory_honours_the_cgroup_limit(self, monkeypatch, files, expected):
        unlimited(monkeypatch)
        reads = []

        def read(path):
            reads.append(path)
            return files.get(path)

        monkeypatch.setattr(parabolic, "_read_text", read)
        monkeypatch.setattr(parabolic.os, "sysconf",
                            {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.__getitem__)
        parabolic.physical_memory.cache_clear()
        try:
            assert parabolic.physical_memory() == expected
            # read once per process
            count = len(reads)
            assert parabolic.physical_memory() == expected and len(reads) == count
        finally:
            parabolic.physical_memory.cache_clear()

    def test_physical_memory_without_sysconf(self, monkeypatch):
        def no_sysconf(name):
            raise ValueError(name)

        files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "1000000\n"}
        monkeypatch.setattr(parabolic.os, "sysconf", no_sysconf)
        unlimited(monkeypatch)
        parabolic.physical_memory.cache_clear()
        try:
            monkeypatch.setattr(parabolic, "_read_text", files.get)
            assert parabolic.physical_memory() == 1000000
            parabolic.physical_memory.cache_clear()
            monkeypatch.setattr(parabolic, "_read_text", {}.get)
            assert parabolic.physical_memory() is None
        finally:
            parabolic.physical_memory.cache_clear()

    @pytest.mark.parametrize("name", ["RLIMIT_AS", "RLIMIT_DATA"])
    def test_physical_memory_honours_the_soft_rlimit(self, monkeypatch, name):
        # a soft limit below physical memory and the cgroup limit; the hard
        # limit, above both, is not read
        files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "3000000\n"}
        monkeypatch.setattr(parabolic, "_read_text", files.get)
        monkeypatch.setattr(parabolic.os, "sysconf",
                            {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.__getitem__)
        soft = {getattr(resource, name): 2000000}
        monkeypatch.setattr(resource, "getrlimit", lambda limit: (
            soft.get(limit, resource.RLIM_INFINITY), 8000000))
        parabolic.physical_memory.cache_clear()
        try:
            assert parabolic.physical_memory() == 2000000
        finally:
            parabolic.physical_memory.cache_clear()

    @pytest.mark.parametrize("name, mapped, expected", [
        ("RLIMIT_AS", "VmSize:\t    1000 kB", 2000000 - 1024000),
        ("RLIMIT_DATA", "VmData:\t     500 kB", 2000000 - 512000),
        ("RLIMIT_AS", "VmSize:\t    3000 kB", 0),
        ("RLIMIT_AS", "VmData:\t    1000 kB", 2000000),
    ])
    def test_soft_rlimit_less_what_is_mapped(self, monkeypatch, name, mapped, expected):
        # RLIMIT_AS counts VmSize and RLIMIT_DATA counts VmData from
        # /proc/self/status; what is left is floored at 0
        files = {"/proc/self/status": f"Name:\tpython3\n{mapped}\nVmRSS:\t     900 kB\n"}
        monkeypatch.setattr(parabolic, "_read_text", files.get)
        monkeypatch.setattr(parabolic.os, "sysconf",
                            {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.__getitem__)
        soft = {getattr(resource, name): 2000000}
        monkeypatch.setattr(resource, "getrlimit", lambda limit: (
            soft.get(limit, resource.RLIM_INFINITY), 8000000))
        parabolic.physical_memory.cache_clear()
        try:
            assert parabolic.physical_memory() == expected
        finally:
            parabolic.physical_memory.cache_clear()

    def test_read_text_of_a_missing_file_is_none(self, tmp_path):
        assert parabolic._read_text(str(tmp_path / "missing")) is None
        (tmp_path / "limit").write_text("123\n")
        assert parabolic._read_text(str(tmp_path / "limit")) == "123\n"

    def test_huge_composition_refused_before_delta(self, monkeypatch):
        def build(parts):
            raise AssertionError("delta built")

        monkeypatch.setattr(parabolic, "composition_delta", build)
        with pytest.raises(NotSpinError, match=r"^composition \(1, 2, 1000"):
            SpinParabolic.from_composition((1, 2, 10 ** 4000 + 1))
        with pytest.raises(RankMemoryError,
                           match=r"^n above 10\^60 needs over 10\^60 bytes for the Levi"):
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
                    assert (p.delta <= q.delta) == (q.xp <= p.xp)

    def test_parse_and_label(self):
        assert parse_composition("1,2,1") == (1, 2, 1)
        assert SpinParabolic.borel(2).label() == "B"
        assert SpinParabolic.from_composition((2, 2)).label() == "2,2"
        assert format_xp(frozenset({3, 1})) == "{1,3}"


class TestStaircase:
    def test_22(self):
        assert SpinParabolic.from_composition((2, 2)).staircase_cochar().coeffs == \
            (1, 1, 0, 0)

    def test_121(self):
        assert SpinParabolic.from_composition((1, 2, 1)).staircase_cochar().coeffs == \
            (2, 1, 1, 0)

    def test_full_group_zero(self):
        assert SpinParabolic.from_xp((), 2).staircase_cochar().coeffs == (0,) * 4

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
                    if q.delta <= p.delta:
                        assert weight_in_parabolic_coset(lam, zero, q)
        assert hits > 0

    def test_membership_not_inherited_upward(self):
        zero = PureWeight.from_coeffs((0,) * 4)
        lam = PureWeight.from_coeffs((1, 1, -1, -1))
        q = SpinParabolic.from_composition((2, 2))
        g = SpinParabolic.from_xp((), 2)
        assert weight_in_parabolic_coset(lam, zero, q)
        assert q.delta <= g.delta
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
                pure_parabolic_dim(SpinParabolic.from_xp((), n)) == n


class TestAlphaBasis:
    def test_basis_shapes(self):
        basis = pure_basis_weights(2)
        assert basis == [(1, 1, 1, 1), (1, 0, 0, -1), (1, 1, 0, 0)]
