import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from spinref import cli, intertwine, refine
from spinref.cli import main, parse_refinement_report, refinement_report
from spinref.parabolic import all_spin_parabolics
from spinref.weyl import Perm, format_one_line

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_golden_table_n2(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2")
        assert code == 0
        golden = (DATA / "classify_n2_table.txt").read_text()
        assert out == golden

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 24
        by_label = {row["parabolic"]: row for row in payload["strata"]}
        assert by_label["B"]["size"] == 8 and by_label["B"]["dim"] == 3
        assert by_label["1,2,1"]["size"] == 0
        assert by_label["2,2"]["members"][0] == "1243"

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parabolic,xp,dim,size,members"
        assert len(lines) == 5

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "6")
        assert code == 2
        assert "bound" in err

    def test_bound_override(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--bound", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["total"] == 720

    def test_rank_validated(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "0")
        assert code == 1 and ">= 1" in err

    def test_memory_refusal(self, capsys, monkeypatch):
        # n = 3 needs 6! * 6 = 4320 bytes of stratum buffers
        monkeypatch.setattr(refine, "_physical_memory", lambda: 4319)
        code, out, err = run(capsys, "classify", "--n", "3")
        assert code == 2 and out == ""
        assert err == ("error: n=3 needs 4320 bytes of stratum buffers, more than the "
                       "4319 bytes of physical memory\n")
        # (2000)! * 2000 has more digits than str() of an int allows
        assert run(capsys, "classify", "--n", "1000", "--bound", "1000") == (
            2, "", "error: n=1000 needs (2000)! * 2000 bytes of stratum buffers, more than "
                   "the 4319 bytes of physical memory\n")
        # below 10^60 the figure is exact, however small the memory
        assert run(capsys, "classify", "--n", "20", "--bound", "20") == (
            2, "", f"error: n=20 needs {factorial(40) * 40} bytes of stratum buffers, "
                   f"more than the 4319 bytes of physical memory\n")
        # (400000)! * 400000 multiplied out took over a second; the product
        # stops once it passes both the memory figure and 10^60
        start = time.perf_counter()
        assert run(capsys, "classify", "--n", "200000", "--bound", "200000") == (
            2, "", "error: n=200000 needs (400000)! * 400000 bytes of stratum buffers, "
                   "more than the 4319 bytes of physical memory\n")
        assert time.perf_counter() - start < 0.5
        monkeypatch.setattr(refine, "_physical_memory", lambda: 4320)
        code, out, _ = run(capsys, "classify", "--n", "3", "--format", "json")
        assert code == 0 and json.loads(out)["total"] == 720

    def test_g_count_mismatch_exits_6_before_output(self, capsys, monkeypatch):
        wrong = refine.stratum_counts(3)
        wrong[frozenset()] -= 1
        monkeypatch.setattr(refine, "stratum_counts", lambda n: wrong)
        for fmt in ("table", "json", "csv"):
            assert run(capsys, "classify", "--n", "3", "--format", fmt) == (
                6, "", "error: internal self-check failed: stratum G has 384 members, "
                       "closed form 383\n")

    # SHA-256 of stdout as produced by the per-member implementation that
    # built a Perm for every refinement; the output must not change.
    PINNED = {
        (3, "table"): "2b2ac1730281947428254d00423d61aebdd209439f0d0190827bc574b4bd1872",
        (3, "json"): "2cb4e2334d060da8e115390ded5e509647ae13c789b520af498885664e1b6ca6",
        (3, "csv"): "bcc7225e478442ab625e5103429c05f1e3c670b8f770c2e37bef9108495f05c1",
        (4, "table"): "ee6febf34026ee59c2d19d42d80f129e12c9441d0e4814d5994f0a1bb2af5e1a",
        (4, "json"): "f0c2cbd93fd04efdf5da6e0a70fe6c76e3704e7b9c4ef1910bc3ea0cd6bf7e02",
        (4, "csv"): "44ac8a4debb8973e0e68a9985b1bb5170b6e4b9fdd1c1e1a8b3fe12e14d6b531",
    }

    @pytest.mark.parametrize("n,fmt", sorted(PINNED))
    def test_pinned_digest(self, capsys, n, fmt):
        code, out, _ = run(capsys, "classify", "--n", str(n), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[n, fmt]

    def test_pinned_digest_n5_csv(self, monkeypatch):
        # The largest default rank, and the only one whose members hold
        # commas (degree 10), so the CSV field is quoted; 76 MB are hashed as
        # they are written instead of captured.
        class HashingStdout:
            def __init__(self):
                self.digest = hashlib.sha256()

            def write(self, text):
                self.digest.update(text.encode())
                return len(text)

        sink = HashingStdout()
        monkeypatch.setattr("sys.stdout", sink)
        assert main(["classify", "--n", "5", "--format", "csv"]) == 0
        assert sink.digest.hexdigest() == \
            "e2e4122cdca152e644007dcf2861a5e36846a575f657d9f52adcd24d19fd95bb"

    # Runs python with the given arguments and stdout to /dev/null, then
    # prints its exit code and peak RSS.  A fresh interpreter forks the run:
    # a child forked from the test process would start with the test
    # process's RSS as its peak.
    PEAK_RSS = """if True:
        import os, sys
        pid = os.fork()
        if pid == 0:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
        _, status, usage = os.wait4(pid, 0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
    """

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_rss_n5(self):
        # G, 77.5 % of the 10! words, is held as references to shared tails,
        # not copied: the run peaked about 18 MB above the import alone, and
        # about 40 MB when G was one buffer
        def peak_kib(*argv):
            proc = subprocess.run([sys.executable, "-c", self.PEAK_RSS, *argv],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=60,
                                  preexec_fn=_cap_address_space)
            code, kib = map(int, proc.stdout.split())
            assert code == 0
            return kib

        base = peak_kib("-c", "import spinref.cli")
        excess = peak_kib("-m", "spinref", "classify", "--n", "5", "--format", "csv") - base
        assert excess <= 32 * 1024, f"{excess / 1024:.1f} MB above the import"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_pinned_digest_written_in_small_blocks(self, capsys, monkeypatch, fmt):
        # at 1 member a block, every chunk of G (up to 3! members) is sliced
        for members in (7, 1):
            monkeypatch.setattr(cli, "MEMBERS_PER_WRITE", members)
            code, out, _ = run(capsys, "classify", "--n", "3", "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[3, fmt]

    def test_blocks_rejoin_to_the_chunks(self):
        rng = random.Random(5)
        for _ in range(2000):
            size = rng.randint(1, 12)
            chunks = [rng.randbytes(rng.choice([0, 1, 5, size, size + 1, 3 * size + 2]))
                      for _ in range(rng.randint(0, 6))]
            blocks = list(cli._blocks(chunks, size))
            assert b"".join(blocks) == b"".join(chunks)
            assert all(0 < len(block) <= size for block in blocks)

    @pytest.mark.parametrize("N", [2, 4, 8, 10, 12, 14])
    @pytest.mark.parametrize("sep", [" ", '", "'])
    def test_bulk_one_line_matches_format_one_line(self, N, sep):
        rng = random.Random(N)
        perms = [Perm(tuple(rng.sample(range(1, N + 1), N))) for _ in range(50)]
        words = b"".join(bytes(p.images) for p in perms)
        assert cli._joined_one_line(words, N, sep) == \
            sep.join(format_one_line(p) for p in perms)
        assert cli._joined_one_line(b"", N, sep) == ""


class TestInfo:
    def test_216345(self, capsys):
        code, out, _ = run(capsys, "info", "--sigma", "216345")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal"] == "1,4,1"
        assert payload["spin_set"] == [1]

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "info", "--sigma", "1234")
        payload = json.loads(out)
        assert payload["optimal"] == "B" and payload["tau"] == []

    def test_2134(self, capsys):
        code, out, _ = run(capsys, "info", "--sigma", "2134")
        payload = json.loads(out)
        assert payload == {
            "sigma": "2134", "n": 2, "spin_set": [2], "gamma": [2, 1],
            "optimal": "2,2", "optimal_xp": [2], "dim": 2,
            "b_spin_target": "1234", "tau": [[1, 2]],
            "alpha_u": payload["alpha_u"],
        }
        assert payload["alpha_u"]["1"]["str"] == "p^{-3/2} * θ_2"

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "info", "--sigma", "2134")
        payload = json.loads(out)
        rebuilt = refinement_report(parse_refinement_report(payload))
        assert rebuilt == payload

    def test_malformed(self, capsys):
        code, _, err = run(capsys, "info", "--sigma", "21x4")
        assert code == 3 and "position 3" in err
        code, _, err = run(capsys, "info", "--sigma", "21435")
        assert code == 3
        # '²'.isdigit() holds, but int() refuses it
        assert run(capsys, "info", "--sigma", "1,²") == (
            3, "", "error: malformed permutation: position 2: '²' is not a digit\n")

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "info", "--sigma", "2134", "--format", "table")
        assert code == 0 and "optimal        2,2" in out


class TestSlopes:
    def test_gl4_first_triple(self, capsys):
        code, out, _ = run(capsys, "slopes", "--sigma", "1234",
                           "--lambda", "12,1,-1,-12", "--slopes", "1=11,2=0,3=11")
        assert code == 0
        assert "verdict: non-critical slope" in out

    def test_gl4_second_triple(self, capsys):
        code, out, _ = run(capsys, "slopes", "--sigma", "2134",
                           "--lambda", "12,1,-1,-12", "--slopes", "1=11,2=0,3=1")
        assert code == 0
        assert "verdict: non-critical slope" in out

    def test_equality_fails_naming_index(self, capsys):
        code, out, _ = run(capsys, "slopes", "--sigma", "1234",
                           "--lambda", "12,1,-1,-12", "--slopes", "1=12,2=0,3=11")
        assert code == 0
        assert "U_p,1: slope 12 < bound 12  VIOLATED" in out
        assert "critical" in out

    def test_missing_data(self, capsys):
        code, _, err = run(capsys, "slopes", "--sigma", "1234",
                           "--lambda", "12,1,-1,-12", "--slopes", "1=11")
        assert code == 4 and "U_{p,2}" in err

    def test_solve_flag(self, capsys):
        code, out, _ = run(capsys, "slopes", "--sigma", "1234",
                           "--lambda", "12,1,-1,-12", "--slopes", "1=11,2=0,3=11",
                           "--solve", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["solve"]["status"] == "unique"
        assert payload["solve"]["t"] == ["1/2", "-23/2", "23/2", "-1/2"]

    def test_non_dominant_weight_rejected(self, capsys):
        code, _, err = run(capsys, "slopes", "--sigma", "1234",
                           "--lambda", "0,1,-1,0", "--slopes", "1=0,2=0,3=0")
        assert code == 1 and "dominant" in err

    @pytest.mark.parametrize("extra", [(), ("--solve",)])
    def test_index_out_of_range(self, capsys, extra):
        # the audit and the solve refuse the stray index alike
        code, out, err = run(capsys, "slopes", "--sigma", "1234", "--lambda", "12,1,-1,-12",
                             "--slopes", "1=11,2=0,3=11,9=5", *extra)
        assert code == 1 and out == ""
        assert err == "error: slope index 9 outside 1..4\n"

    @pytest.mark.parametrize("extra", [(), ("--solve",)])
    def test_duplicate_index(self, capsys, extra):
        code, out, err = run(capsys, "slopes", "--sigma", "1234", "--lambda", "12,1,-1,-12",
                             "--slopes", "1=1,2=0,3=11,1=2", *extra)
        assert code == 4 and out == ""
        assert err == "error: duplicate slope index 1\n"

    @pytest.mark.parametrize("sigma, weight, slopes, extra, code, message", [
        ("1234", "a,b,c,d", "1=1", (), 1, "bad weight 'a,b,c,d': integers expected"),
        ("1234", "3,1,0,-3", "1=1", (), 1, "bad weight: weight (3, 1, 0, -3) is not pure"),
        ("1234", "3,1,-1,-3", "1", (), 4, "bad slope entry '1': expected index=value"),
        ("1234", "3,1,-1,-3", "1=x", (), 4,
         "bad slope entry '1=x': Invalid literal for Fraction: 'x'"),
        ("1234", None, "1=1", (), 4, "slopes needs --lambda"),
        ("1234", "3,1,-1,-3", None, (), 4, "slopes needs --slopes"),
        ("123456", "3,1,-1,-3", "1=1", (), 1, "weight and permutation ranks differ"),
        ("1234", "3,1,-1,-3", "1=1,2=1,3=1", ("--parabolic", "1,1,1,1,1,1"), 1,
         "composition '1,1,1,1,1,1' is for GL(6), expected GL(4)"),
        ("1234", "3,1,-1,-3", "1=1e5000,2=0,3=0", (), 4,
         "bad slope entry '1=1e5000': exponent notation is not accepted"),
        ("1234", "3,1,-1,-3", "1=0,2=-2.5E-1,3=0", (), 4,
         "bad slope entry '2=-2.5E-1': exponent notation is not accepted"),
    ])
    def test_rejected_input(self, capsys, sigma, weight, slopes, extra, code, message):
        argv = ["slopes", "--sigma", sigma, *extra]
        if weight is not None:
            argv.append(f"--lambda={weight}")
        if slopes is not None:
            argv += ["--slopes", slopes]
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_value_grammar(self, capsys):
        code, out, _ = run(capsys, "slopes", "--sigma", "1234", "--lambda=3,1,-1,-3",
                           "--slopes", "1=3/2,2=2.5,3=-7", "--format", "json")
        assert code == 0
        assert [row["slope"] for row in json.loads(out)["rows"]] == ["3/2", "5/2", "-7"]


class TestMTau:
    def test_borel_n2(self, capsys):
        code, out, _ = run(capsys, "mtau", "--parabolic", "1,1,1,1")
        assert code == 0
        assert "[12]  1" in out
        assert "prenormalization factor: 1" in out

    def test_q_json(self, capsys):
        code, out, _ = run(capsys, "mtau", "--parabolic", "2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["expansion"] == {"12": "1"}
        assert "θ_3" in payload["prenormalization"]

    def test_outside_q_rejected(self, capsys):
        code, _, err = run(capsys, "mtau", "--parabolic", "1,4,1")
        assert code == 5 and "(n,n)" in err

    def test_rank_cross_check(self, capsys):
        code, _, err = run(capsys, "mtau", "--parabolic", "2,2", "--n", "3")
        assert code == 1 and "disagrees" in err

    def test_bound_exceeded(self, capsys):
        code, out, err = run(capsys, "mtau", "--parabolic", "1,1,1,1,1,1,1,1,1,1")
        assert code == 2 and out == ""
        assert err == "error: n=5 exceeds the mtau bound 4; raise the bound explicitly\n"

    def test_bound_override(self, capsys):
        code, _, _ = run(capsys, "mtau", "--parabolic", "3,3", "--bound", "2")
        assert code == 2
        code, out, _ = run(capsys, "mtau", "--parabolic", "5,5", "--bound", "5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["expansion"] == {"12345": "1"}

    # SHA-256 of stdout as produced with tuple-keyed monomials and equality
    # by cross-multiplication: every spin parabolic inside (n,n) at n = 3,
    # and the Borel at n = 4.  The output must not change.
    PINNED = {
        ("1,1,1,1,1,1", "json"): "af1fc3ac2a5b0b764d5481c8df21106032ad2a0acb1f667e9b0db71a9b0981d1",
        ("1,1,1,1,1,1", "table"): "4af33fb724e8ef42bead1c5c0d90cb02d03d144b9670a2f3b5457f88e8b76a36",
        ("1,2,2,1", "json"): "f192aeb0567b4027131051181f86598d67580eda0be921ad4ced2395b7a3c188",
        ("1,2,2,1", "table"): "657c966420cb430c2e211df55e4d478e2bd1deef4b1f056aa1640d06f484fc6e",
        ("2,1,1,2", "json"): "525e031983c444cb7f6a0eabb25aed86e55151bdc9e9c838da64618cb151535a",
        ("2,1,1,2", "table"): "a03937697dc4644d54b5cdd1d9114f9586a035e2f9043068a134af49774dca37",
        ("3,3", "json"): "a3075954b23ef3963cd88a84a31ba79267e2aa5c5f5c5534e3e1a4cd5efc0c39",
        ("3,3", "table"): "dc040f4d0603fe66f7298ad1cb4ba03ade84fe7bdf12c112530409f9890d4164",
        ("1,1,1,1,1,1,1,1", "json"):
            "77890f3411209aa79495c3b6ae3e810c082f8c3f8ca0bd676f7778febecf4af7",
        ("1,1,1,1,1,1,1,1", "table"):
            "b669be2a0534f50f4efb5793655084ed10c99c9f695698bc4cdc90fececf1616",
    }

    @pytest.mark.parametrize("comp,fmt", sorted(PINNED))
    def test_pinned_digest(self, capsys, comp, fmt):
        code, out, _ = run(capsys, "mtau", "--parabolic", comp, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[comp, fmt]


class TestZeta:
    def test_22(self, capsys):
        code, out, _ = run(capsys, "zeta", "--parabolic", "2,2")
        assert code == 0 and "no forced vanishing" in out

    def test_121(self, capsys):
        code, out, _ = run(capsys, "zeta", "--parabolic", "1,2,1")
        assert code == 0 and "verdict: forced vanishing" in out

    def test_non_spin(self, capsys):
        code, _, err = run(capsys, "zeta", "--parabolic", "1,3,2")
        assert code == 5 and "not symmetric" in err

    @pytest.mark.parametrize("text", [",,", "1,x"])
    def test_malformed_composition_named_once(self, capsys, text):
        code, out, err = run(capsys, "zeta", "--parabolic", text)
        assert (code, out) == (1, "")
        assert err == f"error: bad composition {text!r}: parts must be integers\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "zeta", "--parabolic", "1,2,1",
                           "--beta", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["forced_vanishing"] is True
        assert payload["antidiagonal_exponents"] == [-2, 2]

    def test_beta_validated(self, capsys):
        code, _, err = run(capsys, "zeta", "--parabolic", "2,2", "--beta", "0")
        assert code == 1 and "positive" in err

    def test_memory_refusal(self, capsys, monkeypatch):
        # (3,3) at beta 1: delta's 4 indices and the 2 blocks at 100 bytes,
        # and per unit of n 32 + 4 * (8 + 32) + 2 * (64 + 1 + 1) = 324 for
        # exponents of 3 bits (2 * beta * blocks = 4): 600 + 3 * 324 = 1572
        monkeypatch.setattr(intertwine, "_physical_memory", lambda: 1571)
        assert run(capsys, "zeta", "--parabolic", "3,3") == (
            2, "", "error: zeta at n=3 needs about 1572 bytes, more than the 1571 bytes "
                   "of physical memory\n")
        monkeypatch.setattr(intertwine, "_physical_memory", lambda: 1572)
        code, out, _ = run(capsys, "zeta", "--parabolic", "3,3")
        assert code == 0 and "no forced vanishing" in out
        # a beta of 300 digits makes the exponents ints of 999 bits: per unit
        # of n, 32 + 4 * (8 + 32 + 4 * 33) + 2 * (64 + 333 + 1) = 1516
        monkeypatch.setattr(intertwine, "_physical_memory", lambda: 5000)
        assert run(capsys, "zeta", "--parabolic", "3,3", "--beta", "9" * 300) == (
            2, "", "error: zeta at n=3 needs about 5148 bytes, more than the 5000 bytes "
                   "of physical memory\n")


def query_requests(kind, n, fmt):
    """A fixed seeded set of six query requests of one kind, rank and format.

    slopes requests solve every shape of declared slopes: all 2n, the
    Borel's 1..2n-1, and a random parabolic's indices plus random extras;
    the last three of the six have one slope perturbed.
    """
    rng = random.Random(f"{kind}/{n}/{fmt}")
    N = 2 * n
    compositions = [p.composition for p in all_spin_parabolics(n)]
    requests = []
    for shape in range(6):
        images = rng.sample(range(1, N + 1), N)
        if N <= 9 and rng.random() < 0.5:
            sigma = "".join(map(str, images))
        else:
            sigma = ",".join(map(str, images))
        if kind == "info":
            requests.append(["info", "--sigma", sigma, "--format", fmt])
        elif kind == "zeta":
            requests.append(["zeta", "--parabolic", ",".join(map(str, rng.choice(compositions))),
                             "--beta", str(rng.randint(1, 3)), "--format", fmt])
        else:
            sw = rng.randint(-3, 3)
            upper = [-(-sw // 2) + rng.randint(0, 2)]
            for _ in range(n - 1):
                upper.append(upper[-1] + rng.randint(0, 4))
            upper.reverse()
            lam = upper + [sw - v for v in reversed(upper)]
            eta = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            half = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
            t = half + [eta - v for v in reversed(half)]
            extra = []
            if shape % 3 == 0:
                declared = range(1, N + 1)
            elif shape % 3 == 1:
                declared = range(1, N)
            else:
                comp = rng.choice(compositions)
                delta = {sum(comp[:i]) for i in range(1, len(comp))}
                declared = sorted(delta | set(rng.sample(range(1, N + 1), rng.randint(0, n))))
                extra = ["--parabolic", ",".join(map(str, comp))]
            # the slope formula: sum of t over sigma(1..k), plus lambda_1..k, less k(2n-k)/2
            slopes = {k: sum(t[images[j] - 1] for j in range(k)) + sum(lam[:k])
                      - Fraction(k * (N - k), 2) for k in declared}
            if shape >= 3:
                k = rng.choice(sorted(slopes))
                slopes[k] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
            requests.append(["slopes", "--sigma", sigma, "--lambda=" + ",".join(map(str, lam)),
                             "--slopes", ",".join(f"{k}={v}" for k, v in sorted(slopes.items())),
                             *extra, "--solve", "--format", fmt])
    return requests


class TestQueries:
    # SHA-256 of the stdout of each group of query_requests, concatenated,
    # as produced by the per-call parser and Fraction elimination.  The
    # output must not change.
    PINNED = {
        ("info", 2, "json"): "327c4692f136cf8905bb6a5e88eede88732cd96eec5ef7a29588221d8725a089",
        ("info", 2, "table"): "4302adb4a9daadf4188683a3d158ac75839f9300dd91662c573e4180c304073a",
        ("info", 3, "json"): "5482a13c0367b369707fa130e5341e79e9a9d21771b266b32477683cf5b07a52",
        ("info", 3, "table"): "692d744d373566f4db9970db9c40971fcc3fb6af4c46c661da933630b4030311",
        ("info", 4, "json"): "03f91bc9a357ed9138f5178e8d5031d5eca3a82cf67c4fe781d6c33cad637a0d",
        ("info", 4, "table"): "80c21dbb484dac9bfb854f9402cc880c7513e02378214dc4d42b5c9af93d2b0c",
        ("info", 5, "json"): "0a08838121fa6fdb9e9a5c4bc58888df5b684361184834223320d771dff159b1",
        ("info", 5, "table"): "597eba66476be8f2f1f2cce43a4107c62246e9e3dbc7ab0597cb7ca4015d9e6c",
        ("slopes", 2, "json"): "786e7dad24454ef3c86994cb9ea43f3cd65d9055197b4ed5259c0214e072e866",
        ("slopes", 2, "table"): "894e8c4fd350914e88255ea9d151a0d6b8da0cbd28d71ed12510a1622aa1366c",
        ("slopes", 3, "json"): "60bfbb3ac067006a6cadb07f20495c162c29334f9dc255b1c3774d0b777834ae",
        ("slopes", 3, "table"): "8cdbe847abe3b72a374f7ba8b547430af173638a89288438640f00d89fef9e90",
        ("slopes", 4, "json"): "327f78e6359a00ac248a4c2eb7d568fa0b802363ae0dbaf4428c9387acc400f2",
        ("slopes", 4, "table"): "543693a4ad645fa6567a642962b27f6e7cdbfec0e2af91b6d3662fb27251aef8",
        ("slopes", 5, "json"): "168bd47e09e41e3b2bcf66342efb575bf80171f1ecf5bc993a8e7d81fdb16149",
        ("slopes", 5, "table"): "01e135dfccb4ca3e3219281681b10355119fc3a34490600a79bd14ac452e64a9",
        ("zeta", 2, "json"): "0e9f869221d18d740363a875f06ea48c91dfa07009cd3ff2b9544cdb36ee85f9",
        ("zeta", 2, "table"): "765d6d744da5d40d9725015e386911a8db51bb1e31fa0b9984f00455a93763d6",
        ("zeta", 3, "json"): "231bd9d7a71e89706b9f95618bad291830df846f372ea266a74dc101df2ce850",
        ("zeta", 3, "table"): "045c64d511c189be86821bc0f6e5dffaf2b67d9c194d585fd1d6fed2dc012741",
        ("zeta", 4, "json"): "1826becd476def45d39269779dc2253da80911f432b8cbf7de266e9dbd7dfbe4",
        ("zeta", 4, "table"): "5301eec798eb125bb7128f6cc37f16f21e9972bb2e9402741579fe4a57142ab2",
        ("zeta", 5, "json"): "9429473fa9abf38aac05f0bd1b67be674c315a2ef894818d1988c71730c94c0e",
        ("zeta", 5, "table"): "8da940eeb4bc204d8f90a79891c6a469d7bdf111b33b887ded1db12d61aebf82",
    }

    @pytest.mark.parametrize("kind,n,fmt", sorted(PINNED))
    def test_pinned_digest(self, capsys, kind, n, fmt):
        digest = hashlib.sha256()
        for argv in query_requests(kind, n, fmt):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            digest.update(out.encode())
        assert digest.hexdigest() == self.PINNED[kind, n, fmt]

    def test_slopes_cover_every_status(self, capsys):
        # the pinned slopes requests reach all three outcomes of the solve
        statuses = set()
        for n in range(2, 6):
            for argv in query_requests("slopes", n, "json"):
                _, out, _ = run(capsys, *argv)
                statuses.add(json.loads(out)["solve"]["status"])
        assert statuses == {"unique", "family", "inconsistent"}


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestUsageErrors:
    """argparse's usage errors exit 1; exit 2 is left to exceeded rank bounds."""

    def test_missing_required_argument(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert "--n" in err and "usage" not in err

    def test_invalid_format_choice(self, capsys):
        code, out, err = run(capsys, "classify", "--n", "2", "--format", "xml")
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert "'xml'" in err and "usage" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["mtau", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


ONES = "1" * 5000
SLOPES = ["slopes", "--sigma", "1234", "--lambda=3,1,-1,-3", "--slopes"]


class TestLongInput:
    """An error line quotes at most cli.QUOTE_CAP characters of an input value."""

    @pytest.mark.parametrize("code, argv", [
        (4, [*SLOPES, f"1={ONES},2=0,3=0"]),
        (4, [*SLOPES, "1=" + "x" * 5000]),
        (4, [*SLOPES, "x" * 5000 + "=1"]),
        (1, [*SLOPES, "1" * 4000 + "=1"]),
        (1, ["slopes", "--sigma", "1234", f"--lambda={ONES},1,-1,-3", "--slopes", "1=0"]),
        (1, ["zeta", "--parabolic", ONES]),
        (3, ["info", "--sigma", f"1,{ONES}"]),
        (3, ["info", "--sigma", "1," + "x" * 5000]),
        (1, ["classify", "--n", ONES]),
        (1, ["classify", "--n", "2", "--bound", ONES]),
        (1, ["mtau", "--parabolic", "2,2", "--bound", ONES]),
        (1, ["zeta", "--parabolic", "2,2", "--beta", ONES]),
        (1, ["classify", "--n", "-" + "1" * 4000]),
        (1, ["classify", "--n", "2", "--format", "x" * 5000]),
        (1, ["classify", "--n", "2", "y" * 5000]),
    ])
    def test_one_short_line(self, capsys, code, argv):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert_one_error_line(err)
        assert len(err) < 200 and "set_int_max_str_digits" not in err

    def test_digit_limit_named(self, capsys):
        _, _, err = run(capsys, "zeta", "--parabolic", "2,2", "--beta", ONES)
        assert err == (f"error: argument --beta: invalid int value: '{ONES[:cli.QUOTE_CAP]}…' "
                       f"(more than {sys.get_int_max_str_digits()} digits)\n")

    def test_zero_denominator_named(self, capsys):
        assert run(capsys, *SLOPES, "1=1/0") == (
            4, "", "error: bad slope entry '1=1/0': zero denominator\n")

    def test_short_int_option_keeps_argparse_text(self, capsys):
        assert run(capsys, "classify", "--n", "12x") == (
            1, "", "error: argument --n: invalid int value: '12x'\n")


class TestParserReuse:
    """main parses every call with one parser, built on the first call."""

    SEQUENCE = [
        ["classify", "--n", "two"],
        ["--help"],
        ["classify", "--n", "2", "--format", "csv"],
        ["info", "--sigma", "2134", "--format", "table"],
        ["slopes", "--sigma", "1234", "--lambda", "12,1,-1,-12", "--slopes", "1=11,2=0,3=11",
         "--parabolic", "2,2", "--solve", "--format", "json"],
        ["slopes", "--sigma", "2134", "--lambda", "12,1,-1,-12", "--slopes", "1=11,2=0,3=1"],
        ["zeta", "--parabolic", "1,2,1", "--beta", "2"],
        ["zeta", "--parabolic", "1,2,1"],
        ["mtau", "--parabolic", "2,2", "--format", "json"],
        ["mtau", "--parabolic", "2,2"],
        ["info", "--sigma", "2134"],
        ["classify", "--n", "2"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_outputs_equal_first_calls(self, capsys):
        first = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            first.append(self.call(capsys, argv))
        cli._parser.cache_clear()
        assert [self.call(capsys, argv) for argv in self.SEQUENCE] == first
        assert cli._parser.cache_info().misses == 1
        codes = [code for code, _, _ in first]
        assert codes == [1] + [0] * (len(self.SEQUENCE) - 1)

    def test_no_flag_or_default_leaks(self, capsys):
        code, out, _ = self.call(capsys, self.SEQUENCE[4])
        assert code == 0 and json.loads(out)["solve"]["status"] == "unique"
        args = cli._parser().parse_args(self.SEQUENCE[5])
        assert (args.solve, args.format, args.parabolic) == (False, "table", None)
        code, out, _ = self.call(capsys, self.SEQUENCE[5])
        assert code == 0 and out.startswith("U_p,1: slope 11 < bound 12  ok\n")
        assert "profile solve" not in out
        args = cli._parser().parse_args(["zeta", "--parabolic", "2,2"])
        assert (args.beta, args.format) == (1, "table")

    def test_not_built_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", "import spinref.cli as c; print(c._parser.cache_info().misses)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout == "0\n"


class TestSelfCheckFailure:
    def test_info_switching_check(self, capsys, monkeypatch):
        # the switching step re-tests its result for the repaired spin index
        monkeypatch.setattr(refine, "is_r_spin", lambda r, k: False)
        code, out, err = run(capsys, "info", "--sigma", "2134")
        assert code == 6 and out == ""
        assert_one_error_line(err)
        assert "self-check failed: switch failed" in err

    def test_mtau_identity_coefficient_check(self, capsys, monkeypatch):
        # with every intertwining constant zero, the identity coset's
        # coefficient vanishes
        real = intertwine.c_s
        monkeypatch.setattr(intertwine, "c_s",
                            lambda a, twist: real(a, twist) - real(a, twist))
        code, out, err = run(capsys, "mtau", "--parabolic", "2,2")
        assert code == 6 and out == ""
        assert_one_error_line(err)
        assert "identity-coset coefficient vanished" in err


def _cap_address_space():
    # 1 GB: a regression that fills memory fails fast in the child alone
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestEntryPoint:
    def spinref(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "spinref", *argv], env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_cap_address_space)

    def test_zeta(self):
        proc = self.spinref("zeta", "--parabolic", "1,2,1")
        assert proc.returncode == 0 and "verdict: forced vanishing" in proc.stdout
        assert proc.stderr == ""

    def test_huge_exponent_refused_at_once(self):
        # expanding 10^100000000 would take minutes; the timeout turns a
        # regression into a failure instead of a hung suite
        proc = self.spinref("slopes", "--sigma", "1234", "--lambda=3,1,-1,-3",
                            "--slopes", "1=1e100000000,2=0,3=0")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("error: bad slope entry '1=1e100000000': "
                               "exponent notation is not accepted\n")

    # A part of 4000 digits: building its delta would fill memory, so these
    # inputs run only here, in a child with a timeout and a memory cap.
    HUGE = "1" * 4000

    def test_huge_non_palindromic_composition_refused_at_once(self):
        proc = self.spinref("zeta", "--parabolic", f"1,2,{self.HUGE}")
        assert proc.returncode == 5 and proc.stdout == ""
        assert proc.stderr == ("error: " + f"composition (1, 2, {self.HUGE}"[:cli.QUOTE_CAP]
                               + "…\n")

    @pytest.mark.parametrize("command", ["zeta", "mtau"])
    def test_huge_palindromic_composition_refused_at_once(self, command):
        proc = self.spinref(command, "--parabolic", f"{self.HUGE},{self.HUGE}")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: rank n above 10^60 needs more than the ")
        assert proc.stderr.endswith(" bytes of physical memory for the Levi of its composition\n")

    def test_malformed_permutation(self):
        proc = self.spinref("info", "--sigma", "1135")
        assert proc.returncode == 3 and proc.stdout == ""
        assert_one_error_line(proc.stderr)
