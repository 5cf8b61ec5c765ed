"""Inputs and output checks for the three benchmark workloads.

Everything here is independent of spinref: inputs are generated from the
workload seed, and outputs are checked against definitions recomputed
from scratch (the r-spin pairing condition, the closed-form stratum
counts, the slope formula), never by calling the library.

An operation is a dict:

* ``{"kind": k, "argv": [...], "timeout": s}`` runs ``spinref.cli.main(argv)``;
* ``{"kind": "certify", "n": n, "composition": [...], "timeout": s}`` compares
  ``m_tau_expansion`` with ``m_tau_expansion_oracle`` coefficient by
  coefficient.

``expect`` holds what the checker needs to know about the request.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from math import comb, factorial

# Exit codes documented in the spinref README.
EXIT_OK, EXIT_BOUND, EXIT_BAD_PERM, EXIT_MISSING_DATA, EXIT_NOT_SPIN = 0, 2, 3, 4, 5

QUERY_POOL = 12000  # distinct requests per queries stream; the stream then repeats
QUERY_RANKS = (2, 3, 4, 5)
QUERY_BLOCK = 100
# Share of each request class in the queries stream.  There is no usage data
# to weight by, so the three query commands get equal shares; a quarter of the
# slopes requests are perturbed to be inconsistent, and each of the four kinds
# of bad request is a small share.  With this mix op_p50_ms falls among the
# fast info and zeta requests and op_p99_ms among the slopes solves at n = 5.
# Every block of QUERY_BLOCK requests has these shares exactly, each class
# spread evenly over the ranks, so seeds differ in the requests, not the mix.
QUERY_MIX = (("info", 0.32), ("slopes", 0.24), ("slopes_bad", 0.08), ("zeta", 0.32),
             ("bad_perm", 0.01), ("missing_slopes", 0.01), ("not_spin", 0.01),
             ("bound", 0.01))


# ---------------------------------------------------------------------------
# Shared combinatorics, written from the definitions.
# ---------------------------------------------------------------------------

def one_line(images) -> str:
    """Canonical one-line notation: digits for 2n <= 9, comma-separated above."""
    sep = "" if len(images) <= 9 else ","
    return sep.join(str(v) for v in images)


def spin_set(images) -> set[int]:
    """All r in 1..n whose first r and last r values pair off to sum 2n+1."""
    N = len(images)
    return {r for r in range(1, N // 2 + 1)
            if set(images[:r]) == {N + 1 - v for v in images[N - r:]}}


def gamma_values(images) -> list[int]:
    """g(i) = 2n+1 - sigma^{-1}(2n+1 - sigma(i)) for i = 1..n."""
    N = len(images)
    position = {v: i + 1 for i, v in enumerate(images)}
    return [N + 1 - position[N + 1 - images[i]] for i in range(N // 2)]


def spin_compositions(n: int, inside_nn: bool = False) -> list[list[int]]:
    """Palindromic compositions of 2n, one per subset X of {1..n} (the breaks)."""
    out = []
    for mask in range(2 ** n):
        breaks = [r for r in range(1, n + 1) if mask >> (r - 1) & 1]
        if inside_nn and n not in breaks:
            continue
        half = [b - a for a, b in zip([0] + breaks, breaks)]
        middle = 2 * (n - (breaks[-1] if breaks else 0))
        out.append(half + ([middle] if middle else []) + half[::-1])
    return out


def stratum_counts(n: int) -> dict[frozenset[int], int]:
    """Closed-form size of every stratum of S_{2n}, keyed by its spin set.

    The permutations that are r-spin for every r in X = {r_1 < ... < r_k}
    number prod_j C(m_j, d_j) 2^{d_j} (d_j!)^2 * (2(n - r_k))!, with
    d_j = r_j - r_{j-1} and m_j = n - r_{j-1}; inclusion-exclusion over
    supersets turns these into exact stratum sizes.
    """
    subsets = [frozenset(r for r in range(1, n + 1) if mask >> (r - 1) & 1)
               for mask in range(2 ** n)]
    at_least = {}
    for x in subsets:
        total, prev = 1, 0
        for r in sorted(x):
            d, m = r - prev, n - prev
            total *= comb(m, d) * 2 ** d * factorial(d) ** 2
            prev = r
        at_least[x] = total * factorial(2 * (n - prev))
    return {x: sum((-1) ** (len(y) - len(x)) * at_least[y] for y in subsets if x <= y)
            for x in subsets}


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------

def classify_ops(seed: int) -> list[dict]:
    """The whole workload is one fixed request; the seed changes nothing."""
    return [{"kind": "classify", "argv": ["classify", "--n", "5", "--format", "csv"],
             "timeout": 150.0, "to_file": True, "expect": {"n": 5}}]


def mtau_ops(seed: int) -> list[dict]:
    """One pass: mtau JSON on every spin parabolic inside (n,n), n = 2..4, five
    times, with the oracle certifications that finish (n <= 3, and the Borel
    at n = 4) in between.  The repeats time each request at five points of
    the pass, so that one of them is likely to miss a slow spell of the host.

    Left out because they do not finish: certification of the other n = 4
    parabolics (over 100 s each) and mtau of the Borel at n = 5 (over 240 s).
    The inputs are fixed; the seed changes nothing.
    """
    requests, certs = [], []
    for n in (2, 3, 4):
        for comp in spin_compositions(n, inside_nn=True):
            label = ",".join(map(str, comp))
            requests.append({"kind": "mtau", "timeout": 60.0,
                             "argv": ["mtau", "--parabolic", label, "--format", "json"],
                             "expect": {"n": n, "composition": comp}})
            if n < 4 or comp == [1] * 8:
                certs.append({"kind": "certify", "n": n, "composition": comp,
                              "timeout": 90.0, "expect": {"n": n}})
    return requests + certs[:-1] + 2 * requests + certs[-1:] + 2 * requests


def _random_weight(rng: random.Random, n: int) -> list[int]:
    """A dominant pure weight: lambda_i + lambda_{2n+1-i} = sw, non-increasing."""
    sw = rng.randint(-3, 3)
    low = -(-sw // 2) + rng.randint(0, 2)
    upper = [low]
    for _ in range(n - 1):
        upper.append(upper[-1] + rng.randint(0, 3))
    upper.reverse()
    return upper + [sw - v for v in reversed(upper)]


def _slope_system(images, lam, slopes):
    """Rows (coeffs over t_1..t_2n, eta; rhs) of the slope formula plus purity."""
    N = len(images)
    n = N // 2
    rows = []
    for k, value in slopes.items():
        coeffs = [Fraction(0)] * (N + 1)
        for j in range(k):
            coeffs[images[j] - 1] += 1
        rows.append((coeffs, value - sum(lam[:k]) + Fraction(k * (N - k), 2)))
    for i in range(1, n + 1):
        coeffs = [Fraction(0)] * (N + 1)
        coeffs[i - 1] += 1
        coeffs[N - i] += 1
        coeffs[N] -= 1
        rows.append((coeffs, Fraction(0)))
    return rows


def _consistent(rows) -> bool:
    """Whether a linear system over Q has a solution (exact row reduction)."""
    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    for coeffs, rhs in rows:
        coeffs = list(coeffs)
        for col, prow, prhs in pivots:
            if coeffs[col]:
                f = coeffs[col] / prow[col]
                coeffs = [a - f * b for a, b in zip(coeffs, prow)]
                rhs -= f * prhs
        lead = next((c for c, a in enumerate(coeffs) if a), None)
        if lead is None:
            if rhs:
                return False
            continue
        pivots.append((lead, coeffs, rhs))
    return True


def _format_sigma(rng: random.Random, images) -> str:
    if len(images) <= 9 and rng.random() < 0.5:
        return "".join(map(str, images))
    return ",".join(map(str, images))


def _slopes_arg(slopes: dict[int, Fraction]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(slopes.items()))


def _query(rng: random.Random, kind: str, n: int) -> dict:
    N = 2 * n
    images = list(range(1, N + 1))
    rng.shuffle(images)
    sigma = _format_sigma(rng, images)
    expect = {"images": images, "code": EXIT_OK}
    if kind == "info":
        argv = ["info", "--sigma", sigma]
    elif kind in ("slopes", "slopes_bad", "missing_slopes"):
        lam = _random_weight(rng, n)
        eta = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        half = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)]
        t = half + [eta - v for v in reversed(half)]
        slopes = {k: sum(t[images[j] - 1] for j in range(k)) + sum(lam[:k])
                  - Fraction(k * (N - k), 2) for k in range(1, N + 1)}
        expect.update(lam=lam, consistent=True)
        if kind == "slopes_bad":
            # Perturb one slope so the system has no solution; the check is
            # made here by exact elimination, not by asking the program.
            for k in rng.sample(range(1, N + 1), N):
                trial = dict(slopes)
                trial[k] += Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                if not _consistent(_slope_system(images, lam, trial)):
                    slopes = trial
                    expect["consistent"] = False
                    break
        if kind == "missing_slopes":
            del slopes[rng.randint(1, N - 1)]
            expect["code"] = EXIT_MISSING_DATA
        expect["slopes"] = {str(k): str(v) for k, v in slopes.items()}
        argv = ["slopes", "--sigma", sigma, "--lambda=" + ",".join(map(str, lam)),
                "--slopes", _slopes_arg(slopes), "--solve", "--format", "json"]
    elif kind == "zeta":
        comp = rng.choice(spin_compositions(n))
        expect.update(composition=comp, beta=rng.randint(1, 3))
        argv = ["zeta", "--parabolic", ",".join(map(str, comp)),
                "--beta", str(expect["beta"]), "--format", "json"]
    elif kind == "bad_perm":
        bad = list(images)
        i, j = rng.sample(range(N), 2)
        bad[i] = bad[j]
        argv = ["info", "--sigma", ",".join(map(str, bad))]
        expect["code"] = EXIT_BAD_PERM
    elif kind == "not_spin":
        comp = [1, N - 1] if rng.random() < 0.5 else [2, 1, N - 3]
        argv = ["zeta", "--parabolic", ",".join(map(str, comp))]
        expect["code"] = EXIT_NOT_SPIN
    else:  # bound
        argv = ["classify", "--n", "6"]
        expect["code"] = EXIT_BOUND
    return {"kind": kind, "argv": argv, "timeout": 10.0, "expect": expect}


def queries_ops(seed: int) -> list[dict]:
    """A seeded stream of single-refinement requests at n = 2..5."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < QUERY_POOL:
        block = []
        for kind, share in QUERY_MIX:
            first = rng.randrange(len(QUERY_RANKS))
            block += [(kind, QUERY_RANKS[(first + i) % len(QUERY_RANKS)])
                      for i in range(round(share * QUERY_BLOCK))]
        rng.shuffle(block)
        ops += [_query(rng, kind, n) for kind, n in block]
    return ops


WORKLOADS = {
    "classify-n5": classify_ops,
    "mtau": mtau_ops,
    "queries": queries_ops,
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a reason.
# ---------------------------------------------------------------------------

def check(op: dict, rec: dict, out_path=None) -> str | None:
    if rec.get("error"):
        return rec["error"]
    try:
        return _check(op, rec, out_path)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check(op: dict, rec: dict, out_path) -> str | None:
    expect = op["expect"]
    if op["kind"] == "certify":
        return None if rec["code"] == 0 else "expansion differs from the oracle"
    code = expect.get("code", EXIT_OK)
    if rec["code"] != code:
        return f"exit code {rec['code']}, expected {code}"
    if code != EXIT_OK:
        return "error request wrote to stdout" if rec["bytes"] else None
    if op["kind"] == "classify":
        with open(out_path, encoding="utf-8", newline="") as f:
            return _check_classify(f, expect["n"])
    payload = json.loads(rec["out"])
    return {"info": _check_info, "slopes": _check_slopes, "slopes_bad": _check_slopes,
            "zeta": _check_zeta, "mtau": _check_mtau}[op["kind"]](payload, expect)


def _check_classify(lines, n: int) -> str | None:
    """2^n strata, every permutation of 1..2n listed once, closed-form sizes."""
    N = 2 * n
    if N > 10:
        raise ValueError("the classify check reads one-line words of degree <= 10")
    counts = stratum_counts(n)
    csv.field_size_limit(2 ** 31 - 1)  # one CSV field holds a whole stratum
    reader = csv.reader(lines)
    if next(reader) != ["parabolic", "xp", "dim", "size", "members"]:
        return "bad CSV header"
    # Members become N-letter words over an alphabet ordered like 1 < ... < N,
    # so string order is one-line order; the translation table maps v to N+1-v.
    letters = "".join(chr(ord("0") + v) for v in range(1, N + 1))
    alphabet = set(letters)
    complement = str.maketrans(letters, letters[::-1])
    seen_xp = set()
    total = 0
    all_members: set[str] = set()
    for row in reader:
        label, xp_text, dim, size, members = row
        xp = frozenset(int(v) for v in xp_text.strip("{}").split(",") if v)
        if xp in seen_xp or xp not in counts:
            return f"stratum {label}: X_P {xp_text} repeated or unknown"
        seen_xp.add(xp)
        if N > 9:  # only the value 10 has two digits
            members = members.replace("10", letters[9]).replace(",", "")
        words = members.split(" ") if members else []
        if int(dim) != len(xp) + 1 or int(size) != len(words) or len(words) != counts[xp]:
            return (f"stratum {label}: dim {dim}, size {size}, {len(words)} members; "
                    f"closed form {counts[xp]}")
        if any(a >= b for a, b in zip(words, words[1:])):
            return f"stratum {label}: members not strictly sorted"
        for w in words:
            if len(w) != N or set(w) != alphabet:
                return f"stratum {label}: {w!r} is not a permutation"
            # Only the indices in X_P are tested; with every member distinct
            # and every size equal to its closed-form count, that forces each
            # member's spin set to be exactly X_P (induct down from the Borel).
            mirror = w.translate(complement)[::-1]
            for r in xp:
                if sorted(w[:r]) != sorted(mirror[:r]):
                    return f"stratum {label}: a member is not {r}-spin"
        all_members.update(words)
        total += len(words)
    if len(seen_xp) != 2 ** n:
        return f"{len(seen_xp)} strata, expected {2 ** n}"
    if total != factorial(N) or len(all_members) != total:
        return f"{len(all_members)} distinct of {total} members, expected {factorial(N)}"
    return None


def _check_info(payload: dict, expect: dict) -> str | None:
    images = expect["images"]
    n = len(images) // 2
    spins = sorted(spin_set(images))
    target = list(images)
    for i, j in payload["tau"]:
        target[i - 1], target[j - 1] = target[j - 1], target[i - 1]
    if (payload["sigma"] != one_line(images) or payload["n"] != n
            or payload["spin_set"] != spins or payload["optimal_xp"] != spins
            or payload["dim"] != len(spins) + 1
            or payload["gamma"] != gamma_values(images)
            or payload["b_spin_target"] != one_line(target)
            or len(spin_set(target)) != n
            or sorted(payload["alpha_u"], key=int) != [str(k) for k in range(1, 2 * n + 1)]):
        return "info report disagrees with the pairing definition"
    return None


def _check_slopes(payload: dict, expect: dict) -> str | None:
    images, lam = expect["images"], expect["lam"]
    N = len(images)
    slopes = {int(k): Fraction(v) for k, v in expect["slopes"].items()}
    rows = payload["rows"]
    if [row["index"] for row in rows] != list(range(1, N)):
        return "audit rows do not cover U_1..U_{2n-1}"
    for row in rows:
        k = row["index"]
        bound = lam[k - 1] - lam[k] + 1
        if row["bound"] != bound or Fraction(row["slope"]) != slopes[k] \
                or row["ok"] != (slopes[k] < bound):
            return f"audit row U_{k} is wrong"
    if payload["non_critical"] != all(row["ok"] for row in rows):
        return "non-critical verdict disagrees with its rows"
    solve = payload["solve"]
    if not expect["consistent"]:
        if solve["status"] != "inconsistent" or not solve["certificate"]:
            return "inconsistent slopes were not refused with a certificate"
        return None
    if solve["status"] == "inconsistent":
        return "consistent slopes came back inconsistent"
    values = [Fraction(v) for v in solve["t"]] + [Fraction(solve["eta_val"])]
    for coeffs, rhs in _slope_system(images, lam, slopes):
        if sum(c * v for c, v in zip(coeffs, values)) != rhs:
            return "returned profile does not satisfy the slope system"
    return None


def _check_zeta(payload: dict, expect: dict) -> str | None:
    comp = expect["composition"]
    k = len(comp)
    n = sum(comp) // 2
    partial = {sum(comp[:i]) for i in range(k + 1)}
    exps = payload["antidiagonal_exponents"]
    if (payload["beta"] != expect["beta"] or payload["block_count"] != k
            or payload["block_count_parity"] != ("even" if k % 2 == 0 else "odd")
            or payload["contained_in_Q"] != (n in partial)
            or payload["integral"] != (k % 2 == 0)
            or payload["forced_vanishing"] != (k % 2 == 1)
            or len(exps) != n or payload["integral"] != all(e >= 0 for e in exps)):
        return "zeta verdict disagrees with the block-count rule"
    return None


def _check_mtau(payload: dict, expect: dict) -> str | None:
    n = expect["n"]
    identity = "".join(str(v) for v in range(1, n + 1))
    if payload["n"] != n or payload["expansion"].get(identity) != "1" \
            or "prenormalization" not in payload:
        return "mtau expansion is not normalized at the identity coset"
    return None
