"""Command-line front end.

Subcommands:

* classify: stratify all refinements of GL(2n) by optimal spin parabolic.
* info: classification report for one refinement (spin set, gamma,
  optimal parabolic, symbolic eigenvalues, switching data).
* slopes: audit declared slopes against the non-critical bounds, with an
  optional exact profile solve.  Slopes are index=value pairs; a value is
  an integer (-7), a fraction (3/2) or a decimal (2.5), never in exponent
  notation (1e5 is refused with exit 4).
* zeta: support verdict of the twisted zeta integral for a spin parabolic.
* mtau: intertwined parahoric eigenvector expansion with symbolic
  coefficients.

Output is deterministic (members sorted by one-line notation) so tables
diff cleanly.  Exit codes: 1 other usage errors (bad arguments included),
2 rank bound exceeded (classify, mtau), classify's stratum buffers larger
than physical memory, a composition whose Levi cannot fit in physical
memory (zeta, slopes, mtau), or a zeta verdict that cannot (zeta),
3 malformed permutation, 4 missing, malformed or duplicate slope data,
5 non-spin composition, 6 failed internal self-check.
An error message quotes at most QUOTE_CAP (60) characters of an input value,
followed by "…", and names a number too long for int() by its digit limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .hecke import (MissingSlopeError, alpha_U, non_critical_slope, solve_profile)
from .intertwine import m_tau_expansion, zeta_support_verdict
from .parabolic import (NotSpinError, RankMemoryError, SelfCheckError, SpinParabolic, format_xp,
                        parse_composition, pure_parabolic_dim)
from .refine import (DEFAULT_ENUMERATION_BOUND, EnumerationBoundError, Refinement,
                     gamma, optimal_parabolic, stratum_words, to_B_spin)
from .rootdata import PureWeight
from .weyl import format_one_line

EXIT_BOUND = 2
EXIT_BAD_PERM = 3
EXIT_MISSING_DATA = 4
EXIT_NOT_SPIN = 5
EXIT_SELF_CHECK = 6


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Argument parsing helpers.
# ---------------------------------------------------------------------------

# An error message quotes at most this many characters of an input value.
QUOTE_CAP = 60


def _cut(text: str) -> str:
    """text, or its first QUOTE_CAP characters followed by "…" when longer."""
    return text if len(text) <= QUOTE_CAP else text[:QUOTE_CAP] + "…"


def _too_long(text: str) -> str | None:
    """Names a run of digits in text past Python's int() limit, else None."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
        return f"more than {limit} digits"
    return None


def _why(exc: Exception, text: str) -> str:
    """Why text was refused: exc's message, cut like a quote when text is long.

    A too-long number and a zero denominator are named in plain words
    instead of CPython's advice and Fraction(1, 0).
    """
    if isinstance(exc, ZeroDivisionError):
        return "zero denominator"
    return _too_long(text) or (str(exc) if len(text) <= QUOTE_CAP else _cut(str(exc)))


def _int(text: str) -> int:
    """type= of the int options: argparse's refusal text, with the value cut."""
    try:
        return int(text)
    except ValueError:
        reason = _too_long(text)
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_cut(text)!r}" + (f" ({reason})" if reason else "")) from None


def _parse_sigma(text: str) -> Refinement:
    try:
        return Refinement.from_one_line(text)
    except ValueError as exc:
        raise CliError(f"malformed permutation: {_why(exc, text)}", EXIT_BAD_PERM) from exc


def _parse_weight(text: str) -> PureWeight:
    try:
        coeffs = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad weight {_cut(text)!r}: "
                       f"{_too_long(text) or 'integers expected'}") from exc
    try:
        lam = PureWeight.from_coeffs(coeffs)
    except ValueError as exc:
        raise CliError(f"bad weight: {_why(exc, text)}") from exc
    if not lam.is_dominant:
        raise CliError(f"weight {_cut(text)!r} is not dominant")
    return lam


_EXPONENT = re.compile(r"[0-9.][eE]")


def _parse_slopes(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise CliError(f"bad slope entry {_cut(piece)!r}: expected index=value",
                           EXIT_MISSING_DATA)
        key, _, value = piece.partition("=")
        if _EXPONENT.search(value):
            # Fraction would expand 1e100000000 digit by digit, for minutes
            raise CliError(f"bad slope entry {_cut(piece)!r}: exponent notation is not accepted",
                           EXIT_MISSING_DATA)
        try:
            index, slope = int(key), Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad slope entry {_cut(piece)!r}: {_why(exc, piece)}",
                           EXIT_MISSING_DATA) from exc
        if index in out:
            raise CliError(f"duplicate slope index {_cut(str(index))}", EXIT_MISSING_DATA)
        out[index] = slope
    return out


def _parse_parabolic(text: str, n: int | None = None) -> SpinParabolic:
    try:
        parts = parse_composition(text)
        p = SpinParabolic.from_composition(parts)
    except RankMemoryError as exc:
        raise CliError(str(exc), EXIT_BOUND) from exc
    except NotSpinError as exc:
        raise CliError(_why(exc, text), EXIT_NOT_SPIN) from exc
    except ValueError as exc:
        raise CliError(f"bad composition {_cut(text)!r}: {_why(exc, text)}") from exc
    if n is not None and p.n != n:
        raise CliError(f"composition {_cut(text)!r} is for GL({2 * p.n}), expected GL({2 * n})")
    return p


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# classify formats and writes this many members of a stratum at a time.
MEMBERS_PER_WRITE = 1 << 16

# Per byte value v: the units digit of v, and the tens digit of v or a NUL
# placeholder (deleted afterwards) when v < 10.
_UNITS = bytes(ord("0") + v % 10 for v in range(256))
_TENS = b"\0" * 10 + bytes(ord("0") + v // 10 % 10 for v in range(10, 256))


def _joined_one_line(words: bytes, N: int, sep: str) -> str:
    """sep.join of the one-line notation of each N-byte word, in bulk.

    Same text as format_one_line per member (digits concatenated for
    N <= 9, comma-separated above; values below 100), built column by
    column with translate and strided slice assignment instead of member by
    member.
    """
    count = len(words) // N
    units = words.translate(_UNITS)
    if N <= 9:
        columns = [units[i::N] for i in range(N)]
    else:
        tens = words.translate(_TENS)
        comma = b"," * count
        columns = []
        for i in range(N):
            columns += [tens[i::N], units[i::N], comma]
        columns.pop()
    columns += [bytes([c]) * count for c in sep.encode()]
    stride = len(columns)
    out = bytearray(stride * count)
    for offset, column in enumerate(columns):
        out[offset::stride] = column
    del out[len(out) - len(sep):]
    if N > 9:
        out = out.translate(None, b"\0")
    return out.decode("ascii")


def _blocks(chunks: Iterable[bytes], size: int) -> Iterator[bytes]:
    """The concatenation of chunks, in pieces of at most size bytes.

    Chunks are joined while they fit in a piece; a larger chunk is sliced.
    """
    pending, held = [], 0
    for chunk in chunks:
        if held + len(chunk) > size:
            if held:
                yield b"".join(pending)
            whole = len(chunk) - len(chunk) % size
            for start in range(0, whole, size):
                yield chunk[start:start + size]
            chunk, pending, held = chunk[whole:], [], 0
        pending.append(chunk)
        held += len(chunk)
    if held:
        yield b"".join(pending)


def cmd_classify(args) -> int:
    n = args.n
    if n < 1:
        raise CliError(f"--n must be >= 1, got {_cut(str(n))}")
    try:
        strata = stratum_words(n, args.bound)
    except EnumerationBoundError as exc:
        raise CliError(_why(exc, f"--n {n} --bound {args.bound}"), EXIT_BOUND) from exc
    N = 2 * n
    order = sorted(strata, key=lambda p: (-len(p.xp), p.composition))
    sizes = {p: strata[p][0] for p in order}
    total = sum(sizes.values())
    out = sys.stdout

    def write_row(p: SpinParabolic, head: str, sep: str, tail: str) -> None:
        """Write head, the stratum's members joined by sep, then tail.

        The members are formatted MEMBERS_PER_WRITE at a time and the
        stratum's words are freed once written.
        """
        _, chunks = strata.pop(p)
        out.write(head)
        lead = ""
        for block in _blocks(chunks, MEMBERS_PER_WRITE * N):
            out.write(lead + _joined_one_line(block, N, sep))
            lead = sep
        out.write(tail)

    if args.format == "json":
        # The text of json.dumps: the member strings need no escaping.
        out.write(f'{{"n": {n}, "total": {total}, "strata": [')
        for index, p in enumerate(order):
            quote = '"' if sizes[p] else ""
            write_row(p, f'{", " if index else ""}{{"parabolic": {json.dumps(p.label())}, '
                         f'"xp": {json.dumps(sorted(p.xp))}, "dim": {pure_parabolic_dim(p)}, '
                         f'"size": {sizes[p]}, "members": [{quote}', '", "', f"{quote}]}}")
        out.write("]}\n")
    elif args.format == "csv":
        # The csv module writes the header and each row's first four fields.
        # The members field follows, quoted as csv quotes it: it holds
        # commas, and so needs quotes, only above degree 9.
        writer = csv.writer(out, lineterminator="")
        writer.writerow(["parabolic", "xp", "dim", "size", "members"])
        for p in order:
            out.write("\n")
            writer.writerow([p.label(), format_xp(p.xp), pure_parabolic_dim(p), sizes[p], ""])
            quote = '"' if N > 9 and sizes[p] else ""
            write_row(p, quote, " ", quote)
        out.write("\n")
    else:
        print(f"stratification of the {total} refinements of GL({N}) "
              f"by optimal spin parabolic")
        width = max(len("parabolic"), *(len(p.label()) for p in order))
        xp_width = max(len("X_P"), *(len(format_xp(p.xp)) for p in order))
        print(f"{'parabolic':<{width + 2}}{'X_P':<{xp_width + 2}}dim  size  members")
        for p in order:
            head = (f"{p.label():<{width + 2}}{format_xp(p.xp):<{xp_width + 2}}"
                    f"{pure_parabolic_dim(p):<5}{sizes[p]:<6}")
            write_row(p, head if sizes[p] else head.rstrip(), " ", "\n")
        counts = ", ".join(f"{p.label()}: {sizes[p]}" for p in order)
        print(f"totals: {counts}")
    return 0


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def refinement_report(r: Refinement) -> dict:
    profile = optimal_parabolic(r)
    taus, target = to_B_spin(r)
    alphas = {k: alpha_U(r, k) for k in range(1, 2 * r.n + 1)}
    report = {
        "sigma": r.one_line(),
        "n": r.n,
        "spin_set": sorted(profile.spin_set),
        "gamma": list(gamma(r).values),
        "optimal": profile.optimal.label(),
        "optimal_xp": sorted(profile.optimal.xp),
        "dim": pure_parabolic_dim(profile.optimal),
        "b_spin_target": target.one_line(),
        "tau": [list(t) for t in taus],
        "alpha_u": {str(k): dict(a.normal_form().to_json(), str=str(a))
                    for k, a in alphas.items()},
    }
    return report


def parse_refinement_report(report: dict) -> Refinement:
    return Refinement.from_one_line(report["sigma"])


def cmd_info(args) -> int:
    r = _parse_sigma(args.sigma)
    report = refinement_report(r)
    if args.format == "table":
        print(f"sigma          {report['sigma']}")
        print(f"spin set       {report['spin_set']}")
        print(f"gamma          {report['gamma']}")
        print(f"optimal        {report['optimal']}  (X_P = {report['optimal_xp']}, "
              f"family dim {report['dim']})")
        print(f"B-spin target  {report['b_spin_target']}  via tau = {report['tau']}")
        for k in range(1, 2 * r.n + 1):
            label = f"alpha(U_p,{k})"
            print(f"{label:<15}{report['alpha_u'][str(k)]['str']}")
    else:
        print(json.dumps(report, ensure_ascii=False))
    return 0


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------

def cmd_slopes(args) -> int:
    r = _parse_sigma(args.sigma)
    if args.weight is None:
        raise CliError("slopes needs --lambda", EXIT_MISSING_DATA)
    if args.slopes is None:
        raise CliError("slopes needs --slopes", EXIT_MISSING_DATA)
    lam = _parse_weight(args.weight)
    if lam.n != r.n:
        raise CliError("weight and permutation ranks differ")
    slopes = _parse_slopes(args.slopes)
    parabolic = (_parse_parabolic(args.parabolic, r.n) if args.parabolic
                 else SpinParabolic.borel(r.n))
    try:
        audit = non_critical_slope(lam, slopes, parabolic)
    except MissingSlopeError as exc:
        raise CliError(str(exc), EXIT_MISSING_DATA) from exc
    except ValueError as exc:  # a slope index outside 1..2n
        raise CliError(_why(exc, args.slopes)) from exc

    payload = {
        "sigma": r.one_line(),
        "lambda": list(lam.coeffs),
        "parabolic": parabolic.label(),
        "rows": [{"index": row.index, "bound": row.bound, "slope": str(row.value),
                  "ok": row.ok} for row in audit.rows],
        "non_critical": audit.ok,
    }
    solution = None
    if args.solve:
        solution = solve_profile(slopes, lam, r.sigma)
        payload["solve"] = {
            "status": solution.status,
            "t": [str(v) for v in solution.profile.t] if solution.profile else None,
            "eta_val": str(solution.profile.eta_val) if solution.profile else None,
            "free": list(solution.free),
            "certificate": [row.describe() for row in solution.certificate],
        }
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False))
        return 0
    for row in audit.rows:
        state = "ok" if row.ok else "VIOLATED"
        print(f"U_p,{row.index}: slope {row.value} < bound {row.bound}  {state}")
    print("verdict: " + ("non-critical slope" if audit.ok else
                         "critical (some bound violated)"))
    if solution is not None:
        print(f"profile solve: {solution.status}")
        if solution.profile is not None:
            print(f"  t = ({', '.join(str(v) for v in solution.profile.t)}), "
                  f"v(eta) = {solution.profile.eta_val}")
            if solution.free:
                print(f"  free: {', '.join(solution.free)}")
        for row in solution.certificate:
            print(f"  violated: {row.describe()}")
    return 0


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def cmd_zeta(args) -> int:
    p = _parse_parabolic(args.parabolic)
    if args.beta < 1:
        raise CliError(f"--beta must be a positive integer, got {_cut(str(args.beta))}")
    try:
        verdict = zeta_support_verdict(p, args.beta)
    except RankMemoryError as exc:
        raise CliError(str(exc), EXIT_BOUND) from exc
    payload = {
        "parabolic": p.label(),
        "beta": args.beta,
        "block_count": len(p.composition),
        "block_count_parity": verdict.block_count_parity,
        "contained_in_Q": verdict.contained_in_Q,
        "integral": verdict.integral,
        "forced_vanishing": verdict.forced_vanishing,
        "antidiagonal_exponents": list(verdict.matrix.exponents),
    }
    if args.format == "json":
        print(json.dumps(payload))
        return 0
    print(f"parabolic {p.label()}  (blocks: {len(p.composition)}, "
          f"{verdict.block_count_parity})")
    print(f"contained in (n,n)-parabolic: {'yes' if verdict.contained_in_Q else 'no'}")
    exps = ", ".join(f"p^{e}" for e in verdict.matrix.exponents)
    print(f"antidiagonal of nu_beta(t_P^beta): [{exps}]")
    print("verdict: " + ("forced vanishing" if verdict.forced_vanishing
                         else "no forced vanishing"))
    return 0


# ---------------------------------------------------------------------------
# mtau
# ---------------------------------------------------------------------------

# Largest rank mtau computes unless --bound raises it: at n = 4 the Borel
# expansion takes a fraction of a second, at n = 5 it ran past 300 s.
DEFAULT_MTAU_BOUND = 4


def cmd_mtau(args) -> int:
    p = _parse_parabolic(args.parabolic)
    if args.n is not None and args.n != p.n:
        raise CliError(f"--n {_cut(str(args.n))} disagrees with the composition (rank {p.n})")
    if p.n > args.bound:
        raise CliError(f"n={p.n} exceeds the mtau bound {_cut(str(args.bound))}; "
                       f"raise the bound explicitly", EXIT_BOUND)
    expansion, prenorm = m_tau_expansion(p.n, p)
    rows = sorted(((format_one_line(coset.rep), str(coeff))
                   for coset, coeff in expansion.items()))
    if args.format == "json":
        print(json.dumps({
            "n": p.n,
            "parabolic": p.label(),
            "expansion": dict(rows),
            "prenormalization": str(prenorm),
        }, ensure_ascii=False))
        return 0
    print(f"intertwined eigenvector expansion for n={p.n}, parabolic {p.label()}")
    for rep, coeff in rows:
        print(f"  [{rep}]  {coeff}")
    print(f"prenormalization factor: {prenorm}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as CliError (exit 1), not argparse's exit 2.

    Exit 2 is the code for an exceeded rank bound.  Subparsers are built
    from this class too.  A bad choice or a leftover argument is quoted cut.
    """

    def error(self, message: str):
        raise CliError(message)

    def parse_args(self, args=None, namespace=None):
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {_cut(' '.join(extra))}")
        return parsed

    def _check_value(self, action, value):
        # a value longer than the cap is no choice, and its cut form is none either
        super()._check_value(action, _cut(value) if isinstance(value, str) else value)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spinref",
        description="Spin stratification of p-refinements of GL(2n)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="stratify all refinements by optimal parabolic")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("--bound", type=_int, default=DEFAULT_ENUMERATION_BOUND)
    c.add_argument("--format", choices=["table", "json", "csv"], default="table")
    c.set_defaults(func=cmd_classify)

    i = sub.add_parser("info", help="classification report for one refinement")
    i.add_argument("--sigma", required=True)
    i.add_argument("--format", choices=["table", "json"], default="json")
    i.set_defaults(func=cmd_info)

    s = sub.add_parser("slopes", help="non-critical slope audit")
    s.add_argument("--sigma", required=True)
    s.add_argument("--lambda", dest="weight")
    s.add_argument("--slopes", help='declared slopes, e.g. "1=11,2=0,3=11"')
    s.add_argument("--parabolic")
    s.add_argument("--solve", action="store_true",
                   help="also solve for a valuation profile (or a certificate)")
    s.add_argument("--format", choices=["table", "json"], default="table")
    s.set_defaults(func=cmd_slopes)

    z = sub.add_parser("zeta", help="twisted zeta-integral support verdict")
    z.add_argument("--parabolic", required=True)
    z.add_argument("--beta", type=_int, default=1)
    z.add_argument("--format", choices=["table", "json"], default="table")
    z.set_defaults(func=cmd_zeta)

    m = sub.add_parser("mtau", help="intertwined parahoric eigenvector expansion")
    m.add_argument("--parabolic", required=True,
                   help="spin composition contained in the (n,n)-parabolic")
    m.add_argument("--n", type=_int, help="cross-check of the rank")
    m.add_argument("--bound", type=_int, default=DEFAULT_MTAU_BOUND,
                   help="largest rank to compute (default %(default)s)")
    m.add_argument("--format", choices=["table", "json"], default="table")
    m.set_defaults(func=cmd_mtau)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on the first call and reused.

    Building it costs about 1 ms, some 20 times the parse of one request;
    parse_args keeps no state between calls.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotSpinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPIN
    except SelfCheckError as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
