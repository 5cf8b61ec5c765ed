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
diff cleanly.  An integer input (a permutation entry, a weight, a
composition part, --n, --bound, --beta) is an optional "-" followed by
ASCII digits (weyl.is_integer).  Exit codes: 1 other usage errors (bad
arguments included, and a --n or --bound below 1), 2 a rank above its
--bound (classify, mtau) or any MemoryError: a request refused by
parabolic.require_memory (classify's head table, a composition's Levi, a
zeta verdict), or memory run out while it runs (the mtau text among
others), 3 malformed permutation, 4 missing, malformed or duplicate slope
data, 5 non-spin composition, 6 failed internal self-check, 141 stdout
closed by its reader before the output ended (`spinref classify … | head`).
An error message quotes at most QUOTE_CAP (60) characters of an input value,
followed by "…", and names a number too long for int() by its digit limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction

from .hecke import (MissingSlopeError, alpha_U, non_critical_slope, solve_profile_joint)
from .intertwine import m_tau_expansion, zeta_support_verdict
from .parabolic import (NotSpinError, SelfCheckError, SpinParabolic, format_xp, parse_composition,
                        pure_parabolic_dim)
from .ratfunc import printer
from .refine import (DEFAULT_ENUMERATION_BOUND, EnumerationBoundError, Refinement,
                     gamma, optimal_parabolic, stratum_words, to_B_spin)
from .rootdata import PureWeight
from .weyl import format_one_line, is_integer, parse_integers

EXIT_BOUND = 2
EXIT_BAD_PERM = 3
EXIT_MISSING_DATA = 4
EXIT_NOT_SPIN = 5
EXIT_SELF_CHECK = 6
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


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


def _too_long(text: str, parse: Callable[[str], object]) -> str | None:
    """Names Python's int() digit limit when parse refused text for a number past it.

    That is when text has a run of ASCII digits past the limit and parse
    accepts text with each such run cut to one digit; when the refused
    part is something else (an "x"), the limit is not named.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return None
    cut = re.sub(f"[0-9]{{{limit + 1},}}", "1", text)
    if cut == text:
        return None
    try:
        parse(cut)
    except (ValueError, ZeroDivisionError):
        return None
    return f"more than {limit} digits"


def _why(exc: Exception, text: str) -> str:
    """Why text was refused: exc's message, cut like a quote when text is long.

    A zero denominator is named in plain words instead of Fraction(1, 0).
    """
    if isinstance(exc, ZeroDivisionError):
        return "zero denominator"
    return str(exc) if len(text) <= QUOTE_CAP else _cut(str(exc))


def _integer(text: str) -> int:
    """int(text) for an integer (is_integer), else ValueError."""
    if not is_integer(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _int(text: str) -> int:
    """type= of the int options: an integer (is_integer), or argparse's
    refusal text with the value cut."""
    try:
        return _integer(text)
    except ValueError:
        reason = _too_long(text, _integer)
    raise argparse.ArgumentTypeError(
        f"invalid int value: {_cut(text)!r}" + (f" ({reason})" if reason else ""))


def _check_bound(bound: int) -> None:
    """A --bound below 1 is a usage error, not a bound that every rank exceeds."""
    if bound < 1:
        raise CliError(f"--bound must be >= 1, got {_cut(str(bound))}")


def _parse_sigma(text: str) -> Refinement:
    try:
        return Refinement.from_one_line(text)
    except ValueError as exc:
        # without a comma each digit is one value, so no number is past int()'s limit
        why = (_too_long(text, parse_integers) or _why(exc, text) if "," in text
               else _cut(str(exc)))
        raise CliError(f"malformed permutation: {why}", EXIT_BAD_PERM) from exc


def _parse_weight(text: str) -> PureWeight:
    try:
        coeffs = parse_integers(text)
    except ValueError as exc:
        raise CliError(f"bad weight {_cut(text)!r}: "
                       f"{_too_long(text, parse_integers) or 'integers expected'}") from exc
    try:
        lam = PureWeight.from_coeffs(coeffs)
    except ValueError as exc:
        raise CliError(f"bad weight: {_why(exc, text)}") from exc
    if not lam.is_dominant:
        raise CliError(f"weight {_cut(text)!r} is not dominant")
    return lam


_EXPONENT = re.compile(r"[0-9.][eE]")


def _slope_entry(piece: str) -> tuple[int, Fraction]:
    key, _, value = piece.partition("=")
    # the value is read first: an index past the digit limit is refused
    # only beside a valid value, as _too_long reads it
    slope = Fraction(value)
    return int(key), slope


def _parse_slopes(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise CliError(f"bad slope entry {_cut(piece)!r}: expected index=value",
                           EXIT_MISSING_DATA)
        key, _, value = piece.partition("=")
        if not (key.isascii() and key.isdigit()):
            # int() would also read " 1", "+1", "0_1" and non-ASCII digits such as "١"
            raise CliError(f"bad slope entry {_cut(piece)!r}: an index is ASCII digits only",
                           EXIT_MISSING_DATA)
        if not value.isascii():
            # Fraction would read non-ASCII digits such as "٣" as 3
            raise CliError(f"bad slope entry {_cut(piece)!r}: a value is ASCII characters only",
                           EXIT_MISSING_DATA)
        if _EXPONENT.search(value):
            # Fraction would expand 1e100000000 digit by digit, for minutes
            raise CliError(f"bad slope entry {_cut(piece)!r}: exponent notation is not accepted",
                           EXIT_MISSING_DATA)
        if "_" in value:
            # Fraction reads 1_0 as 10 from Python 3.11 on and refuses it before
            raise CliError(f"bad slope entry {_cut(piece)!r}: underscores are not accepted",
                           EXIT_MISSING_DATA)
        try:
            index, slope = _slope_entry(piece)
        except (ValueError, ZeroDivisionError) as exc:
            why = _too_long(piece, _slope_entry) or _why(exc, piece)
            raise CliError(f"bad slope entry {_cut(piece)!r}: {why}", EXIT_MISSING_DATA) from exc
        if index in out:
            raise CliError(f"duplicate slope index {_cut(str(index))}", EXIT_MISSING_DATA)
        out[index] = slope
    return out


def _parse_parabolic(text: str, n: int | None = None) -> SpinParabolic:
    try:
        p = SpinParabolic.from_composition(parse_composition(text))
    except NotSpinError as exc:
        raise CliError(_why(exc, text), EXIT_NOT_SPIN) from exc
    except ValueError as exc:
        why = _too_long(text, parse_composition) or _why(exc, text)
        raise CliError(f"bad composition {_cut(text)!r}: {why}") from exc
    if n is not None and p.n != n:
        raise CliError(f"composition {_cut(text)!r} is for GL({2 * p.n}), expected GL({2 * n})")
    return p


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    n = args.n
    if n < 1:
        raise CliError(f"--n must be >= 1, got {_cut(str(n))}")
    _check_bound(args.bound)
    # the text between two members: the stratum's chunks hold it before each
    sep = '", "' if args.format == "json" else " "
    try:
        strata = stratum_words(n, sep, args.bound)
    except EnumerationBoundError as exc:
        raise CliError(_why(exc, f"--n {n} --bound {args.bound}"), EXIT_BOUND) from exc
    N = 2 * n
    order = sorted(strata, key=lambda p: (-len(p.xp), p.composition))
    sizes = {p: strata[p][0] for p in order}
    total = sum(sizes.values())
    out = sys.stdout

    def write_row(p: SpinParabolic, head: str, tail: str) -> None:
        """Write head, the stratum's members joined by sep, then tail.

        Each chunk, one head's group of members with sep before each, is
        written as it is made; the first goes without its leading sep, and
        an empty stratum has none.
        """
        _, chunks = strata.pop(p)
        out.write(head + next(chunks, sep)[len(sep):])
        for chunk in chunks:
            out.write(chunk)
        out.write(tail)

    if args.format == "json":
        # The text of json.dumps: the member strings need no escaping.
        out.write(f'{{"n": {n}, "total": {total}, "strata": [')
        for index, p in enumerate(order):
            quote = '"' if sizes[p] else ""
            write_row(p, f'{", " if index else ""}{{"parabolic": {json.dumps(p.label())}, '
                         f'"xp": {json.dumps(sorted(p.xp))}, "dim": {pure_parabolic_dim(p)}, '
                         f'"size": {sizes[p]}, "members": [{quote}', f"{quote}]}}")
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
            write_row(p, quote, quote)
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
            write_row(p, head if sizes[p] else head.rstrip(), "\n")
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
        solution = solve_profile_joint([(r.sigma, slopes)], lam)
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
    verdict = zeta_support_verdict(p, args.beta)
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
# expansion takes a fraction of a second.  At n = 5 every expansion takes
# under 0.2 s, but its unreduced text is too long to print.
DEFAULT_MTAU_BOUND = 4


def cmd_mtau(args) -> int:
    _check_bound(args.bound)
    p = _parse_parabolic(args.parabolic)
    if args.n is not None and args.n != p.n:
        raise CliError(f"--n {_cut(str(args.n))} disagrees with the composition (rank {p.n})")
    if p.n > args.bound:
        raise CliError(f"n={p.n} exceeds the mtau bound {_cut(str(args.bound))}; "
                       f"raise the bound explicitly", EXIT_BOUND)
    expansion, prenorm = m_tau_expansion(p.n, p)
    # All the text is built before any is printed, so that a MemoryError
    # (the unreduced text at n = 5) leaves stdout empty.  One printer, and
    # so one pair of half tables, serves every coefficient.  A coefficient's
    # text lives only until its piece is built, the pieces until they are joined.
    try:
        text = printer(2 * p.n + 1)
        rows = sorted(((format_one_line(coset.rep), coeff)
                       for coset, coeff in expansion.items()), key=lambda row: row[0])
        if args.format == "json":
            # A coefficient's text holds digits, p, θ, _ ^ * + - ( ) / and
            # spaces only, none of which JSON escapes, so it is quoted as it is.
            quote = functools.partial(json.dumps, ensure_ascii=False)
            pieces = [f'{{"n": {p.n}, "parabolic": {quote(p.label())}, "expansion": {{']
            pieces += (f'{", " if i else ""}{quote(rep)}: "{text(coeff)}"'
                       for i, (rep, coeff) in enumerate(rows))
            pieces.append(f'}}, "prenormalization": "{text(prenorm)}"}}')
        else:
            pieces = [f"intertwined eigenvector expansion for n={p.n}, parabolic {p.label()}\n"]
            pieces += (f"  [{rep}]  {text(coeff)}\n" for rep, coeff in rows)
            pieces.append(f"prenormalization factor: {text(prenorm)}")
        del text  # the half tables need not outlive the pieces while they are joined
        out = "".join(pieces)
        del pieces
    except MemoryError:
        raise CliError(f"n={p.n}: the text of the {p.label()} expansion does not fit in memory",
                       EXIT_BOUND) from None
    print(out)
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
    # subcommand name -> its parser, filled in by add_parser; read by _parse
    parser.commands = sub.choices

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


def _option_table(command: argparse.ArgumentParser):
    """What _read needs of a subcommand's parser, taken from its own actions.

    Its store (one value) and store_true actions by option string, the
    namespace its parse starts from (the actions' defaults, then the
    parser's own), and its required actions.  None when an action has a
    string default and a type=, which argparse converts when it is unset.
    """
    options, start = {}, {}
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            if isinstance(action.default, str) and action.type is not None:
                return None
            start[action.dest] = action.default
        if (type(action) is argparse._StoreAction and action.nargs is None
                or type(action) is argparse._StoreTrueAction):
            options.update(dict.fromkeys(action.option_strings, action))
    for dest, value in command._defaults.items():
        start.setdefault(dest, value)
    return options, start, {action for action in command._actions if action.required}


def _read(table, tokens: Sequence[str]) -> argparse.Namespace | None:
    """tokens read by a subcommand's option table (_option_table), or None.

    None, so that argparse reads them, when a token is not exactly one of
    the table's option strings (-h, an abbreviation, --, a stray word),
    when a store_true option is given a value, when a separate value is
    missing or starts with "-" (argparse's negative-number and option
    rules), when a type= conversion fails or a value is no choice, and
    when a required option is unset.  --opt=value splits at the first "=".
    """
    if table is None:
        return None
    options, start, required = table
    values, seen = dict(start), set()
    i, end = 0, len(tokens)
    while i < end:
        token = tokens[i]
        i += 1
        action = options.get(token)
        if action is None:
            option, equals, text = token.partition("=")
            action = options.get(option) if equals else None
            if action is None or action.nargs is not None:
                return None
        elif action.nargs is None:
            if i == end or tokens[i].startswith("-"):
                return None
            text = tokens[i]
            i += 1
        else:  # store_true
            values[action.dest] = action.const
            seen.add(action)
            continue
        if action.type is not None:
            try:
                text = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and text not in action.choices:
            return None
        values[action.dest] = text
        seen.add(action)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on the first call and reused, with
    each subcommand's option table for _read (parser.tables).

    Building it costs about 0.7 ms, some 30 times the argparse pass of one
    request; parse_args keeps no state between calls.
    """
    parser = build_parser()
    parser.tables = {name: _option_table(command) for name, command in parser.commands.items()}
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as _parser().parse_args parses it.

    The top-level parser hands the whole of argv on to the subcommand's
    parser, which scans it again.  When argv[0] names a subcommand, the
    rest is read from that subcommand's option table (_read), with no
    argparse pass; what _read declines (help, usage errors, abbreviations,
    --, a separate value that starts with "-") takes one pass of the
    subcommand's parser.  Anything else (no argv, -h, an unknown or
    abbreviated command, a leading --) goes through the top level.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read(parser.tables[argv[0]], argv[1:])
    if args is None:
        args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _stdout_fd() -> int | None:
    """The file descriptor behind sys.stdout, None when it is no real file."""
    try:
        return sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return None


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        if _stdout_fd() is not None:
            sys.stdout.flush()  # so that a reader gone early is met here, not at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SelfCheckError as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except ValueError as exc:  # NotSpinError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPIN if isinstance(exc, NotSpinError) else 1
    except MemoryError as exc:  # a refusal (RankMemoryError) or memory run out
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BOUND
    except BrokenPipeError:
        # The reader of stdout has gone (`spinref classify … | head`).  As in
        # Python's SIGPIPE recipe, stdout is pointed at devnull, so that the
        # flush at exit cannot raise again.  A stdout that is no file (an
        # in-process caller's stream) gets the error back.
        fd = _stdout_fd()
        if fd is None:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
