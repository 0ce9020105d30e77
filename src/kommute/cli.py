"""
Command-line interface.

Subcommands:

* ``count``      exact count at one distance, by formula or brute force
* ``enumerate``  stream the constructively generated witnesses
* ``verify``     run the checks in ``kommute.verify`` and print PASS/FAIL
* ``table``      CSV tables of the closed-form counts
* ``gf``         CSV of generating-function coefficients (factorials cleared)
* ``oeis``       terms of the related OEIS sequences, one per line

Exit codes: 0 success, 1 usage, parse or size-cap error, 2 no closed form
applies, 3 a verification or internal invariant failed.  ``verify`` writes
and flushes each verdict as its check finishes, so an internal error in a
later check comes after the verdicts already printed, which stay on
stdout, with exit 3.  A reader that closes the pipe early
(``kommute enumerate ... | head``, ``kommute verify ... | head -n 1``)
gets exit 0 and nothing on stderr; ``verify`` then stops at the next
verdict.  All counts in JSON are decimal strings, and CSV uses a
header row and LF line endings.

``enumerate`` reads the builders' per-lead streams: the construction's
frames are built and checked first, then the witnesses come one leading
entry alpha(1) - 1 at a time.  It keeps one lead's witnesses, each only as
its zero-based one-line word packed into n bytes of one bytearray per
second entry, sorts one such sub-bucket at a time as bytes keys, which
sort in the order of the one-line images, and writes every line straight
from its key.  So its first line comes once lead 0's witnesses are built,
and it holds about 6 to 8 bytes a witness, frames included.

Each runner imports the modules it uses when it runs, so a closed-form
request loads neither the oracle nor the enumerators.  No subcommand loads
``json`` or ``csv``: ``count`` and ``enumerate --json`` write their records,
and ``table`` and ``gf`` their rows, by hand.  None loads ``dataclasses``
either: the package's records are NamedTuples or ``__slots__`` classes.

The options live in one table, ``_COMMANDS``.  A well-formed command line
(full option names, each value after its option and valid) is read straight
off it; ``argparse``, with ``gettext`` and ``locale``, loads only to print
help or report a usage error, with the bytes and exit code it always gave.
That saves each call about 4.5 ms of imports and 0.5 MB of peak RSS.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import defaultdict
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import formulas
from .perm import ParseError, cycle_pieces, parse_permutation, point_labels, word_cycle_string

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CLOSED_FORM = 2
EXIT_INVARIANT = 3

# size caps: the largest --n of `count` and `enumerate`, checked before the
# parse allocates n points, and the most witnesses `enumerate` may print
MAX_DEGREE = 10_000
MAX_WITNESSES = 10**6

# the sequences in the order --sequence lists them, and the most terms of each
_OEIS_CAPS = {
    "A000757": 500, "A053871": 500, "A233440": 2000,
    "A208529": 200, "A208528": 200, "A098916": 200,
}


# the subcommands and their options, in the order --help lists them: each
# subcommand's help and its options' flags with their add_argument keywords
# (the one action is store_true).  _build_parser builds argparse's parser
# from it, and _direct_args reads a plain command line with it
_COMMANDS: dict[str, tuple[str, dict[str, dict]]] = {
    "count": ("count permutations at distance k from beta", {
        "--beta": dict(required=True, help="cycle notation, e.g. '(1 2)(3 4 5)'"),
        "--n": dict(type=int, required=True, help="degree of beta"),
        "--k": dict(type=int, required=True, help="commutation distance"),
        "--method": dict(choices=("formula", "brute"), default="formula"),
        "--jobs": dict(type=int, default=1, help="ignored; brute force runs in one process"),
        "--max-brute-n": dict(type=int, default=None, help="raise the brute-force degree cap"),
    }),
    "enumerate": ("stream constructively built witnesses", {
        "--beta": dict(required=True),
        "--n": dict(type=int, required=True),
        "--k": dict(type=int, required=True),
        "--mode": dict(
            choices=("single", "fpf"),
            default="single",
            help="single: all bad points in one cycle; fpf: beta an involution without fixed points",
        ),
        "--json": dict(action="store_true", help="emit one JSON record per line"),
    }),
    "verify": ("run every identity check and report pass/fail", {
        "--n-max": dict(type=int, default=6, help="largest degree to verify (<= brute cap)"),
        "--jobs": dict(type=int, default=1, help="ignored; every check runs in one process"),
        "--max-brute-n": dict(type=int, default=None),
        "--corrupt-f": dict(
            action="store_true",
            help="negative control: corrupt one successor-free cycle count to show failure reporting",
        ),
    }),
    "table": ("CSV table of closed-form counts", {
        "--kind": dict(choices=("tkn", "transposition", "fpf"), required=True),
        "--n-max": dict(type=int, required=True),
    }),
    "gf": ("CSV of generating-function coefficients", {
        "--kind": dict(choices=("tkn", "fpf"), required=True),
        "--n-max": dict(type=int, required=True),
    }),
    "oeis": ("terms of a related OEIS sequence, one per line", {
        "--sequence": dict(required=True, choices=tuple(_OEIS_CAPS)),
        "--count": dict(type=int, required=True, help="number of terms"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on usage errors; 2 is taken, so use 1
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(
        prog="kommute",
        description="permutations at a given Hamming commutation distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return parser


def _direct_args(argv: Sequence[str]) -> SimpleNamespace | None:
    # the namespace parse_args returns, for a command line of a subcommand
    # and its options by their full names, each value option followed by a
    # value that does not start with "-" and converts and is among the
    # choices, and every required option given; None for any other line
    # (help, abbreviations, --opt=value, values starting with "-", "--",
    # unknown options, bad or missing values), which argparse then parses
    # and reports.  A repeated option keeps its last value, as in argparse
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        keywords = options.get(flag)
        if keywords is None:
            return None
        if "action" in keywords:
            given[flag] = True
            continue
        text = next(rest, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    values = {"command": argv[0]}
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if "action" in keywords else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


# -- count ---------------------------------------------------------------


def _parse_beta(args):
    if args.n > MAX_DEGREE:
        raise ValueError(f"--n {args.n} exceeds the degree cap {MAX_DEGREE}")
    return parse_permutation(args.beta, args.n)


def run_count(args) -> int:
    beta = _parse_beta(args)
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    if args.method == "formula":
        result = formulas.count(beta.cycle_type(), args.k)
        value, provenance = result.value, result.provenance
    else:
        from . import oracle

        oracle._check_degree(args.n, args.max_brute_n, "--max-brute-n")
        dist = oracle.distribution(beta, max_degree=args.max_brute_n)
        value, provenance = dist[args.k], "exhaustive"
    # the record json.dumps(..., sort_keys=True) prints: cycle notation, the
    # methods and the provenance tags hold no character JSON escapes
    print(
        f'{{"beta": "{beta.cycle_string()}", "count": "{value}", "k": {args.k}, '
        f'"method": "{args.method}", "n": {args.n}, "provenance": "{provenance}"}}'
    )
    return EXIT_OK


# -- enumerate -----------------------------------------------------------


def run_enumerate(args) -> int:
    from . import construct

    beta = _parse_beta(args)
    t = beta.cycle_type()
    # the witness count, where a closed form applies; the builders report bad input
    if args.mode == "single":
        leads, depth = construct.single_cycle_leads, args.k
        size = formulas.single_cycle_count(t, args.k) if args.k >= 3 else 0
    else:
        if args.k % 2:
            raise ValueError("fpf distances are even; got odd k")
        leads, depth = construct.fpf_leads, args.k // 2
        fpf = formulas._is_fpf_involution(t) and args.k >= 0
        size = formulas.fpf_involution_count(args.k, args.n // 2) if fpf else 0
    if size > MAX_WITNESSES:
        raise ValueError(f"the witnesses outnumber the witness cap {MAX_WITNESSES}")
    # every row and outer map is checked as the frames are built, before the
    # first line; the word streams are injective, so no set is needed
    lines = _witness_lines(_sorted_words(leads(beta, depth), beta.degree), beta.word, args.json)
    sys.stdout.writelines(lines)
    return EXIT_OK


def _sorted_words(leads: Iterable[Iterable[tuple[int, ...]]], n: int) -> Iterator[Sequence[int]]:
    # the zero-based words in the order of the one-line images (images =
    # word + 1), given one stream per leading entry, in increasing order.
    # One lead's words at a time are held, as n bytes each in one bytearray
    # per second entry; a sub-bucket is cut into bytes keys and sorted only
    # when its turn comes, so the keys of one sub-bucket exist at a time,
    # and bytes sort as the words do.
    # Entries fit a byte: for n >= 257 every nonzero witness count is above
    # MAX_WITNESSES = 10**6, so the stream is empty.  An fpf count has m >=
    # 129 couples, so it is at least 2**129.  A single-cycle count is at
    # least |C(beta)| * C(L, k) * f(k), with L >= k the longest cycle.  With
    # 10 or more fixed points |C(beta)| >= 10!; otherwise the other cycles
    # cover at least 248 points and |C(beta)| >= L**(248/L), above 2 * 10**8
    # for 4 <= L <= 50 and at least 2**83 for L = 3.  For L >= 51, either
    # k >= 11 and f(k) >= 1,214,673, or 3 <= k <= L - 3 and the count is at
    # least L * C(L, 3).  A witness there would still fail safe: packing
    # the frames, or a bucket here, raises ValueError (exit 1) before any
    # line is written
    buckets: defaultdict[int, bytearray] = defaultdict(bytearray)
    for words in leads:
        for word in words:
            buckets[word[1]].extend(word)
        for second in sorted(buckets):
            data = bytes(buckets.pop(second))
            yield from sorted([data[i : i + n] for i in range(0, len(data), n)])


def _witness_lines(
    words: Iterable[Sequence[int]], beta_word: tuple[int, ...], as_json: bool
) -> Iterator[str]:
    # one output line per zero-based word: its cycle notation or, under
    # --json, the record json.dumps(..., sort_keys=True) prints (no escaping,
    # as in run_count); the bad points are where alpha*beta and beta*alpha
    # disagree, ascending
    b = beta_word
    points = range(len(b))
    labels = point_labels(len(b))
    pieces = cycle_pieces(len(b))
    for a in words:
        line = word_cycle_string(a, pieces)
        if as_json:
            bad = ", ".join([labels[i] for i in points if a[b[i]] != b[a[i]]])
            line = f'{{"alpha": "{line}", "bad_points": [{bad}]}}'
        yield line + "\n"


# -- verify --------------------------------------------------------------


def run_verify(args) -> int:
    from . import verify

    bound = verify._check_n_max(args.n_max, args.max_brute_n, "--n-max", "--max-brute-n")
    results = verify._run_checks(args.n_max, bound, args.corrupt_f)
    checks = failed = 0
    # each verdict is flushed as its check finishes, so a reader sees it at
    # once, and one that has closed the pipe ends the run at the next flush
    for name, failures in results:
        checks += 1
        if failures:
            failed += 1
            print(f"FAIL {name} ({len(failures)} case(s))")
            for line in failures[:5]:
                print(f"     {line}")
            if len(failures) > 5:
                print(f"     ... and {len(failures) - 5} more")
        else:
            print(f"PASS {name}")
        sys.stdout.flush()
    print(f"{checks - failed}/{checks} checks passed (n_max={args.n_max})")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


# -- tables ----------------------------------------------------------------


def _write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # the lines csv.writer(lineterminator="\n") writes: every cell is an
    # integer, "" or a header label, so none needs quoting, and every row has
    # two cells or more, so none is a lone ""
    lines = itertools.chain([header], rows)
    sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in lines)


def run_table(args) -> int:
    n_max = args.n_max
    if not 1 <= n_max <= 30:
        raise ValueError("--n-max must be between 1 and 30")
    if args.kind == "tkn":
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = [
            [n]
            + [formulas.count_for_ncycle(k, n) for k in range(n + 1)]
            + [""] * (n_max - n)
            for n in range(1, n_max + 1)
        ]
    elif args.kind == "transposition":
        header = ["n", "k=0", "k=3", "k=4"]
        rows = [
            [n] + [formulas.transposition_count(k, n) for k in (0, 3, 4)]
            for n in range(2, n_max + 1)
        ]
    else:
        m_max = n_max
        header = ["m"] + [f"j={j}" for j in range(m_max + 1)]
        rows = [
            [m]
            + [formulas.fpf_involution_count(2 * j, m) for j in range(m + 1)]
            + [""] * (m_max - m)
            for m in range(2, m_max + 1)
        ]
    _write_csv(header, rows)
    return EXIT_OK


def run_gf(args) -> int:
    from . import series

    n_max = args.n_max
    if not 1 <= n_max <= 20:
        raise ValueError("--n-max must be between 1 and 20")
    if args.kind == "tkn":
        s = series.ncycle_egf(n_max)
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = [
            [n] + [series.ncycle_egf_coeff(s, n, k) for k in range(n_max + 1)]
            for n in range(1, n_max + 1)
        ]
    else:
        if n_max < 2:
            raise ValueError("fpf generating function needs --n-max >= 2")
        s = series.fpf_involution_egf(n_max)
        header = ["m"] + [f"j={j}" for j in range(n_max + 1)]
        rows = [
            [m] + [series.fpf_involution_egf_coeff(s, m, j) for j in range(n_max + 1)]
            for m in range(n_max + 1)
        ]
    _write_csv(header, rows)
    return EXIT_OK


# -- OEIS ------------------------------------------------------------------


def _oeis_terms(sequence: str, count: int) -> list[int]:
    if count > _OEIS_CAPS[sequence]:
        raise ValueError(f"at most {_OEIS_CAPS[sequence]} terms")
    if sequence == "A000757":
        return [formulas.successor_free_cycles(k) for k in range(count)]
    if sequence == "A053871":
        return [formulas.deranged_matchings(j) for j in range(count)]
    if sequence == "A233440":
        triangle = (
            formulas.count_for_ncycle(k, n)
            for n in itertools.count(1)
            for k in range(n + 1)
        )
        return list(itertools.islice(triangle, count))
    k = {"A208529": 0, "A208528": 3, "A098916": 4}[sequence]
    return [formulas.transposition_count(k, n) for n in range(2, count + 2)]


def run_oeis(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    for term in _oeis_terms(args.sequence, args.count):
        print(term)
    return EXIT_OK


# -- entry point ------------------------------------------------------------


_RUNNERS: dict[str, Callable] = {
    "count": run_count,
    "enumerate": run_enumerate,
    "verify": run_verify,
    "table": run_table,
    "gf": run_gf,
    "oeis": run_oeis,
}


def main(argv: list[str] | None = None) -> int:
    args = _direct_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    # counts are exact integers of any length; Python otherwise refuses to
    # print one of more than 4300 digits (the limit came in 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = _RUNNERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`), which is not an error;
        # point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except formulas.NoClosedFormError as e:
        print(f"kommute: {e}", file=sys.stderr)
        return EXIT_NO_CLOSED_FORM
    except (ParseError, ValueError) as e:
        print(f"kommute: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ArithmeticError) as e:
        print(f"kommute: internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
