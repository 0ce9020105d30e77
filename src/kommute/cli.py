"""
Command-line interface.

Subcommands:

* ``count``      exact count at one distance, by formula or brute force
* ``enumerate``  stream the constructively generated witnesses
* ``verify``     run the formula-vs-brute matrix and every invariant check
* ``table``      CSV tables of the closed-form counts
* ``gf``         CSV of generating-function coefficients (factorials cleared)
* ``oeis``       terms of the related OEIS sequences, one per line

Exit codes: 0 success, 1 usage or parse error, 2 no closed form applies,
3 a verification or internal invariant failed.  All counts in JSON are
decimal strings, CSV uses a header row and LF line endings, and output is
byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import random
import sys
from typing import Callable, Iterable, Sequence

from . import blocks, construct, formulas, oracle, series
from .perm import CycleType, ParseError, Permutation, parse_permutation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CLOSED_FORM = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is taken, so use 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kommute",
        description="permutations at a given Hamming commutation distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count permutations at distance k from beta")
    p.add_argument("--beta", required=True, help="cycle notation, e.g. '(1 2)(3 4 5)'")
    p.add_argument("--n", type=int, required=True, help="degree of beta")
    p.add_argument("--k", type=int, required=True, help="commutation distance")
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for brute")
    p.add_argument("--max-brute-n", type=int, default=None, help="raise the brute-force degree cap")

    p = sub.add_parser("enumerate", help="stream constructively built witnesses")
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("single", "fpf"),
        default="single",
        help="single: all bad points in one cycle; fpf: beta an involution without fixed points",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON record per line")

    p = sub.add_parser("verify", help="run every identity check and report pass/fail")
    p.add_argument("--n-max", type=int, default=6, help="largest degree to verify (<= brute cap)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-brute-n", type=int, default=None)
    p.add_argument(
        "--corrupt-f",
        action="store_true",
        help="negative control: corrupt one successor-free cycle count to show failure reporting",
    )

    p = sub.add_parser("table", help="CSV table of closed-form counts")
    p.add_argument("--kind", choices=("tkn", "transposition", "fpf"), required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("gf", help="CSV of generating-function coefficients")
    p.add_argument("--kind", choices=("tkn", "fpf"), required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("oeis", help="terms of a related OEIS sequence, one per line")
    p.add_argument(
        "--sequence",
        required=True,
        choices=("A000757", "A053871", "A233440", "A208529", "A208528", "A098916"),
    )
    p.add_argument("--count", type=int, required=True, help="number of terms")
    return parser


# -- count ---------------------------------------------------------------


def run_count(args) -> int:
    beta = parse_permutation(args.beta, args.n)
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    if args.method == "formula":
        result = formulas.count(beta.cycle_type(), args.k)
        value, provenance = result.value, result.provenance
    else:
        dist = oracle.distribution(beta, jobs=args.jobs, max_degree=args.max_brute_n)
        value, provenance = dist[args.k], "exhaustive"
    print(
        json.dumps(
            {
                "n": args.n,
                "beta": beta.cycle_string(),
                "k": args.k,
                "count": str(value),
                "method": args.method,
                "provenance": provenance,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# -- enumerate -----------------------------------------------------------


def run_enumerate(args) -> int:
    beta = parse_permutation(args.beta, args.n)
    if args.mode == "single":
        found = construct.enumerate_single_cycle(beta, args.k)
    else:
        if args.k % 2:
            raise ValueError("fpf distances are even; got odd k")
        found = construct.enumerate_fpf(beta, args.k // 2)
    for alpha in sorted(found, key=lambda a: a.images):
        if args.json:
            record = {
                "alpha": alpha.cycle_string(),
                "bad_points": sorted(blocks.bad_points(alpha, beta)),
            }
            print(json.dumps(record, sort_keys=True))
        else:
            print(alpha.cycle_string())
    return EXIT_OK


# -- verify --------------------------------------------------------------


def _representatives(n_max: int) -> Iterable[tuple[int, CycleType, Permutation]]:
    for n in range(2, n_max + 1):
        for t in CycleType.all_types(n):
            yield n, t, t.representative()


def _check_formula_matrix(n_max, hist) -> list[str]:
    bad = []
    for n, t, beta in _representatives(n_max):
        dist = hist(beta)
        if formulas.count_k0(t) != dist[0]:
            bad.append(f"c(0) n={n} type={t.parts()}: {formulas.count_k0(t)} != {dist[0]}")
        if dist[1] or dist[2]:
            bad.append(f"c(1)/c(2) nonzero for n={n} type={t.parts()}")
        if formulas.count_k3(t) != dist[3]:
            bad.append(f"c(3) n={n} type={t.parts()}: {formulas.count_k3(t)} != {dist[3]}")
        if formulas.count_k4(t) != dist[4]:
            bad.append(f"c(4) n={n} type={t.parts()}: {formulas.count_k4(t)} != {dist[4]}")
        if dist.total() != math.factorial(n):
            bad.append(f"counts sum != n! for n={n} type={t.parts()}")
    return bad


def _check_profile_components(n_max, hist) -> list[str]:
    bad = []
    for n, t, beta in _representatives(min(n_max, 7)):
        dist = hist(beta)
        parts = formulas.count_k4_parts(t)
        for prof, want in parts.items():
            got = dist.profiles[prof]
            if want != got:
                bad.append(f"c(4) profile {prof} n={n} type={t.parts()}: {want} != {got}")
        if dist[4] != sum(parts.values()):
            bad.append(f"c(4) profile totals n={n} type={t.parts()}")
    return bad


def _check_ncycle(n_max, hist, tkn) -> list[str]:
    bad = []
    for n in range(1, n_max + 1):
        dist = hist(Permutation.from_cycles([tuple(range(1, n + 1))], n))
        for k in range(n + 1):
            if tkn(k, n) != dist[k]:
                bad.append(f"T({k},{n}) = {tkn(k, n)} != brute {dist[k]}")
    for n in range(1, 13):
        if sum(tkn(k, n) for k in range(n + 1)) != math.factorial(n):
            bad.append(f"sum_k T(k,{n}) != {n}!")
    return bad


def _check_transposition(n_max, hist) -> list[str]:
    bad = []
    for n in range(2, n_max + 1):
        dist = hist(Permutation.from_cycles([(1, 2)], n))
        for k in range(n + 1):
            want = formulas.transposition_count(k, n)
            if want != dist[k]:
                bad.append(f"transposition n={n} k={k}: {want} != {dist[k]}")
    return bad


def _check_fpf(n_max, hist) -> list[str]:
    bad = []
    for m in range(2, n_max // 2 + 1):
        dist = hist(CycleType.from_parts([2] * m).representative())
        for k in range(2 * m + 1):
            want = formulas.fpf_involution_count(k, m)
            if want != dist[k]:
                bad.append(f"fpf m={m} k={k}: {want} != {dist[k]}")
    return bad


def _check_blocks(n_max, max_n) -> list[str]:
    bad = []
    for n, t, beta in _representatives(min(n_max, 6)):
        cycles = beta.cycles()
        max_len = max(len(c) for c in cycles)
        bound = formulas.support_bound(t)
        for alpha in oracle.enumerate_sn(n, max_degree=max_n):
            if not blocks.verify_characterization(alpha, beta):
                bad.append(f"characterization fails: alpha={alpha} beta={beta}")
                continue
            prof = blocks.profile(alpha, beta)
            k = alpha.commute_distance(beta)
            if sum(prof) != k:
                bad.append(f"profile sum != distance: alpha={alpha} beta={beta}")
            if k and set(prof) == {1}:
                bad.append(f"all-ones profile: alpha={alpha} beta={beta}")
            if 1 in prof and (len(prof) < 2 or prof[0] < 2):
                bad.append(f"lonely 1-part: alpha={alpha} beta={beta}")
            if k > bound:
                bad.append(f"distance above support bound: alpha={alpha} beta={beta}")
            bp = blocks.bad_points(alpha, beta)
            for cycle in cycles:
                if len(cycle) == max_len and sum(p in bp for p in cycle) == 1:
                    bad.append(f"1 bad point on max cycle: alpha={alpha} beta={beta}")
    return bad


def _check_image_census(n_max, max_n) -> list[str]:
    bad = []
    for n, t, beta in _representatives(min(n_max, 5)):
        cycles = beta.cycles()
        for alpha in oracle.enumerate_sn(n, max_degree=max_n):
            bp = blocks.bad_points(alpha, beta)
            images = {alpha(p) for p in bp}
            touched: dict[int, int] = {}
            hit: dict[int, int] = {}
            for cycle in cycles:
                length = len(cycle)
                if any(p in bp for p in cycle):
                    touched[length] = touched.get(length, 0) + 1
                if any(p in images for p in cycle):
                    hit[length] = hit.get(length, 0) + 1
            if touched != hit:
                bad.append(f"image census: alpha={alpha} beta={beta}")
    return bad


def _check_centralizer_divisibility(n_max, hist) -> list[str]:
    bad = []
    for n, t, beta in _representatives(n_max):
        order = t.centralizer_order()
        for k, c in hist(beta).counts.items():
            if c % order:
                bad.append(f"count not divisible n={n} type={t.parts()} k={k}")
    return bad


def _check_conjugation_invariance(n_max, hist, taus=5, seed=2024) -> list[str]:
    bad = []
    rng = random.Random(seed)
    for n, t, beta in _representatives(min(n_max, 6)):
        want = hist(beta).counts
        for _ in range(taus):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            tau = Permutation(images)
            conj = beta.conjugate_by(tau)
            got = hist(conj).counts
            if got != want:
                bad.append(f"conjugation changes counts: beta={beta} tau={tau}")
    return bad


def _check_parity_split(n_max, max_n, hist) -> list[str]:
    bad = []
    for n, t, beta in _representatives(min(n_max, 6)):
        if t.has_distinct_odd_parts():
            continue
        split = oracle.parity_split(beta, max_degree=max_n)
        for k, total in hist(beta).counts.items():
            if not total:
                continue
            even, odd = split[k]
            if even != odd or even + odd != total:
                bad.append(f"parity split n={n} type={t.parts()} k={k}: {even}/{odd}")
    return bad


def _check_single_cycle_enumerator(max_n) -> list[str]:
    bad = []
    cases = [
        Permutation.from_cycles([(1, 2, 3, 4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3), (4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3, 4, 5)], 5),
    ]
    for beta in cases:
        for k in (3, 4, 5):
            pairs = list(construct.single_cycle_pairs(beta, k))
            got = {alpha for _, alpha in pairs}
            if len(pairs) != len(got):
                bad.append(f"duplicate choices: beta={beta} k={k}")
            want = oracle.filter_by_profile(beta, (k,), max_degree=max_n)
            if got != want:
                bad.append(f"single-cycle set mismatch: beta={beta} k={k}")
            expected = formulas.single_cycle_count(beta.cycle_type(), k)
            if len(got) != expected:
                bad.append(f"single-cycle count mismatch: beta={beta} k={k}")
    return bad


def _check_fpf_enumerator(max_n) -> list[str]:
    bad = []
    for m in (2, 3):
        beta = CycleType.from_parts([2] * m).representative()
        for j in range(m + 1):
            got = construct.enumerate_fpf(beta, j)
            want = oracle.filter_by_distance(beta, 2 * j, max_degree=max_n)
            if got != want:
                bad.append(f"fpf set mismatch: m={m} j={j}")
            if len(got) != formulas.fpf_involution_count(2 * j, m):
                bad.append(f"fpf count mismatch: m={m} j={j}")
    return bad


def _check_egfs(n_max, tkn) -> list[str]:
    bad = []
    order = max(min(n_max + 2, 10), 3)
    s = series.ncycle_egf(order)
    for n in range(1, order + 1):
        for k in range(n + 1):
            got = series.ncycle_egf_coeff(s, n, k)
            if got != tkn(k, n):
                bad.append(f"T({k},{n}) EGF coefficient {got} != {tkn(k, n)}")
    t = series.fpf_involution_egf(max(min(n_max, 8), 2))
    for m in range(2, t.order_z + 1):
        for j in range(m + 1):
            got = series.fpf_involution_egf_coeff(t, m, j)
            want = formulas.fpf_involution_count(2 * j, m)
            if got != want:
                bad.append(f"fpf EGF ({m},{j}): {got} != {want}")
    if not series.deranged_matching_egf_ok(7):
        bad.append("deranged-matching EGF identity fails at order 7")
    if not _successor_free_egf_ok(9):
        bad.append("successor-free cycle EGF identity fails at order 9")
    return bad


def _successor_free_egf_ok(order: int) -> bool:
    from fractions import Fraction

    x = series.monomial(1, 0, order, 0)
    lhs = series.BivariateSeries(
        order,
        0,
        {
            (k, 0): Fraction(formulas.successor_free_cycles(k), math.factorial(k))
            for k in range(order + 1)
        },
    )
    rhs = series.exp(-x) * (series.one(order, 0) - series.log_one_plus(-x))
    return lhs == rhs


def verification_checks(
    n_max: int,
    jobs: int = 1,
    max_n: int | None = None,
    f_override: dict[int, int] | None = None,
) -> list[tuple[str, list[str]]]:
    """All identity checks as (name, failures) pairs, empty failures = pass."""

    # one exhaustive scan per distinct beta, shared by every histogram check
    @functools.lru_cache(maxsize=None)
    def hist(beta: Permutation) -> oracle.KDistribution:
        return oracle.distribution(beta, jobs=jobs, max_degree=max_n)

    def tkn(k: int, n: int) -> int:
        if f_override and k in f_override:
            return n * math.comb(n, k) * f_override[k]
        return formulas.count_for_ncycle(k, n)

    return [
        ("closed forms k<=4 vs brute force", _check_formula_matrix(n_max, hist)),
        ("distance-4 profile components vs brute force", _check_profile_components(n_max, hist)),
        ("n-cycle counts T(k,n) vs brute force", _check_ncycle(n_max, hist, tkn)),
        ("transposition counts vs brute force", _check_transposition(n_max, hist)),
        ("fixed-point-free involution counts vs brute force", _check_fpf(n_max, hist)),
        ("block characterization and profile invariants", _check_blocks(n_max, max_n)),
        ("image cycle census", _check_image_census(n_max, max_n)),
        ("counts divisible by centralizer order", _check_centralizer_divisibility(n_max, hist)),
        ("conjugation invariance of counts", _check_conjugation_invariance(n_max, hist)),
        ("even/odd split", _check_parity_split(n_max, max_n, hist)),
        ("single-cycle enumerator vs brute filter", _check_single_cycle_enumerator(max_n)),
        ("fpf enumerator vs brute filter", _check_fpf_enumerator(max_n)),
        ("generating function coefficients", _check_egfs(n_max, tkn)),
    ]


def run_verify(args) -> int:
    bound = oracle.exhaustive_bound(args.max_brute_n)
    if args.n_max > bound:
        raise ValueError(
            f"--n-max {args.n_max} exceeds the brute-force cap {bound}; "
            f"raise it with --max-brute-n or {oracle.ENV_MAX_DEGREE}"
        )
    f_override = None
    if args.corrupt_f:
        f_override = {5: formulas.successor_free_cycles(5) + 1}
    results = verification_checks(
        args.n_max, jobs=args.jobs, max_n=args.max_brute_n, f_override=f_override
    )
    failed = 0
    for name, failures in results:
        if failures:
            failed += 1
            print(f"FAIL {name} ({len(failures)} case(s))")
            for line in failures[:5]:
                print(f"     {line}")
            if len(failures) > 5:
                print(f"     ... and {len(failures) - 5} more")
        else:
            print(f"PASS {name}")
    print(f"{len(results) - failed}/{len(results)} checks passed (n_max={args.n_max})")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


# -- tables ----------------------------------------------------------------


def _write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


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
    if sequence == "A000757":
        if count > 500:
            raise ValueError("at most 500 terms")
        return [formulas.successor_free_cycles(k) for k in range(count)]
    if sequence == "A053871":
        if count > 500:
            raise ValueError("at most 500 terms")
        return [formulas.deranged_matchings(j) for j in range(count)]
    if sequence == "A233440":
        if count > 2000:
            raise ValueError("at most 2000 terms")
        triangle = (
            formulas.count_for_ncycle(k, n)
            for n in itertools.count(1)
            for k in range(n + 1)
        )
        return list(itertools.islice(triangle, count))
    if count > 200:
        raise ValueError("at most 200 terms")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _RUNNERS[args.command](args)
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
