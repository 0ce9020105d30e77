"""
The verification matrix: the closed forms, generating functions,
enumerators and block invariants checked against exhaustive counts at
small degree, one exhaustive scan per distinct beta.

``verification_checks`` checks its arguments when called and returns a
lazy stream of (name, failures) pairs: each check runs only when the
stream is advanced to it, so a caller can report each verdict as soon as
its check finishes and stop early without running the rest.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from typing import Iterable, Iterator

from . import blocks, construct, formulas, oracle
from .perm import CycleType, Permutation


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


def _check_pairs(n_max, max_n) -> list[tuple[str, list[str]]]:
    # one walk of S_n per beta (n <= 6) for both per-pair checks, with the
    # bad points and the distance of each pair computed once.  The block
    # characterization is local to a cycle of beta, so each cycle's verdict
    # is decided once per (cycle, alpha's images on it, its bad points) and
    # shared by the pairs with that key; the profile invariants depend on
    # (bad points, distance) alone and are checked once per such pair.
    # Census, on n <= 5 and also on pairs that fail the characterization:
    # the cycles holding a bad point and those holding an image of one have
    # equal lengths
    block_bad, census_bad = [], []
    for n, t, beta in _representatives(min(n_max, 6)):
        w = beta.word
        cycles, host = blocks._frame(w)
        local = [
            (cycle, operator.itemgetter(*[p - 1 for p in cycle]), frozenset(cycle))
            for cycle in cycles
        ]
        max_len = max(len(c) for c in cycles)
        bound = formulas.support_bound(t)
        # this beta's shared results, dropped when its walk ends
        verdicts: dict = {}
        invariants: dict[tuple[frozenset[int], int], list[str]] = {}

        def decide(i, a, bp):
            # cycle i's verdict.  alpha's images of n - 1 points fix alpha,
            # so a cycle that long never repeats a key: decide it directly
            cycle, get, points = local[i]
            if len(cycle) >= n - 1:
                return blocks._cycle_verdict(a, cycle, bp, w, host)
            key = (i, get(a), bp & points)
            if key not in verdicts:
                verdicts[key] = blocks._cycle_verdict(a, cycle, key[2], w, host)
            return verdicts[key]

        for alpha in oracle.enumerate_sn(n, max_degree=max_n):
            bp = blocks.bad_points(alpha, beta)
            k = alpha.commute_distance(beta)
            if n <= 5:
                images = {alpha(p) for p in bp}
                touched = sorted(len(c) for c in cycles if not bp.isdisjoint(c))
                if touched != sorted(len(c) for c in cycles if not images.isdisjoint(c)):
                    census_bad.append(f"image census: alpha={alpha} beta={beta}")
            a = alpha.word
            if not blocks._fold((decide(i, a, bp) for i in range(len(cycles))), k):
                block_bad.append(f"characterization fails: alpha={alpha} beta={beta}")
                continue
            if (bp, k) not in invariants:
                invariants[bp, k] = _broken_invariants(bp, k, cycles, max_len, bound)
            for what in invariants[bp, k]:
                block_bad.append(f"{what}: alpha={alpha} beta={beta}")
    return [
        ("block characterization and profile invariants", block_bad),
        ("image cycle census", census_bad),
    ]


def _broken_invariants(bp, k, cycles, max_len, bound) -> list[str]:
    # the profile invariants a pair with bad points bp at distance k breaks
    broken = []
    prof = blocks._profile(bp, cycles)
    if sum(prof) != k:
        broken.append("profile sum != distance")
    if k and set(prof) == {1}:
        broken.append("all-ones profile")
    if 1 in prof and (len(prof) < 2 or prof[0] < 2):
        broken.append("lonely 1-part")
    if k > bound:
        broken.append("distance above support bound")
    for cycle in cycles:
        if len(cycle) == max_len and sum(p in bp for p in cycle) == 1:
            broken.append("1 bad point on max cycle")
    return broken


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
            if hist(beta.conjugate_by(tau)).counts != want:
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
    # the cases within the brute-force cap
    bound = oracle.exhaustive_bound(max_n)
    bad = []
    cases = [
        Permutation.from_cycles([(1, 2, 3, 4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3), (4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3, 4, 5)], 5),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    ]
    for beta in [beta for beta in cases if beta.degree <= bound]:
        # one scan of S_n per beta, bucketed by profile
        wants = oracle._bucket(beta, oracle._profile_key(beta), [(3,), (4,), (5,)], max_n)
        for k in (3, 4, 5):
            pairs = list(construct.single_cycle_pairs(beta, k))
            got = {alpha for _, alpha in pairs}
            if len(pairs) != len(got):
                bad.append(f"duplicate choices: beta={beta} k={k}")
            if got != wants[(k,)]:
                bad.append(f"single-cycle set mismatch: beta={beta} k={k}")
            if len(got) != formulas.single_cycle_count(beta.cycle_type(), k):
                bad.append(f"single-cycle count mismatch: beta={beta} k={k}")
    return bad


def _check_fpf_enumerator(max_n) -> list[str]:
    # m = 2 and 3, within the brute-force cap
    bad = []
    for m in range(2, min(3, oracle.exhaustive_bound(max_n) // 2) + 1):
        beta = CycleType.from_parts([2] * m).representative()
        # one scan of S_n per beta, bucketed by distance
        wants = oracle._bucket(beta, len, range(0, 2 * m + 1, 2), max_n)
        for j in range(m + 1):
            pairs = list(construct.fpf_pairs(beta, j))
            got = {alpha for _, alpha in pairs}
            if len(pairs) != len(got):
                bad.append(f"duplicate choices: m={m} j={j}")
            if got != wants[2 * j]:
                bad.append(f"fpf set mismatch: m={m} j={j}")
            if len(got) != formulas.fpf_involution_count(2 * j, m):
                bad.append(f"fpf count mismatch: m={m} j={j}")
    return bad


def _check_egfs(n_max, tkn) -> list[str]:
    # the last check, so series and fractions load after every other verdict
    from . import series

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
    if not series.successor_free_egf_ok(9):
        bad.append("successor-free cycle EGF identity fails at order 9")
    return bad


def verification_checks(
    n_max: int,
    jobs: int = 1,
    max_n: int | None = None,
    f_override: dict[int, int] | None = None,
) -> Iterator[tuple[str, list[str]]]:
    """
    All identity checks as (name, failures) pairs, empty failures = pass,
    in a fixed order.  ``n_max`` must lie in [2, the exhaustive bound],
    else ``ValueError`` at call time; the checks themselves run one at a
    time as the returned iterator is advanced.  ``f_override`` replaces
    f(k) in T(k, n), as a negative control.

    >>> [name for name, failures in verification_checks(3) if failures]
    []
    """
    bound = oracle.exhaustive_bound(max_n)
    if n_max < 2:
        raise ValueError(f"--n-max must be between 2 and {bound}")
    if n_max > bound:
        raise ValueError(
            f"--n-max {n_max} exceeds the brute-force cap {bound}; "
            f"raise it with --max-brute-n or {oracle.ENV_MAX_DEGREE}"
        )
    return _run_checks(n_max, jobs, max_n, f_override)


def _run_checks(n_max, jobs, max_n, f_override) -> Iterator[tuple[str, list[str]]]:
    # one exhaustive scan per distinct beta, shared by every histogram check
    @functools.lru_cache(maxsize=None)
    def hist(beta: Permutation) -> oracle.KDistribution:
        return oracle.distribution(beta, jobs=jobs, max_degree=max_n)

    def tkn(k: int, n: int) -> int:
        if f_override and k in f_override:
            return n * math.comb(n, k) * f_override[k]
        return formulas.count_for_ncycle(k, n)

    yield "closed forms k<=4 vs brute force", _check_formula_matrix(n_max, hist)
    yield "distance-4 profile components vs brute force", _check_profile_components(n_max, hist)
    yield "n-cycle counts T(k,n) vs brute force", _check_ncycle(n_max, hist, tkn)
    yield "transposition counts vs brute force", _check_transposition(n_max, hist)
    yield "fixed-point-free involution counts vs brute force", _check_fpf(n_max, hist)
    yield from _check_pairs(n_max, max_n)
    yield "counts divisible by centralizer order", _check_centralizer_divisibility(n_max, hist)
    yield "conjugation invariance of counts", _check_conjugation_invariance(n_max, hist)
    yield "even/odd split", _check_parity_split(n_max, max_n, hist)
    yield "single-cycle enumerator vs brute filter", _check_single_cycle_enumerator(max_n)
    yield "fpf enumerator vs brute filter", _check_fpf_enumerator(max_n)
    yield "generating function coefficients", _check_egfs(n_max, tkn)
