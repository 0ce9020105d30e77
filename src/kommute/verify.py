"""
The verification matrix: the closed forms, generating functions,
enumerators and block invariants checked against exhaustive counts at
small degree.

Two exhaustive sources serve the checks, each memoised for one run.
``oracle.distribution`` gives each distinct beta's histogram and profile
counts from its conjugacy class; the enumerator checks compare these with
``construct``'s per-lead word streams, which ``kommute enumerate`` prints.
``_walk`` walks S_n once per beta over ``oracle._scan``'s zero-based words
and serves everything that needs each alpha: the block characterization
and its profile invariants, the image cycle census and the even/odd split
at each distance.  The walk builds no Permutation unless a pair fails.

``verification_checks`` checks its arguments and fixes the brute-force
cap when called, and returns a lazy stream of (name, failures) pairs: each
check runs only when the stream is advanced to it, so a caller can report
each verdict as soon as its check finishes and stop early.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from . import blocks, construct, formulas, oracle
from .perm import CycleType, Permutation, lex_parities


def _representatives(n_max: int) -> Iterable[tuple[int, CycleType, Permutation]]:
    for n in range(2, n_max + 1):
        yield from _degree_representatives(n)


@functools.lru_cache(maxsize=None)
def _degree_representatives(n: int) -> tuple[tuple[int, CycleType, Permutation], ...]:
    # built once and shared by every check that reads degree n
    return tuple((n, t, t.representative()) for t in CycleType.all_types(n))


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


def _check_pairs(n_max, walk) -> list[tuple[str, list[str]]]:
    walks = [walk(beta) for _, _, beta in _representatives(min(n_max, 6))]
    return [
        ("block characterization and profile invariants", [f for w in walks for f in w.block_bad]),
        ("image cycle census", [f for w in walks for f in w.census_bad]),
    ]


class _Walk(NamedTuple):
    """What the checks read from one walk of S_n against beta."""

    block_bad: list[str]  # the block characterization's failures
    census_bad: list[str]  # the image cycle census's, on n <= 5
    parity: list[tuple[int, int]]  # (even, odd) alphas at each distance 0..n


def _walk(beta: Permutation) -> _Walk:
    # One scan of S_n, in oracle._scan's zero-based words, for every check
    # that needs each alpha; a Permutation is built only for a failure.
    # Each alpha's bad points come from the scan, and its distance k =
    # H(alpha*beta, beta*alpha) from the two composed words, so the bad
    # counts adding up to k stays a real check.  The block characterization
    # is local to a cycle of beta, and so is the distance: each cycle is
    # decided once per (cycle, alpha's images on it, its bad points), a key
    # shared by many pairs, and the verdicts go through ``blocks._fold``.
    # A bad set's split over the cycles and its profile are found once, the
    # profile invariants once per (bad points, distance).  Census, on every
    # pair with n <= 5, with no memo (one saved nothing): the cycles holding
    # a bad point and those holding an image of one have equal lengths
    n = beta.degree
    w = beta.word
    cycles, host = blocks._frame(w)
    points = [frozenset(cycle) for cycle in cycles]
    gets = [operator.itemgetter(*cycle) for cycle in cycles]
    # alpha's images of n - 1 points fix alpha, so a cycle that long never
    # repeats a key: it is decided directly, with no memo (a memo there took
    # the same time and raised the peak RSS of ``verify --n-max 8
    # --max-brute-n 8`` from 14.11 to 14.23 MB, medians of 9 processes)
    memos = [None if len(cycle) >= n - 1 else {} for cycle in cycles]
    max_len = max(map(len, cycles))
    bound = formulas.support_bound(beta.cycle_type())
    odd = lex_parities(n)
    tally = [0] * (2 * n + 2)  # alphas at distance k: even at 2k, odd at 2k + 1
    # bad -> ((cycle, get, memo, its bad points), profile, {k: broken invariants})
    bad_sets: dict = {}
    block_bad, census_bad = [], []
    for is_odd, (bad, a) in zip(odd, oracle._scan(w)):
        entry = bad_sets.get(bad)
        if entry is None:
            split = list(zip(cycles, gets, memos, [s.intersection(bad) for s in points]))
            entry = bad_sets[bad] = (split, blocks._profile(bad, cycles), {})
        if n <= 5 and _touched(bad, cycles) != _touched(map(a.__getitem__, bad), cycles):
            census_bad.append(f"image census: alpha={Permutation._from_word(a)} beta={beta}")
        k = 0
        verdicts = []
        for cycle, get, memo, part in entry[0]:
            if memo is None:
                d, verdict = _decided(a, cycle, part, w, host)
            else:
                key = get(a), part
                decided = memo.get(key)
                if decided is None:
                    decided = memo[key] = _decided(a, cycle, part, w, host)
                d, verdict = decided
            k += d
            verdicts.append(verdict)
        tally[2 * k + is_odd] += 1
        if not blocks._fold(verdicts, k):
            broken = ["characterization fails"]
        else:
            broken = entry[2].get(k)
            if broken is None:
                broken = _broken_invariants(entry[1], bad, k, cycles, max_len, bound)
                entry[2][k] = broken
        for what in broken:
            block_bad.append(f"{what}: alpha={Permutation._from_word(a)} beta={beta}")
    parity = [(tally[2 * k], tally[2 * k + 1]) for k in range(n + 1)]
    return _Walk(block_bad, census_bad, parity)


def _decided(a, cycle, part, w, host) -> tuple[int, tuple[int, int] | None]:
    # one cycle of beta against alpha's word ``a``, given its bad points
    # ``part``: how many of its points alpha*beta and beta*alpha move
    # differently, and its ``blocks._cycle_verdict``
    d = sum([a[w[p]] != w[a[p]] for p in cycle])
    return d, blocks._cycle_verdict(a, cycle, part, w, host)


def _touched(marked, cycles) -> list[int]:
    # the lengths of the cycles holding a marked point
    marked = set(marked)
    return sorted(len(c) for c in cycles if not marked.isdisjoint(c))


def _broken_invariants(prof, bad, k, cycles, max_len, bound) -> list[str]:
    # the profile invariants a pair with bad points ``bad``, of profile
    # ``prof`` on ``cycles`` in the same base, at distance k breaks
    broken = []
    if sum(prof) != k:
        broken.append("profile sum != distance")
    if k and set(prof) == {1}:
        broken.append("all-ones profile")
    if 1 in prof and (len(prof) < 2 or prof[0] < 2):
        broken.append("lonely 1-part")
    if k > bound:
        broken.append("distance above support bound")
    for cycle in cycles:
        if len(cycle) == max_len and sum(p in bad for p in cycle) == 1:
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


_CONJUGATION_TAUS, _CONJUGATION_SEED = 5, 2024  # random relabelings per beta, their seed


def _check_conjugation_invariance(n_max, hist) -> list[str]:
    bad = []
    rng = random.Random(_CONJUGATION_SEED)
    for n, t, beta in _representatives(min(n_max, 6)):
        want = hist(beta).counts
        for _ in range(_CONJUGATION_TAUS):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            tau = Permutation(images)
            if hist(beta.conjugate_by(tau)).counts != want:
                bad.append(f"conjugation changes counts: beta={beta} tau={tau}")
    return bad


def _check_parity_split(n_max, walk, hist) -> list[str]:
    bad = []
    for n, t, beta in _representatives(min(n_max, 6)):
        if t.has_distinct_odd_parts():
            continue
        split = walk(beta).parity
        for k, total in hist(beta).counts.items():
            if not total:
                continue
            even, odd = split[k]
            if even != odd or even + odd != total:
                bad.append(f"parity split n={n} type={t.parts()} k={k}: {even}/{odd}")
    return bad


def _check_single_cycle_enumerator(hist, bound) -> list[str]:
    # the cases within the brute-force cap, by profile (k,)
    cases = [
        Permutation.from_cycles([(1, 2, 3, 4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3), (4, 5, 6)], 6),
        Permutation.from_cycles([(1, 2, 3, 4, 5)], 5),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    ]
    bad = []
    for beta in [beta for beta in cases if beta.degree <= bound]:
        profiles = hist(beta).profiles
        for k in (3, 4, 5):
            bad += _enumerator_failures(
                "single-cycle", f"beta={beta} k={k}", construct.single_cycle_leads(beta, k),
                profiles[(k,)], lambda alpha: blocks.profile(alpha, beta) == (k,),
                formulas.single_cycle_count(beta.cycle_type(), k),
            )
    return bad


def _check_fpf_enumerator(hist, bound) -> list[str]:
    # m = 2 and 3, within the brute-force cap, by distance 2j
    bad = []
    for m in range(2, min(3, bound // 2) + 1):
        beta = CycleType.from_parts([2] * m).representative()
        dist = hist(beta)
        for j in range(m + 1):
            bad += _enumerator_failures(
                "fpf", f"m={m} j={j}", construct.fpf_leads(beta, j),
                dist[2 * j], lambda alpha: alpha.commute_distance(beta) == 2 * j,
                formulas.fpf_involution_count(2 * j, m),
            )
    return bad


def _enumerator_failures(kind, case, leads, size, belongs, count) -> list[str]:
    # One case's per-lead words against its exhaustive bucket, of ``size``
    # alphas that ``belongs`` picks, and its closed form ``count``: the
    # constructed set equals the bucket when it has no repeats, each alpha
    # in it belongs, and it is as large as the bucket
    got = Counter(map(Permutation._from_word, itertools.chain.from_iterable(leads)))
    bad = []
    if got.total() != len(got):
        bad.append(f"duplicate choices: {case}")
    if len(got) != size or not all(map(belongs, got)):
        bad.append(f"{kind} set mismatch: {case}")
    if len(got) != count:
        bad.append(f"{kind} count mismatch: {case}")
    return bad


def _check_egfs(n_max, tkn) -> list[str]:
    # the last check, so series loads after every other verdict
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


def _check_n_max(n_max: int, max_n: int | None, name: str = "n_max", knob: str = "max_n") -> int:
    # the cap in force, once ``n_max`` is checked against it; ``name`` and
    # ``knob`` name the degree and the cap as the caller's user sets them
    bound = oracle.exhaustive_bound(max_n)
    if n_max < 2:
        raise ValueError(f"{name} must be between 2 and {bound}")
    if n_max > bound:
        raise ValueError(
            f"{name} {n_max} exceeds the brute-force cap {bound}; "
            f"raise it with {knob} or {oracle.ENV_MAX_DEGREE}"
        )
    oracle._check_histogram_degree(n_max)
    return bound


def verification_checks(
    n_max: int, max_n: int | None = None, corrupt_f: bool = False
) -> Iterator[tuple[str, list[str]]]:
    """
    All identity checks as (name, failures) pairs, empty failures = pass,
    in a fixed order.  ``n_max`` must lie in [2, the exhaustive bound]
    (``max_n``, else KOMMUTE_MAX_BRUTE_N, else 8) and not exceed the
    histogram's ceiling ``oracle.HISTOGRAM_MAX_DEGREE``, else ``ValueError``
    at call time.  The bound is fixed then, so a later change to
    KOMMUTE_MAX_BRUTE_N reaches no check; the checks themselves run one at
    a time as the returned iterator is advanced.  ``corrupt_f`` is a
    negative control: T(5, n) is computed with f(5) + 1 successor-free
    5-cycles, so the checks reading it fail.

    >>> [name for name, failures in verification_checks(3) if failures]
    []
    """
    return _run_checks(n_max, _check_n_max(n_max, max_n), corrupt_f)


def _run_checks(n_max, bound, corrupt_f) -> Iterator[tuple[str, list[str]]]:
    # ``n_max`` checked against the cap ``bound``.  One exhaustive scan per
    # distinct beta, shared by every histogram check
    @functools.lru_cache(maxsize=None)
    def hist(beta: Permutation) -> oracle.KDistribution:
        return oracle.distribution(beta, max_degree=bound)

    # one walk of S_n per beta of degree min(n_max, 6) or less, shared by
    # the pair and parity checks
    @functools.lru_cache(maxsize=None)
    def walk(beta: Permutation) -> _Walk:
        return _walk(beta)

    def tkn(k: int, n: int) -> int:
        if corrupt_f and k == 5:
            return n * math.comb(n, 5) * (formulas.successor_free_cycles(5) + 1)
        return formulas.count_for_ncycle(k, n)

    yield "closed forms k<=4 vs brute force", _check_formula_matrix(n_max, hist)
    yield "distance-4 profile components vs brute force", _check_profile_components(n_max, hist)
    yield "n-cycle counts T(k,n) vs brute force", _check_ncycle(n_max, hist, tkn)
    yield "transposition counts vs brute force", _check_transposition(n_max, hist)
    yield "fixed-point-free involution counts vs brute force", _check_fpf(n_max, hist)
    yield from _check_pairs(n_max, walk)
    yield "counts divisible by centralizer order", _check_centralizer_divisibility(n_max, hist)
    yield "conjugation invariance of counts", _check_conjugation_invariance(n_max, hist)
    yield "even/odd split", _check_parity_split(n_max, walk, hist)
    yield "single-cycle enumerator vs brute filter", _check_single_cycle_enumerator(hist, bound)
    yield "fpf enumerator vs brute filter", _check_fpf_enumerator(hist, bound)
    yield "generating function coefficients", _check_egfs(n_max, tkn)
