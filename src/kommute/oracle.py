"""
Exhaustive ground truth at small degree.

Everything here counts by brute force over all n! permutations, so the
results are exact and independent of any closed formula in
:mod:`kommute.formulas`.  One scan, ``_scan``, walks S_n in the
lexicographic order of one-line words and yields each alpha with its bad
points; every function below reduces over it.  ``distribution`` shards
that order into contiguous index ranges and counts each shard into a
census of bad-point sets.  Censuses merge by addition, so the distance
histogram and the profile counts derived from the merged census are
identical for any shard or worker count.

Degrees are capped (default 8, so 40320 permutations per reference
permutation) to keep full verification in the seconds range; raise the cap
with the KOMMUTE_MAX_BRUTE_N environment variable or the ``max_degree``
arguments when you can wait.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from .blocks import as_profile
from .construct import perfect_matchings, successor_free_kcycles
from .perm import Permutation, all_permutations

DEFAULT_MAX_DEGREE = 8

ENV_MAX_DEGREE = "KOMMUTE_MAX_BRUTE_N"


def exhaustive_bound(max_degree: int | None = None) -> int:
    """The degree cap in force: explicit argument, else env var, else 8."""
    if max_degree is not None:
        return max_degree
    env = os.environ.get(ENV_MAX_DEGREE)
    return int(env) if env else DEFAULT_MAX_DEGREE


def _check_degree(n: int, max_degree: int | None) -> None:
    bound = exhaustive_bound(max_degree)
    if n > bound:
        raise ValueError(
            f"degree {n} exceeds the exhaustive bound {bound}; "
            f"raise it via {ENV_MAX_DEGREE} or max_degree if you mean it"
        )


def enumerate_sn(
    n: int,
    start: int = 0,
    stop: int | None = None,
    max_degree: int | None = None,
) -> Iterator[Permutation]:
    """
    Stream S_n in lexicographic one-line order, optionally restricted to
    the index range [start, stop) for sharded work.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    _check_degree(n, max_degree)
    yield from itertools.islice(all_permutations(n), start, stop)


def _scan(
    beta_word: tuple[int, ...], start: int, stop: int | None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # (zero-based bad points, one-line word) for each alpha in [start, stop)
    b = beta_word
    rng = range(len(b))
    for a in itertools.islice(itertools.permutations(rng), start, stop):
        yield tuple([i for i in rng if a[b[i]] != b[a[i]]]), a


def _census(task: tuple) -> Counter:
    # one shard: how many alpha have each bad-point set; pure, merged by addition
    return Counter(bad for bad, _ in _scan(*task))


def _cycle_of(beta: Permutation) -> dict[int, int]:
    # zero-based point -> index of its cycle in beta
    return {p - 1: c for c, cycle in enumerate(beta.cycles()) for p in cycle}


def _profile(bad: tuple[int, ...], cycle_of: dict[int, int]) -> tuple[int, ...]:
    return as_profile(Counter(cycle_of[i] for i in bad).values())


@dataclass(frozen=True)
class KDistribution:
    """
    Exact counts of permutations at each commutation distance from beta,
    and of permutations with each bad-point profile (all distances).
    """

    n: int
    beta: Permutation
    counts: dict[int, int]
    profiles: Counter[tuple[int, ...]]

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta.cycle_string(),
            "counts": {str(k): str(c) for k, c in sorted(self.counts.items()) if c},
        }


def distribution(
    beta: Permutation,
    jobs: int = 1,
    shards: int | None = None,
    max_degree: int | None = None,
) -> KDistribution:
    """
    The full histogram {k: #alpha at commutation distance k from beta} and
    the profile counts {profile: #alpha}, computed exhaustively.  ``jobs``
    > 1 fans the shards out over a process pool of at most ``jobs``
    workers, capped by the CPU and shard counts; the result does not
    depend on jobs or shard count.

    >>> {p: c for p, c in distribution(
    ...     Permutation.from_cycles([(1, 2, 3), (4, 5)], 5)
    ... ).profiles.items() if sum(p) == 3}
    {(3,): 6, (2, 1): 36}
    """
    n = beta.degree
    _check_degree(n, max_degree)
    total = math.factorial(n)
    if shards is None:
        shards = jobs if jobs > 1 else 1
    bounds = [(total * i) // shards for i in range(shards + 1)]
    tasks = [
        (beta.word, bounds[i], bounds[i + 1])
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]
    if jobs > 1:
        workers = min(jobs, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_census, tasks))
    else:
        partials = [_census(t) for t in tasks]
    census: Counter = sum(partials, Counter())
    counts = dict.fromkeys(range(n + 1), 0)
    profiles: Counter = Counter()
    cycle_of = _cycle_of(beta)
    for bad, c in census.items():
        counts[len(bad)] += c
        profiles[_profile(bad, cycle_of)] += c
    return KDistribution(n, beta, counts, profiles)


def count_by_profile(
    beta: Permutation, k: int, max_degree: int | None = None
) -> dict[tuple[int, ...], int]:
    """
    Exhaustive counts at distance k, split by the multiset of per-cycle
    bad-point counts (keys are decreasing tuples summing to k).
    """
    profiles = distribution(beta, max_degree=max_degree).profiles
    return {p: c for p, c in profiles.items() if sum(p) == k}


def filter_by_profile(
    beta: Permutation, profile: Sequence[int], max_degree: int | None = None
) -> set[Permutation]:
    """All alpha whose per-cycle bad-point multiset equals ``profile``."""
    _check_degree(beta.degree, max_degree)
    want = tuple(sorted(profile, reverse=True))
    cycle_of = _cycle_of(beta)
    return {
        Permutation._from_word(a)
        for bad, a in _scan(beta.word, 0, None)
        if _profile(bad, cycle_of) == want
    }


def filter_by_distance(
    beta: Permutation, k: int, max_degree: int | None = None
) -> set[Permutation]:
    """All alpha at commutation distance exactly k from beta."""
    _check_degree(beta.degree, max_degree)
    return {
        Permutation._from_word(a)
        for bad, a in _scan(beta.word, 0, None)
        if len(bad) == k
    }


def even_odd_split(
    beta: Permutation, k: int, max_degree: int | None = None
) -> tuple[int, int]:
    """(even, odd) counts among the permutations at distance k from beta."""
    _check_degree(beta.degree, max_degree)
    parities = [
        Permutation._from_word(a).is_even()
        for bad, a in _scan(beta.word, 0, None)
        if len(bad) == k
    ]
    even = sum(parities)
    return even, len(parities) - even


# -- auxiliary sequences, by direct enumeration -------------------------------


def successor_free_cycles(k: int) -> int:
    """
    Number of k-cycles sigma of {1..k} with sigma(i) != i+1 cyclically for
    every i (wrapping k+1 back to 1), counted by enumerating all (k-1)!
    k-cycles.  First values 0, 0, 1, 1, 8, 36, 229 for k = 1..7 (A000757).
    """
    if not 1 <= k <= 9:
        raise ValueError("brute-force count supported for 1 <= k <= 9")
    return sum(1 for _ in successor_free_kcycles(k))


def deranged_matchings(j: int) -> int:
    """
    Number of perfect matchings of 2j labeled points avoiding j given
    disjoint forbidden pairs, counted by enumerating all (2j-1)!!
    matchings.  First values 1, 0, 2, 8, 60, 544 for j = 0..5 (A053871).
    """
    if not 0 <= j <= 7:
        raise ValueError("brute-force count supported for 0 <= j <= 7")
    forbidden = {(2 * i, 2 * i + 1) for i in range(j)}
    return sum(
        not (set(m) & forbidden) for m in perfect_matchings(range(2 * j))
    )
