"""
Exhaustive ground truth at small degree.

Everything here counts every permutation alpha of S_n, so the results are
exact and independent of any closed formula in :mod:`kommute.formulas`.

``distribution`` walks beta's conjugacy class instead of S_n.  Write
gamma = alpha*beta*alpha^{-1} and D(gamma) = {y : gamma(y) != beta(y)}.  The
bad points of the pair are the alpha-preimages of D(gamma), so

* the commutation distance is d(alpha, beta) = H(alpha*beta*alpha^{-1},
  beta) = |D(gamma)|;
* alpha's profile is the multiset of |D(gamma) & c| over the cycles c of
  gamma;
* each gamma comes from exactly |C(beta)| values of alpha, C(beta) being
  the centralizer of beta.

So the histogram and the profile counts over S_n are |C(beta)| times those
over the n!/|C(beta)| elements of the class.  ``_class_walk`` generates
each element once by choosing the cycle through the smallest unused point
at every step.  It weighs each cycle once, when the cycle is chosen, and
every element below that choice shares the weight; ``distribution`` weighs
a cycle c of gamma by |D(gamma) & c|, so each element arrives as its
per-cycle bad counts.  The class is sharded on the first choice, the cycle
through point 1, and each shard is counted into a census of profiles;
censuses merge by addition, so the result is identical for any shard or
worker count.

The filters and ``parity_split`` need the actual alpha, so they reduce
over ``_scan``, which walks S_n in the lexicographic order of one-line
words and yields each alpha with its bad points.  ``_census`` over that
scan is the independent reference the class walk is tested against.

Degrees are capped (default 8, so 40320 permutations per reference
permutation) to keep full verification in the seconds range; raise the cap
with the KOMMUTE_MAX_BRUTE_N environment variable or the ``max_degree``
arguments when you can wait.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .blocks import _profile
from .construct import perfect_matchings, successor_free_kcycles
from .perm import Permutation, all_permutations

DEFAULT_MAX_DEGREE = 8

ENV_MAX_DEGREE = "KOMMUTE_MAX_BRUTE_N"

T = TypeVar("T")


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


def enumerate_sn(n: int, max_degree: int | None = None) -> Iterator[Permutation]:
    """Stream S_n in lexicographic one-line order."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    _check_degree(n, max_degree)
    yield from all_permutations(n)


def _scan(
    beta_word: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # (zero-based bad points, one-line word) for each alpha in S_n
    b = beta_word
    rng = range(len(b))
    for a in itertools.permutations(rng):
        yield tuple([i for i in rng if a[b[i]] != b[a[i]]]), a


def _census(beta_word: tuple[int, ...]) -> Counter:
    # how many alpha in S_n have each bad-point set
    return Counter(bad for bad, _ in _scan(beta_word))


def _choices(
    lengths: tuple[int, ...], points: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    # each cycle through points[0] with a length in `lengths`, with the
    # lengths and the points it leaves
    first, rest = points[0], points[1:]
    for length in sorted(set(lengths), reverse=True):
        i = lengths.index(length)
        others = lengths[:i] + lengths[i + 1 :]
        for tail in itertools.permutations(rest, length - 1):
            left = tuple([p for p in rest if p not in tail]) if others else ()
            yield (first,) + tail, others, left


def _class_walk(
    lengths: tuple[int, ...],
    points: tuple[int, ...],
    weigh: Callable[[tuple[int, ...]], T],
    start: int = 0,
    stop: int | None = None,
) -> Iterator[tuple[T, ...]]:
    """
    Every permutation of ``points`` whose cycle lengths are the multiset
    ``lengths``, once each, as the tuple of ``weigh(cycle)`` over its
    cycles.  The cycle through the smallest unused point is chosen first,
    so each element has one path; ``weigh`` runs once per choice, and every
    element below that choice shares its result.  The fixed points left
    after the last longer cycle are weighed once per walk, at their first
    use.  ``start`` and ``stop`` keep the first choices in that index range.

    >>> sum(1 for _ in _class_walk((2, 1), (0, 1, 2), tuple))
    3
    >>> next(_class_walk((2, 1), (0, 1, 2), tuple))
    ((0, 1), (2,))
    """
    weigh_fixed = functools.lru_cache(maxsize=None)(lambda p: weigh((p,)))
    return _walk(lengths, points, weigh, weigh_fixed, start, stop)


def _walk(
    lengths: tuple[int, ...],
    points: tuple[int, ...],
    weigh: Callable[[tuple[int, ...]], T],
    weigh_fixed: Callable[[int], T],
    start: int = 0,
    stop: int | None = None,
) -> Iterator[tuple[T, ...]]:
    # ``_class_walk`` with the leftover fixed points weighed by ``weigh_fixed``
    for cycle, others, left in itertools.islice(_choices(lengths, points), start, stop):
        head = (weigh(cycle),)
        if others.count(1) == len(others):
            # what is left are fixed points: one way to finish.  A list, not
            # tuple(map(...)): that over-allocates and shrinks each tuple,
            # and the shrunk tuples kept in the free lists cost 0.4 MB of
            # peak RSS in verify
            yield head + tuple([weigh_fixed(p) for p in left])
            continue
        for more in _walk(others, left, weigh, weigh_fixed):
            yield head + more


def _class_census(task: tuple) -> Counter:
    # one shard of beta's class: how many gamma have each profile; pure,
    # merged by addition
    b, lengths, start, stop = task
    image = b.__getitem__

    def weigh(c: tuple[int, ...]) -> int:
        # |D(gamma) & c|: gamma maps each point of the cycle c to the next one
        return sum(map(operator.ne, map(image, c), c[1:] + c[:1]))

    # the per-cycle counts of each gamma, in walk order
    walked = Counter(_class_walk(lengths, tuple(range(len(b))), weigh, start, stop))
    # sorted into profiles once per distinct tuple, not once per gamma
    census: Counter = Counter()
    for parts, c in walked.items():
        census[tuple(sorted([p for p in parts if p], reverse=True))] += c
    return census


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
    the profile counts {profile: #alpha}, computed exhaustively from beta's
    conjugacy class.  ``jobs`` > 1 fans the shards out over a process pool
    of at most ``jobs`` workers, capped by the CPU and shard counts; the
    result does not depend on jobs or shard count.

    >>> {p: c for p, c in distribution(
    ...     Permutation.from_cycles([(1, 2, 3), (4, 5)], 5)
    ... ).profiles.items() if sum(p) == 3}
    {(3,): 6, (2, 1): 36}
    """
    n = beta.degree
    _check_degree(n, max_degree)
    ctype = beta.cycle_type()
    lengths = ctype.parts()
    firsts = sum(math.perm(n - 1, length - 1) for length in set(lengths))
    if shards is None:
        shards = jobs if jobs > 1 else 1
    bounds = [(firsts * i) // shards for i in range(shards + 1)]
    tasks = [
        (beta.word, lengths, bounds[i], bounds[i + 1])
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]
    if jobs > 1:
        # imported here, so that serial runs skip the pool's tens of
        # milliseconds of imports
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_class_census, tasks))
    else:
        partials = [_class_census(t) for t in tasks]
    census: Counter = sum(partials, Counter())
    order = ctype.centralizer_order()
    counts = dict.fromkeys(range(n + 1), 0)
    profiles: Counter = Counter()
    for prof, c in census.items():
        counts[sum(prof)] += c * order
        profiles[prof] = c * order
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
    want = tuple(sorted(profile, reverse=True))
    return _bucket(beta, _profile_key(beta), [want], max_degree)[want]


def filter_by_distance(
    beta: Permutation, k: int, max_degree: int | None = None
) -> set[Permutation]:
    """All alpha at commutation distance exactly k from beta."""
    return _bucket(beta, len, [k], max_degree)[k]


def _bucket(
    beta: Permutation,
    key: Callable[[tuple[int, ...]], T],
    wanted: Iterable[T],
    max_degree: int | None = None,
) -> dict[T, set[Permutation]]:
    # {value: the alphas whose zero-based bad points ``key`` maps to it} for
    # each wanted value, from one scan of S_n
    _check_degree(beta.degree, max_degree)
    buckets: dict[T, set[Permutation]] = {want: set() for want in wanted}
    for bad, a in _scan(beta.word):
        bucket = buckets.get(key(bad))
        if bucket is not None:
            bucket.add(Permutation._from_word(a))
    return buckets


def _profile_key(beta: Permutation) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # the profile of a zero-based bad-point set, on beta's cycles written
    # zero-based too
    cycles = [tuple(p - 1 for p in cycle) for cycle in beta.cycles()]
    return functools.partial(_profile, cycles=cycles)


def parity_split(
    beta: Permutation, max_degree: int | None = None
) -> dict[int, tuple[int, int]]:
    """
    {k: (even, odd)} counts among the permutations at each distance k =
    0..n from beta, from one scan of S_n.
    """
    n = beta.degree
    _check_degree(n, max_degree)
    even, odd = [0] * (n + 1), [0] * (n + 1)
    for bad, a in _scan(beta.word):
        if Permutation._from_word(a).is_even():
            even[len(bad)] += 1
        else:
            odd[len(bad)] += 1
    return {k: (even[k], odd[k]) for k in range(n + 1)}


def even_odd_split(
    beta: Permutation, k: int, max_degree: int | None = None
) -> tuple[int, int]:
    """(even, odd) counts among the permutations at distance k from beta."""
    return parity_split(beta, max_degree).get(k, (0, 0))


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
