"""
Exhaustive ground truth at small degree.

Everything here counts every permutation alpha of S_n, so the results are
exact and independent of any closed formula in :mod:`kommute.formulas`.

``distribution`` counts beta's conjugacy class instead of S_n.  Write
gamma = alpha*beta*alpha^{-1} and D(gamma) = {y : gamma(y) != beta(y)}.  The
bad points of the pair are the alpha-preimages of D(gamma), so

* the commutation distance is d(alpha, beta) = H(alpha*beta*alpha^{-1},
  beta) = |D(gamma)|;
* alpha's profile is the multiset of |D(gamma) & c| over the cycles c of
  gamma;
* each gamma comes from exactly |C(beta)| values of alpha, C(beta) being
  the centralizer of beta.

So the histogram and the profile counts over S_n are |C(beta)| times those
over the n!/|C(beta)| elements of the class, which depend only on how the
cycles of gamma weigh.  ``_cycle_weights`` counts, for each point set whose
size is a cycle length of beta, the cycles of gamma on it at each weight (a
Held-Karp table); a census memoised on (lengths left, points left) then
picks the cycle through the lowest point left, so no gamma is built.  The
census works on plain dicts and sorts each grown profile once per weight;
``distribution`` builds the one ``Counter`` it returns.  A long cycle's
cost is its Held-Karp table, not the census.
Degrees above ``HISTOGRAM_MAX_DEGREE`` are refused whatever the cap.

The filters need the actual alpha, so each is one pass over ``_scan``,
the one scan kernel: it walks S_n in the lexicographic order of zero-based
one-line words and yields each alpha's word with its bad points.
``parity_split`` reads each alpha's parity off that order
(``perm.lex_parities``).  ``_census`` over that scan is the independent
reference the histogram is tested against, and ``kommute.verify`` walks it
once per beta for its pair and parity checks; its enumerator checks read
the histogram.

Degrees are capped (default 8, so 40320 permutations per reference
permutation) to keep full verification in the seconds range; raise the cap
with the KOMMUTE_MAX_BRUTE_N environment variable when you can wait, or
with the ``max_degree`` argument of ``distribution``, ``enumerate_sn`` and
``parity_split``, the three that take one.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .blocks import _profile, as_profile
from .construct import perfect_matchings, successor_free_kcycles
from .perm import Permutation, all_permutations, lex_parities, word_cycles

DEFAULT_MAX_DEGREE = 8

# the histogram's tables about double in memory with each degree: the
# 16-cycle takes about 15 s and 100 MB
HISTOGRAM_MAX_DEGREE = 16

ENV_MAX_DEGREE = "KOMMUTE_MAX_BRUTE_N"


def exhaustive_bound(max_degree: int | None = None) -> int:
    """The degree cap in force: explicit argument, else env var, else 8."""
    if max_degree is not None:
        return max_degree
    env = os.environ.get(ENV_MAX_DEGREE)
    if not env:
        return DEFAULT_MAX_DEGREE
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{ENV_MAX_DEGREE} must be an integer, got {env!r}") from None


def _check_degree(n: int, max_degree: int | None, knob: str = "max_degree") -> int:
    # the cap in force, once n is checked against it; ``knob`` names the cap
    # as the caller's user sets it: a parameter, or a flag
    bound = exhaustive_bound(max_degree)
    if n > bound:
        raise ValueError(
            f"degree {n} exceeds the exhaustive bound {bound}; "
            f"raise it with {knob} or {ENV_MAX_DEGREE}"
        )
    return bound


def _check_histogram_degree(n: int) -> None:
    if n > HISTOGRAM_MAX_DEGREE:
        raise ValueError(
            f"degree {n} exceeds {HISTOGRAM_MAX_DEGREE}, the ceiling of the "
            "exhaustive histogram, whose memory about doubles with each degree"
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
    # (zero-based bad points, one-line word) for each alpha in S_n, in the
    # lexicographic order of the words.  The comprehension beats a
    # map/compress pipeline about 1.5-3x at n <= 8 on CPython 3.7-3.13:
    # building the iterators costs more than the n comparisons
    b = beta_word
    rng = range(len(b))
    for a in itertools.permutations(rng):
        yield tuple([i for i in rng if a[b[i]] != b[a[i]]]), a


def _census(beta_word: tuple[int, ...]) -> Counter:
    # how many alpha in S_n have each bad-point set
    return Counter(bad for bad, _ in _scan(beta_word))


def _cycle_weights(b: tuple[int, ...], sizes: set[int]) -> dict[int, dict[int, int]]:
    """
    {S: {w: #cycles}} for each point set S, a bitmask, whose size is in
    ``sizes``: how many cycles of gamma on S have w = |D(gamma) & S|, for
    beta's zero-based word ``b``.  Paths keyed by (visited bitmask, last
    point, weight) run from each start s over the points above s, so each
    cycle has one path; a step y -> z weighs 1 when z != b[y].

    >>> sorted(_cycle_weights((1, 0, 2), {2}).items())
    [(3, {0: 1}), (5, {2: 1}), (6, {2: 1})]
    >>> _cycle_weights((0, 1, 2, 3, 4), {5})[0b11111]
    {5: 24}
    """
    n = len(b)
    table: dict[int, dict[int, int]] = {}
    for s in range(n):
        paths = {(1 << s, s, 0): 1}
        for size in range(1, min(max(sizes), n - s) + 1):
            if size > 1:
                grown: dict[tuple[int, int, int], int] = {}
                for (seen, y, w), c in paths.items():
                    for z in range(s + 1, n):
                        if not seen >> z & 1:
                            key = (seen | 1 << z, z, w + (z != b[y]))
                            grown[key] = grown.get(key, 0) + c
                paths = grown
            if size in sizes:
                for (seen, y, w), c in paths.items():
                    row = table.get(seen)
                    if row is None:
                        row = table[seen] = {}
                    weight = w + (s != b[y])
                    row[weight] = row.get(weight, 0) + c
    return table


def _first_cycles(lengths: tuple[int, ...], left: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # each point set of the cycle through the lowest point of ``left`` with a
    # length in ``lengths``, with the lengths it leaves
    low = (left & -left).bit_length() - 1
    rest = [p for p in range(low + 1, left.bit_length()) if left >> p & 1]
    for length in sorted(set(lengths), reverse=True):
        i = lengths.index(length)
        for tail in itertools.combinations(rest, length - 1):
            yield lengths[:i] + lengths[i + 1 :], sum([1 << p for p in tail], 1 << low)


def _profile_census(
    lengths: tuple[int, ...], left: int, weights: dict, memo: dict, grown: dict
) -> dict[tuple[int, ...], int]:
    # how many permutations of the points ``left`` with cycle lengths
    # ``lengths`` have each profile.  ``memo`` maps (lengths, left) to a
    # whole census, and ``grown`` maps w to {profile: the profile with a
    # part w added, none for w = 0}, so each profile is sorted once per
    # weight.  Passed down as plain dicts, they form no reference cycle that
    # keeps the tables after the call
    if not left:
        return {(): 1}
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for others, cycle in _first_cycles(lengths, left):
        key = others, left & ~cycle
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _profile_census(*key, weights, memo, grown)
        for w, c in weights[cycle].items():
            by = grown.setdefault(w, {})
            for prof, m in sub.items():
                g = by.get(prof)
                if g is None:
                    g = by[prof] = tuple(sorted(prof + (w,), reverse=True)) if w else prof
                out[g] = get(g, 0) + c * m
    return out


class KDistribution(NamedTuple):
    """
    Exact counts of permutations at each commutation distance from beta,
    and of permutations with each bad-point profile (all distances).
    Indexing reads the histogram: ``dist[k]`` is the count at distance k.
    Iteration, ``len`` and unpacking do not: as a NamedTuple it iterates its
    four fields (``n, beta, counts, profiles``), so iterate ``counts`` for
    the histogram.
    """

    n: int
    beta: Permutation
    counts: dict[int, int]
    profiles: Counter[tuple[int, ...]]

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)


def distribution(
    beta: Permutation, jobs: int = 1, max_degree: int | None = None
) -> KDistribution:
    """
    The full histogram {k: #alpha at commutation distance k from beta} and
    the profile counts {profile: #alpha}, computed exhaustively from beta's
    conjugacy class in this process.  ``jobs`` is ignored; its one caller
    is the ``JOBS_PROBE`` in ``perfbench/run.py``, which ``--trace 1`` and
    the CI step "perfbench answers under its tracer" run, so the keyword
    goes together with that probe (ROADMAP item 5), not before it.

    >>> {p: c for p, c in distribution(
    ...     Permutation.from_cycles([(1, 2, 3), (4, 5)], 5)
    ... ).profiles.items() if sum(p) == 3}
    {(3,): 6, (2, 1): 36}
    """
    n = beta.degree
    _check_degree(n, max_degree)
    _check_histogram_degree(n)
    ctype = beta.cycle_type()
    lengths = ctype.parts()
    order = ctype.centralizer_order()
    weights = _cycle_weights(beta.word, set(lengths))
    census = _profile_census(lengths, (1 << n) - 1, weights, {}, {})
    counts = dict.fromkeys(range(n + 1), 0)
    profiles: Counter = Counter()
    for prof, c in census.items():
        counts[sum(prof)] += c * order
        profiles[prof] = c * order
    return KDistribution(n, beta, counts, profiles)


def count_by_profile(beta: Permutation, k: int) -> dict[tuple[int, ...], int]:
    """
    Exhaustive counts at distance k, split by the multiset of per-cycle
    bad-point counts (keys are decreasing tuples summing to k).
    """
    profiles = distribution(beta).profiles
    return {p: c for p, c in profiles.items() if sum(p) == k}


def filter_by_profile(beta: Permutation, profile: Sequence[int]) -> set[Permutation]:
    """All alpha whose per-cycle bad-point multiset equals ``profile``."""
    _check_degree(beta.degree, None)
    want = as_profile(profile)
    cycles = word_cycles(beta.word)
    return {
        Permutation._from_word(a) for bad, a in _scan(beta.word) if _profile(bad, cycles) == want
    }


def filter_by_distance(beta: Permutation, k: int) -> set[Permutation]:
    """All alpha at commutation distance exactly k from beta."""
    _check_degree(beta.degree, None)
    return {Permutation._from_word(a) for bad, a in _scan(beta.word) if len(bad) == k}


def parity_split(
    beta: Permutation, max_degree: int | None = None
) -> dict[int, tuple[int, int]]:
    """
    {k: (even, odd)} counts among the permutations at each distance k =
    0..n from beta, from one scan of S_n.
    """
    n = beta.degree
    _check_degree(n, max_degree)
    tally = [0] * (2 * n + 2)  # alphas at distance k: even at 2k, odd at 2k + 1
    for is_odd, (bad, _) in zip(lex_parities(n), _scan(beta.word)):
        tally[2 * len(bad) + is_odd] += 1
    return {k: (tally[2 * k], tally[2 * k + 1]) for k in range(n + 1)}


def even_odd_split(beta: Permutation, k: int) -> tuple[int, int]:
    """(even, odd) counts among the permutations at distance k from beta."""
    return parity_split(beta).get(k, (0, 0))


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
