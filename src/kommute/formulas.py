"""
Closed-form counts of permutations at commutation distance k.

All arithmetic is exact: Python integers throughout, ``Fraction`` for the
one ratio.  Every formula here has an independent brute-force counterpart
in :mod:`kommute.oracle`; the test suite holds the two routes equal on all
cycle types of small symmetric groups.

``count`` dispatches a cycle type and distance to the most specific
formula available and raises :class:`NoClosedFormError` when there is none
(k >= 5 for a general cycle type), pointing the caller at the exhaustive
counter instead of approximating.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .perm import CycleType

if TYPE_CHECKING:
    from fractions import Fraction


class NoClosedFormError(ValueError):
    """No closed-form count is available; use the exhaustive oracle."""


class FormulaResult(NamedTuple("FormulaResult", [("value", int), ("provenance", str)])):
    """An exact count plus the tag of the formula that produced it."""

    __slots__ = ()

    def __new__(cls, value: int, provenance: str) -> "FormulaResult":
        if value < 0:
            raise ValueError("counts cannot be negative")
        return super().__new__(cls, value, provenance)


# the last index whose term _term keeps: past every index the oeis caps
# reach (A000757 and A053871 to 499, A233440 to 62), while a term far past
# it, f(10000) of 118,444 bits, costs no cached list of every term below it
_LAST_CACHED = 500


def _term(
    terms: list[int], k: int, step: Callable[[int, Sequence[int]], int]
) -> int:
    # term k of the recurrence a(n) = step(n, [..., a(n-3), a(n-2), a(n-1)])
    # whose first terms (three or more) are `terms`; extends `terms` in place
    # up to _LAST_CACHED, without recursion, and rolls any later term from
    # the last three cached ones, keeping nothing
    while len(terms) <= min(k, _LAST_CACHED):
        terms.append(step(len(terms), terms))
    if k < len(terms):
        return terms[k]
    window = terms[-3:]
    for n in range(len(terms), k + 1):
        window = [window[1], window[2], step(n, window)]
    return window[2]


_SUCCESSOR_FREE = [1, 0, 0, 1]


def successor_free_cycles(k: int) -> int:
    """
    Number of k-cycles of {1..k} avoiding every i -> i+1 cyclically
    (A000757), via a(n) = (n-3) a(n-1) + (n-2) (2 a(n-2) + a(n-3)) from
    1, 0, 0, 1.  The tests hold it equal to the inclusion-exclusion sum
    over the forbidden successions for k <= 300 and to the brute-force
    enumeration for k <= 9.

    >>> [successor_free_cycles(k) for k in range(8)]
    [1, 0, 0, 1, 1, 8, 36, 229]
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _term(
        _SUCCESSOR_FREE, k, lambda n, a: (n - 3) * a[-1] + (n - 2) * (2 * a[-2] + a[-3])
    )


_DERANGED_MATCHINGS = [1, 0, 2]


def deranged_matchings(j: int) -> int:
    """
    Number of perfect matchings of 2j points avoiding j disjoint forbidden
    pairs (A053871), via a(j) = 2(j-1) * (a(j-1) + a(j-2)) with a(0) = 1
    and a(1) = 0.  Agrees with brute-force enumeration for j <= 7 and with
    the generating-function identity checked in :mod:`kommute.series`.

    >>> [deranged_matchings(j) for j in range(6)]
    [1, 0, 2, 8, 60, 544]
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _term(_DERANGED_MATCHINGS, j, lambda n, a: 2 * (n - 1) * (a[-1] + a[-2]))


# -- small fixed distances ----------------------------------------------------


def count_k0(t: CycleType) -> int:
    """Distance 0 is commutation, so this is the centralizer order."""
    return t.centralizer_order()


def count_k3(t: CycleType) -> int:
    """
    Exact count at distance 3 for any cycle type:

        ( sum_l c_l C(l,3)  +  sum_{l<m} l m c_l c_m ) * |centralizer|

    The first sum is the single-cycle case, the second the [2,1] split over
    two cycles of different lengths (fixed points included).  Both run over
    the lengths present in the type; C(l,3) is zero for l < 3.
    """
    c = t.lengths()
    single = sum(c[l] * math.comb(l, 3) for l in c)
    split = sum(l * m * c[l] * c[m] for l, m in itertools.combinations(c, 2))
    return (single + split) * t.centralizer_order()


def count_k4_parts(t: CycleType) -> dict[tuple[int, ...], int]:
    """
    The distance-4 count split by bad-point profile, keyed by the
    partitions (4,), (3,1), (2,2) and (2,1,1); the all-ones profile is
    impossible.  Each component is exact for any cycle type.

    Every sum runs over the lengths i present in the type, or over pairs
    i < j of them; a term outside the range where its case can occur is
    zero through one of its own factors (C(i,4), j-i-1, i-1, C(c_i,2), or
    c_{i+j} = 0 past the degree).
    """
    c = t.lengths()
    pairs = list(itertools.combinations(c, 2))
    central = t.centralizer_order()

    single = sum(c[i] * math.comb(i, 4) for i in c)
    three_one = sum(i * j * (j - i - 1) * c[i] * c[j] for i, j in pairs)
    two_two = sum(i * math.comb(i, 2) * math.comb(c[i], 2) for i in c) + sum(
        i * (i - 1) * j * c[i] * c[j] for i, j in pairs
    )
    two_one_one = sum(i**3 * t.count(2 * i) * math.comb(c[i], 2) for i in c) + sum(
        i * j * (i + j) * c[i] * c[j] * t.count(i + j) for i, j in pairs
    )

    return {
        (4,): single * central,
        (3, 1): three_one * central,
        (2, 2): two_two * central,
        (2, 1, 1): two_one_one * central,
    }


def count_k4(t: CycleType) -> int:
    """Exact count at distance 4 for any cycle type (sum of the profiles)."""
    return sum(count_k4_parts(t).values())


# -- profile-level counting ---------------------------------------------------


def single_cycle_count(t: CycleType, k: int) -> int:
    """
    Permutations at distance k whose bad points all lie in one cycle:

        |centralizer| * sum_l c_l C(l,k) f(k)

    with f the successor-free cycle count, summed over the lengths l
    present in the type (C(l,k) is zero for l < k, so k beyond the degree
    gives 0 without computing f(k)).  Defined for k >= 3 (for k < 3 no
    such permutation exists and the hypothesis fails).
    """
    if k < 3:
        raise ValueError("single-cycle counts require k >= 3")
    if k > t.degree:
        return 0
    f = successor_free_cycles(k)
    return t.centralizer_order() * sum(
        c * math.comb(l, k) * f for l, c in t.lengths().items()
    )


# -- special reference permutations ------------------------------------------


def count_for_ncycle(k: int, n: int) -> int:
    """
    Permutations at distance k from a fixed n-cycle (A233440 as a triangle):

        T(k, n) = n * C(n, k) * f(k)

    so T(0, n) = n (the centralizer) and T(1, n) = T(2, n) = 0.  The rows
    sum to n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"distance {k} out of range 0..{n}")
    return n * math.comb(n, k) * successor_free_cycles(k)


def transposition_count(k: int, n: int) -> int:
    """
    Permutations at distance k from a transposition in S_n: nonzero only
    for k = 0, 3, 4 (2(n-2)!, 4(n-2)(n-2)! and (n-2)(n-3)(n-2)!).
    """
    if n < 2:
        raise ValueError("a transposition needs degree >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 2 * math.factorial(n - 2)
    if k == 3:
        return 4 * (n - 2) * math.factorial(n - 2)
    if k == 4 and n > 2:
        return (n - 2) * (n - 3) * math.factorial(n - 2)
    return 0


def fpf_involution_count(k: int, m: int) -> int:
    """
    Permutations at distance k from a fixed-point-free involution of S_2m
    (m >= 2): zero for odd k, and for k = 2j

        2**m * m! * C(m, j) * a(j)

    with a the deranged-matching count, so distance 2 never occurs.
    """
    if m < 2:
        raise ValueError("fixed-point-free involutions need m >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2:
        return 0
    j = k // 2
    if j > m:
        return 0
    return 2**m * math.factorial(m) * math.comb(m, j) * deranged_matchings(j)


def support_bound(t: CycleType) -> int:
    """Distances beyond twice the support size are unreachable: 2(n - c_1)."""
    return 2 * (t.degree - t.count(1))


def tail_ratio(n: int, m: int) -> Fraction:
    """
    T(n-m, n) / n! as an exact rational; approaches exp(-1)/m! for large n.
    """
    from fractions import Fraction

    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    return Fraction(count_for_ncycle(n - m, n), math.factorial(n))


def inv_e(terms: int = 60) -> Fraction:
    """
    exp(-1) as the alternating partial sum of 1/k!, k <= terms; the error
    is below 1/(terms+1)!, far beyond 50 digits at the default.
    """
    from fractions import Fraction

    return sum(Fraction((-1) ** k, math.factorial(k)) for k in range(terms + 1))


# -- dispatch -----------------------------------------------------------------


def _is_transposition(t: CycleType) -> bool:
    return t.count(2) == 1 and t.count(1) == t.degree - 2


def _is_fpf_involution(t: CycleType) -> bool:
    return t.degree >= 4 and t.count(2) * 2 == t.degree


def _is_single_cycle(t: CycleType) -> bool:
    return t.count(t.degree) == 1


def count(t: CycleType, k: int) -> FormulaResult:
    """
    Route a (cycle type, distance) query to the most specific closed form.

    Raises NoClosedFormError when no formula applies (k >= 5 for a general
    type); the exhaustive counter in :mod:`kommute.oracle` always works at
    small degree.
    """
    if not isinstance(k, int):
        raise ValueError(f"k {k!r} must be an integer")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = t.degree
    if k in (1, 2):
        return FormulaResult(0, "low_distance_zero")
    if _is_transposition(t):
        return FormulaResult(transposition_count(k, n), "transposition")
    if _is_fpf_involution(t):
        return FormulaResult(fpf_involution_count(k, n // 2), "fpf_involution")
    if _is_single_cycle(t):
        if k > n:
            return FormulaResult(0, "out_of_range_zero")
        return FormulaResult(count_for_ncycle(k, n), "n_cycle")
    if k == 0:
        return FormulaResult(count_k0(t), "centralizer")
    if k == 3:
        return FormulaResult(count_k3(t), "distance_3")
    if k == 4:
        return FormulaResult(count_k4(t), "distance_4")
    if k > min(n, support_bound(t)):
        return FormulaResult(0, "out_of_range_zero")
    raise NoClosedFormError(
        f"no closed form for distance {k} with cycle type {t.parts()}; "
        "use the exhaustive counter (method=brute)"
    )
