import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import kommute

from kommute import formulas, oracle
from kommute.perm import CycleType


def T(*parts):
    return CycleType.from_parts(parts)


def successor_free_sum(k):
    # inclusion-exclusion over the k forbidden successions
    total = sum((-1) ** i * math.comb(k, i) * math.factorial(k - i - 1) for i in range(k))
    return total + (-1) ** k


# -- the closed forms summed over every length 1..n, as the reference -----------


def full_range_centralizer(t):
    out = 1
    for i in range(1, t.degree + 1):
        out *= i ** t.count(i) * math.factorial(t.count(i))
    return out


def full_range_k3(t):
    c, n = t.count, t.degree
    single = sum(c(l) * math.comb(l, 3) for l in range(3, n + 1))
    split = sum(l * m * c(l) * c(m) for l in range(1, n + 1) for m in range(l + 1, n + 1))
    return (single + split) * full_range_centralizer(t)


def full_range_k4_parts(t):
    c, n = t.count, t.degree
    central = full_range_centralizer(t)
    single = sum(c(i) * math.comb(i, 4) for i in range(4, n + 1))
    three_one = sum(
        i * j * (j - i - 1) * c(i) * c(j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
    )
    two_two = sum(i * math.comb(i, 2) * math.comb(c(i), 2) for i in range(2, n + 1)) + sum(
        i * (i - 1) * j * c(i) * c(j) for i in range(2, n + 1) for j in range(i + 1, n + 1)
    )
    two_one_one = sum(
        i**3 * c(2 * i) * math.comb(c(i), 2) for i in range(1, n // 2 + 1)
    ) + sum(
        i * j * (i + j) * c(i) * c(j) * c(i + j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1 - i)
    )
    return {
        (4,): single * central,
        (3, 1): three_one * central,
        (2, 2): two_two * central,
        (2, 1, 1): two_one_one * central,
    }


def full_range_single_cycle(t, k, central):
    f = formulas.successor_free_cycles(k)
    return central * sum(
        t.count(l) * math.comb(l, k) * f for l in range(k, t.degree + 1)
    )


def random_type(rng, n):
    parts, left = [], n
    while left:
        # mostly short parts, so that types have many distinct lengths
        part = min(left, rng.choice([rng.randint(1, 6), rng.randint(1, left)]))
        parts.append(part)
        left -= part
    return CycleType.from_parts(parts)


class TestPresentLengthSums:
    def assert_matches_full_range(self, t):
        central = full_range_centralizer(t)
        assert t.centralizer_order() == central, t.parts()
        assert formulas.count_k3(t) == full_range_k3(t), t.parts()
        assert formulas.count_k4_parts(t) == full_range_k4_parts(t), t.parts()
        for k in range(3, t.degree + 1):
            want = full_range_single_cycle(t, k, central)
            assert formulas.single_cycle_count(t, k) == want, (t.parts(), k)

    def test_every_type_up_to_degree_20(self):
        for n in range(1, 21):
            for t in CycleType.all_types(n):
                self.assert_matches_full_range(t)

    def test_seeded_random_types_up_to_degree_400(self):
        rng = random.Random(4242)
        for _ in range(12):
            self.assert_matches_full_range(random_type(rng, rng.randint(21, 400)))

    def test_k4_at_degree_100000_in_a_child(self):
        # (3, 1^r) has c(4) = 9 r r!, brute force agrees for n <= 8; the
        # child's timeout turns a return of the 1..n loops into a failure
        for r in range(0, 6):
            assert formulas.count_k4(T(3, *[1] * r)) == 9 * r * math.factorial(r)
        code = (
            "import math\n"
            "from kommute import formulas\n"
            "from kommute.perm import CycleType\n"
            "r = 99997\n"
            "t = CycleType.from_parts([3] + [1] * r)\n"
            "print(formulas.count_k4(t) == 9 * r * math.factorial(r))\n"
        )
        src = os.path.dirname(os.path.dirname(kommute.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


class TestSuccessorFreeCycles:
    def test_recurrence_matches_inclusion_exclusion(self):
        for k in range(301):
            assert formulas.successor_free_cycles(k) == successor_free_sum(k)

    def test_matches_brute_force(self):
        for k in range(1, 10):
            assert formulas.successor_free_cycles(k) == oracle.successor_free_cycles(k)

    def test_k_zero(self):
        assert formulas.successor_free_cycles(0) == 1

    def test_known_values(self):
        got = [formulas.successor_free_cycles(k) for k in range(8)]
        assert got == [1, 0, 0, 1, 1, 8, 36, 229]


class TestDerangedMatchings:
    def test_matches_brute_force(self):
        for j in range(8):
            assert formulas.deranged_matchings(j) == oracle.deranged_matchings(j)

    def test_known_values(self):
        got = [formulas.deranged_matchings(j) for j in range(6)]
        assert got == [1, 0, 2, 8, 60, 544]


def recurrence_term(first, step, k):
    # term k of a(n) = step(n, a) from a list of every term before it
    a = list(first)
    while len(a) <= k:
        a.append(step(len(a), a))
    return a[k]


def reference_f(k):
    def step(n, a):
        return (n - 3) * a[n - 1] + (n - 2) * (2 * a[n - 2] + a[n - 3])

    return recurrence_term([1, 0, 0, 1], step, k)


def reference_a(j):
    return recurrence_term([1, 0], lambda n, a: 2 * (n - 1) * (a[n - 1] + a[n - 2]), j)


class TestRecurrenceCache:
    # the terms past the cached ones roll from its tail and are not kept

    def test_terms_past_the_cache_equal_the_whole_recurrence(self):
        last = formulas._LAST_CACHED
        for k in (last - 1, last, last + 1, last + 2, last + 3, 3000, 10000):
            assert formulas.successor_free_cycles(k) == reference_f(k), k
        for j in (last, last + 1, last + 2, 5000):
            assert formulas.deranged_matchings(j) == reference_a(j), j
        assert len(formulas._SUCCESSOR_FREE) == len(formulas._DERANGED_MATCHINGS) == last + 1

    def test_a_far_term_holds_little_memory(self):
        # every term up to f(10000) held 71 MB
        tracemalloc.start()
        try:
            formulas.successor_free_cycles(10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


class TestSmallDistances:
    def test_k0_identity(self):
        assert formulas.count_k0(T(1, 1, 1, 1)) == 24

    def test_k0_mixed(self):
        assert formulas.count_k0(T(3, 2)) == 6

    def test_k1_k2_zero(self):
        for t in CycleType.all_types(6):
            assert formulas.count(t, 1) == (0, "low_distance_zero")
            assert formulas.count(t, 2) == (0, "low_distance_zero")

    def test_k3_mixed_example(self):
        assert formulas.count_k3(T(3, 2)) == 42

    def test_k3_identity(self):
        assert formulas.count_k3(T(1, 1, 1, 1)) == 0

    def test_k3_transposition_closed_form(self):
        for n in range(2, 9):
            t = CycleType.from_parts([2] + [1] * (n - 2))
            assert formulas.count_k3(t) == 4 * (n - 2) * math.factorial(n - 2)

    def test_k4_transposition_s4(self):
        parts = formulas.count_k4_parts(T(2, 1, 1))
        assert parts[(2, 1, 1)] == 4
        assert formulas.count_k4(T(2, 1, 1)) == 4

    def test_k4_double_transposition(self):
        parts = formulas.count_k4_parts(T(2, 2))
        assert parts[(2, 2)] == 16
        assert formulas.count_k4(T(2, 2)) == 16
        assert formulas.fpf_involution_count(4, 2) == 16

    def test_k4_five_cycle(self):
        parts = formulas.count_k4_parts(T(5))
        assert parts[(4,)] == 25
        assert formulas.count_k4(T(5)) == 25 == formulas.count_for_ncycle(4, 5)


class TestFormulaResultValue:
    def test_fields(self):
        r = formulas.FormulaResult(42, "distance_3")
        assert (r.value, r.provenance) == (42, "distance_3")
        assert r == formulas.FormulaResult(value=42, provenance="distance_3")
        assert formulas.count(T(3, 2), 3) == r

    def test_eq_and_hash(self):
        r = formulas.FormulaResult(42, "distance_3")
        assert r == formulas.FormulaResult(42, "distance_3")
        assert r != formulas.FormulaResult(41, "distance_3")
        assert r != formulas.FormulaResult(42, "distance_4")
        assert hash(r) == hash(formulas.FormulaResult(42, "distance_3"))
        assert len({r, formulas.FormulaResult(42, "distance_3"), formulas.FormulaResult(0, "x")}) == 2

    def test_repr(self):
        assert repr(formulas.FormulaResult(42, "distance_3")) == (
            "FormulaResult(value=42, provenance='distance_3')"
        )

    def test_immutable(self):
        r = formulas.FormulaResult(42, "distance_3")
        for name in ("value", "provenance", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        assert r.value == 42

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="counts cannot be negative"):
            formulas.FormulaResult(-1, "distance_3")
        assert formulas.FormulaResult(0, "low_distance_zero").value == 0


class TestSingleCycleCount:
    def test_five_cycle(self):
        assert formulas.single_cycle_count(T(5), 3) == 50

    def test_mixed(self):
        assert formulas.single_cycle_count(T(3, 2), 3) == 6

    def test_no_long_cycle(self):
        assert formulas.single_cycle_count(T(2, 1, 1), 3) == 0

    def test_k_below_three(self):
        with pytest.raises(ValueError, match="k >= 3"):
            formulas.single_cycle_count(T(5), 2)

    def test_k_far_beyond_the_degree_is_zero_at_once(self):
        # f(10**6) alone would take minutes of bignum arithmetic
        assert formulas.single_cycle_count(T(5, 1), 10**6) == 0

    def test_ncycle_case_matches_tkn(self):
        for n in range(3, 9):
            for k in range(3, n + 1):
                assert formulas.single_cycle_count(T(n), k) == formulas.count_for_ncycle(k, n)


class TestNCycleCounts:
    def test_examples(self):
        assert formulas.count_for_ncycle(3, 3) == 3
        assert formulas.count_for_ncycle(5, 5) == 40
        assert formulas.count_for_ncycle(4, 5) == 25

    def test_low_k(self):
        for n in range(1, 10):
            assert formulas.count_for_ncycle(0, n) == n
            if n >= 2:
                assert formulas.count_for_ncycle(1, n) == 0
                assert formulas.count_for_ncycle(2, n) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            formulas.count_for_ncycle(6, 5)

    def test_rows_sum_to_factorial(self):
        for n in range(1, 13):
            assert sum(formulas.count_for_ncycle(k, n) for k in range(n + 1)) == math.factorial(n)

    def test_binomial_transform_is_shifted_factorial(self):
        for n in range(1, 13):
            total = sum(
                math.comb(n, k) * formulas.successor_free_cycles(k)
                for k in range(n + 1)
            )
            assert total == math.factorial(n - 1)


class TestTranspositionCounts:
    def test_example(self):
        assert formulas.transposition_count(3, 4) == 16

    def test_high_distances_vanish(self):
        for n in range(5, 10):
            for k in range(5, n + 1):
                assert formulas.transposition_count(k, n) == 0

    def test_distribution_sums_to_factorial(self):
        for n in range(2, 9):
            total = sum(formulas.transposition_count(k, n) for k in range(n + 1))
            assert total == math.factorial(n)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            formulas.transposition_count(0, 1)


class TestFpfInvolutionCounts:
    def test_centralizer(self):
        assert formulas.fpf_involution_count(0, 2) == 8

    def test_example(self):
        assert formulas.fpf_involution_count(4, 2) == 16

    def test_distance_two_vanishes(self):
        for m in range(2, 8):
            assert formulas.fpf_involution_count(2, m) == 0

    def test_odd_vanishes(self):
        for m in range(2, 6):
            for k in range(1, 2 * m, 2):
                assert formulas.fpf_involution_count(k, m) == 0

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            formulas.fpf_involution_count(0, 1)


class TestSupportBound:
    def test_identity(self):
        assert formulas.support_bound(T(1, 1, 1)) == 0

    def test_transposition(self):
        assert formulas.support_bound(T(2, 1, 1, 1)) == 4

    def test_fixed_point_free(self):
        assert formulas.support_bound(T(3, 3)) == 12


class TestTailRatio:
    def test_values(self):
        assert formulas.tail_ratio(5, 0) == Fraction(1, 3)
        assert formulas.tail_ratio(5, 2) == Fraction(5, 12)

    def test_m_must_be_below_n(self):
        with pytest.raises(ValueError):
            formulas.tail_ratio(5, 5)

    def test_inv_e_precision(self):
        # consecutive partial sums bracket the limit within 1/(terms+1)!
        a, b = formulas.inv_e(60), formulas.inv_e(61)
        assert abs(a - b) < Fraction(1, math.factorial(60))


class TestDispatch:
    def test_low_distance(self):
        r = formulas.count(T(3, 2), 1)
        assert (r.value, r.provenance) == (0, "low_distance_zero")

    def test_transposition_any_k(self):
        r = formulas.count(T(2, 1, 1), 3)
        assert (r.value, r.provenance) == (16, "transposition")
        assert formulas.count(T(2, 1, 1, 1, 1), 6).value == 0

    def test_fpf_involution(self):
        r = formulas.count(T(2, 2, 2), 6)
        assert r.provenance == "fpf_involution"
        assert r.value == formulas.fpf_involution_count(6, 3)

    def test_ncycle(self):
        r = formulas.count(T(6), 5)
        assert (r.value, r.provenance) == (formulas.count_for_ncycle(5, 6), "n_cycle")

    def test_generic_small_k(self):
        assert formulas.count(T(3, 2), 0).provenance == "centralizer"
        assert formulas.count(T(3, 2), 3).provenance == "distance_3"
        assert formulas.count(T(3, 2), 4).provenance == "distance_4"

    def test_beyond_reach_is_zero(self):
        # distance above the metric/support range needs no formula
        assert formulas.count(T(3, 2), 6).value == 0

    def test_no_closed_form(self):
        with pytest.raises(formulas.NoClosedFormError, match="method=brute"):
            formulas.count(T(4, 3), 5)

    def test_dispatch_agrees_with_brute_force(self):
        for n in range(2, 7):
            for t in CycleType.all_types(n):
                d = oracle.distribution(t.representative())
                for k in range(n + 1):
                    try:
                        got = formulas.count(t, k).value
                    except formulas.NoClosedFormError:
                        continue
                    assert got == d[k], (t.parts(), k)
