import concurrent.futures
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from kommute import blocks, oracle
from kommute.perm import CycleType, Permutation, all_permutations, parse_permutation

# brute-force histograms computed without kommute, read-only here
REFERENCE_HISTOGRAMS = Path(__file__).resolve().parents[1] / "perfbench" / "reference_histograms.json"


def sn_reduction(beta):
    """counts and profiles from the census of the plain S_n scan."""
    counts = dict.fromkeys(range(beta.degree + 1), 0)
    profiles: Counter = Counter()
    cycles = [tuple(p - 1 for p in cycle) for cycle in beta.cycles()]
    for bad, c in oracle._census(beta.word).items():
        counts[len(bad)] += c
        profiles[blocks._profile(bad, cycles)] += c
    return counts, profiles


class TestEnumerateSn:
    def test_counts(self):
        assert sum(1 for _ in oracle.enumerate_sn(3)) == 6

    def test_degree_one(self):
        assert list(oracle.enumerate_sn(1)) == [Permutation.identity(1)]

    def test_duplicate_free(self):
        seen = set(oracle.enumerate_sn(6))
        assert len(seen) == math.factorial(6)

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds the exhaustive bound 8"):
            next(oracle.enumerate_sn(12))

    def test_bound_override_param(self):
        got = list(itertools.islice(oracle.enumerate_sn(9, max_degree=9), 3))
        assert len(got) == 3

    def test_bound_override_env(self, monkeypatch):
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "4")
        with pytest.raises(ValueError, match="bound 4"):
            next(oracle.enumerate_sn(5))
        monkeypatch.delenv(oracle.ENV_MAX_DEGREE)
        assert sum(1 for _ in oracle.enumerate_sn(5)) == 120


class TestDistribution:
    def test_identity(self):
        d = oracle.distribution(Permutation.identity(4))
        assert d[0] == 24
        assert d.total() == 24

    def test_transposition_s3(self):
        d = oracle.distribution(parse_permutation("(1 2)", 3))
        assert {k: c for k, c in d.counts.items() if c} == {0: 2, 3: 4}

    def test_five_cycle(self):
        d = oracle.distribution(parse_permutation("(1 2 3 4 5)", 5))
        assert {k: c for k, c in d.counts.items() if c} == {0: 5, 3: 50, 4: 25, 5: 40}

    def test_shard_count_does_not_matter(self):
        for text, n in [("(1 2 3)(4 5)", 5), ("(1 2 3 4 5 6)", 6), ("(1 2)(3 4)", 6), ("()", 4)]:
            beta = parse_permutation(text, n)
            one = oracle.distribution(beta, shards=1)
            assert oracle.distribution(beta, shards=7) == one
            assert oracle.distribution(beta, shards=1000) == one

    def test_worker_pool_smoke(self):
        beta = parse_permutation("(1 2 3 4)", 5)
        assert oracle.distribution(beta, jobs=2).counts == oracle.distribution(beta).counts

    def test_worker_pool_is_capped(self, monkeypatch):
        # a serial stand-in for the pool: no worker process is ever started
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
        beta = parse_permutation("(1 2 3)(4 5)", 5)
        want = oracle.distribution(beta)
        # 1000 first-choice shards leave 16 non-empty ones: the 12 three-cycles
        # and 4 two-cycles of the class of (1 2 3)(4 5) through point 1
        assert oracle.distribution(beta, jobs=1000) == want
        assert oracle.distribution(beta, jobs=3, shards=2) == want
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert oracle.distribution(beta, jobs=8) == want
        assert started == [4, 2, 1]

    def test_census_matches_per_alpha_slow_path(self):
        for n in range(1, 7):
            alphas = list(all_permutations(n))
            for t in CycleType.all_types(n):
                beta = t.representative()
                d = oracle.distribution(beta)
                assert d.profiles == Counter(blocks.profile(a, beta) for a in alphas)
                slow = Counter(a.commute_distance(beta) for a in alphas)
                assert d.counts == {k: slow[k] for k in range(n + 1)}

    def test_class_walk_matches_sn_census(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for t in CycleType.all_types(n):
                betas = [t.representative()]
                if n <= 7:
                    images = list(range(1, n + 1))
                    rng.shuffle(images)
                    betas.append(betas[0].conjugate_by(Permutation(images)))
                for beta in betas:
                    d = oracle.distribution(beta)
                    assert (d.counts, d.profiles) == sn_reduction(beta), beta

    def test_counts_match_reference_table(self):
        table = json.loads(REFERENCE_HISTOGRAMS.read_text(encoding="utf-8"))
        for n in range(1, 9):
            for t in CycleType.all_types(n):
                d = oracle.distribution(t.representative())
                key = ".".join(map(str, t.parts()))
                assert [d[k] for k in range(n + 1)] == table[key], key

    def test_class_walk_visits_each_element_once(self):
        for n in range(1, 8):
            for t in CycleType.all_types(n):
                walked = [
                    Permutation.from_cycles([[p + 1 for p in c] for c in cycles], n)
                    for cycles in oracle._class_walk(t.parts(), tuple(range(n)), tuple)
                ]
                assert len(set(walked)) == len(walked) == math.factorial(n) // t.centralizer_order()
                assert {g.cycle_type() for g in walked} == {t}

    def test_class_walk_weighs_each_choice_once(self):
        # (2,2,2,2) in S_8: 7 first choices, then 5, 3 and 1 below each, so
        # 7 + 35 + 105 + 105 = 252 weighings, not 4 for each of 105 elements
        weighed = []

        def weigh(cycle):
            weighed.append(cycle)
            return cycle

        walked = list(oracle._class_walk((2, 2, 2, 2), tuple(range(8)), weigh))
        assert len(walked) == 105 == len(set(walked))
        assert len(weighed) == 7 + 35 + 105 + 105 == 252
        assert walked == list(oracle._class_walk((2, 2, 2, 2), tuple(range(8)), tuple))

    def test_class_walk_weighs_each_leftover_fixed_point_once(self):
        # (3,1,1,1) in S_6: 20 + 12 + 6 + 2 three-cycles through 0, 1, 2
        # and 3, the fixed points (0,), (1,) and (2,) chosen on the way, and
        # the leftover fixed points 1..5 once each; weighing the leftovers
        # per element took 20*3 + 12*2 + 6*1 more, 133 in all; (5,1,1,1)
        # in S_8 fell from 4707 to 1354 the same way
        for parts, calls in (((3, 1, 1, 1), 40 + 3 + 5), ((5, 1, 1, 1), 1354)):
            n = sum(parts)
            weighed = []

            def weigh(cycle):
                weighed.append(cycle)
                return cycle

            walked = list(oracle._class_walk(parts, tuple(range(n)), weigh))
            assert len(weighed) == calls
            assert walked == list(oracle._class_walk(parts, tuple(range(n)), tuple))
            beta = CycleType.from_parts(list(parts)).representative()
            d = oracle.distribution(beta)
            assert (d.counts, d.profiles) == sn_reduction(beta), beta

    def test_bound(self):
        with pytest.raises(ValueError, match="exhaustive bound"):
            oracle.distribution(Permutation.identity(9))

    def test_json_serialization(self):
        d = oracle.distribution(parse_permutation("(1 2)", 3))
        assert d.to_json_dict() == {
            "n": 3,
            "beta": "(1 2)",
            "counts": {"0": "2", "3": "4"},
        }


class TestCountByProfile:
    def test_singleton_and_split_profiles(self):
        beta = parse_permutation("(1 2 3)(4 5)", 5)
        got = oracle.count_by_profile(beta, 3)
        assert got == {(3,): 6, (2, 1): 36}
        assert (1, 1, 1) not in got

    def test_distance_zero(self):
        beta = parse_permutation("(1 2 3)(4 5)", 5)
        assert oracle.count_by_profile(beta, 0) == {(): 6}

    def test_ncycle_single_part_only(self):
        beta = parse_permutation("(1 2 3 4 5)", 5)
        d = oracle.distribution(beta)
        for k in range(1, 6):
            got = oracle.count_by_profile(beta, k)
            if d[k]:
                assert got == {(k,): d[k]}
            else:
                assert got == {}

    def test_totals_match_distribution(self):
        beta = parse_permutation("(1 2)(3 4 5 6)", 6)
        d = oracle.distribution(beta)
        for k in range(7):
            assert sum(oracle.count_by_profile(beta, k).values()) == d[k]


class TestEvenOddSplit:
    def test_transposition_s4(self):
        assert oracle.even_odd_split(parse_permutation("(1 2)", 4), 3) == (8, 8)

    def test_identity_split(self):
        for n in (2, 3, 4):
            half = math.factorial(n) // 2
            assert oracle.even_odd_split(Permutation.identity(n), 0) == (half, half)

    def test_parity_split_matches_per_alpha_slow_path(self):
        for text, n in [("(1 2)", 4), ("(1 2 3)", 4), ("(1 2)(3 4 5)", 5)]:
            beta = parse_permutation(text, n)
            want = {k: [0, 0] for k in range(n + 1)}
            for a in all_permutations(n):
                want[a.commute_distance(beta)][0 if a.is_even() else 1] += 1
            split = oracle.parity_split(beta)
            assert split == {k: tuple(v) for k, v in want.items()}
            assert [oracle.even_odd_split(beta, k) for k in range(n + 2)] == [
                split[k] for k in range(n + 1)
            ] + [(0, 0)]

    def test_distinct_odd_type_recorded_not_equal(self):
        # (1 2 3) in S_4 has distinct odd parts; only totals are guaranteed
        beta = parse_permutation("(1 2 3)", 4)
        d = oracle.distribution(beta)
        for k in range(5):
            even, odd = oracle.even_odd_split(beta, k)
            assert even + odd == d[k]


class TestSuccessorFreeCycles:
    def test_one(self):
        # the unique 1-cycle fixes 1, and 1 is its own cyclic successor
        assert oracle.successor_free_cycles(1) == 0

    def test_three(self):
        assert oracle.successor_free_cycles(3) == 1

    def test_five(self):
        assert oracle.successor_free_cycles(5) == 8

    def test_range(self):
        with pytest.raises(ValueError):
            oracle.successor_free_cycles(0)
        with pytest.raises(ValueError):
            oracle.successor_free_cycles(10)


class TestDerangedMatchings:
    def test_empty(self):
        assert oracle.deranged_matchings(0) == 1

    def test_two_couples(self):
        assert oracle.deranged_matchings(2) == 2

    def test_three_couples(self):
        # inclusion-exclusion: 15 - 3*3 + 3*1 - 1 = 8
        assert oracle.deranged_matchings(3) == 8

    def test_range(self):
        with pytest.raises(ValueError):
            oracle.deranged_matchings(-1)
        with pytest.raises(ValueError):
            oracle.deranged_matchings(8)


class TestFilters:
    def test_filter_by_distance_matches_distribution(self):
        beta = parse_permutation("(1 2 3 4)", 4)
        d = oracle.distribution(beta)
        for k in range(5):
            assert len(oracle.filter_by_distance(beta, k)) == d[k]

    def test_filter_by_profile_matches_counts(self):
        beta = parse_permutation("(1 2 3)(4 5)", 5)
        for prof, count in oracle.count_by_profile(beta, 3).items():
            assert len(oracle.filter_by_profile(beta, prof)) == count


class TestConjugationInvariance:
    def test_distribution_invariant(self):
        import random

        rng = random.Random(41)
        for n in (4, 5):
            for t in CycleType.all_types(n):
                beta = t.representative()
                want = oracle.distribution(beta).counts
                for _ in range(3):
                    imgs = list(range(1, n + 1))
                    rng.shuffle(imgs)
                    tau = Permutation(imgs)
                    assert oracle.distribution(beta.conjugate_by(tau)).counts == want
