import gc
import itertools
import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from kommute import blocks, cli, formulas, oracle
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


def reference_census(beta):
    """
    The profile census as ``oracle`` computed it before its plain-dict
    census: ``Counter`` tables throughout, and each grown profile sorted
    afresh for every (first cycle, weight, sub-profile) triple.
    """
    b, n = beta.word, beta.degree
    lengths = beta.cycle_type().parts()
    weights: dict = defaultdict(Counter)
    for s in range(n):
        paths = {(1 << s, s, 0): 1}
        for size in range(1, min(max(lengths), n - s) + 1):
            if size > 1:
                grown: dict = {}
                for (seen, y, w), c in paths.items():
                    for z in range(s + 1, n):
                        if not seen >> z & 1:
                            key = (seen | 1 << z, z, w + (z != b[y]))
                            grown[key] = grown.get(key, 0) + c
                paths = grown
            if size in lengths:
                for (seen, y, w), c in paths.items():
                    weights[seen][w + (s != b[y])] += c

    def census(lengths, left, memo):
        if not left:
            return Counter({(): 1})
        out: Counter = Counter()
        for others, cycle in oracle._first_cycles(lengths, left):
            key = others, left & ~cycle
            if key not in memo:
                memo[key] = census(*key, memo)
            for w, c in weights[cycle].items():
                for prof, m in memo[key].items():
                    if w:
                        prof = tuple(sorted(prof + (w,), reverse=True))
                    out[prof] += c * m
        return out

    return census(lengths, (1 << n) - 1, {})


# ``count --method brute`` as it printed before the plain-dict census:
# (beta, n) -> the counts printed for k = 0, 4, 5 and n
COUNT_BRUTE_UP_TO_12 = {
    ("(1 2 3)(4 5)", 6): ("6", "90", "288", "264"),
    ("(1 2 3 4)(5 6)(7 8)", 9): ("32", "1632", "8320", "145408"),
    ("(1 2 3 4 5)(6 7 8)(9 10)", 11): ("30", "4200", "26880", "14809260"),
    ("(1 2 3)(4 5 6)(7 8 9)(10 11 12)", 12): ("1944", "104976", "209952", "155348928"),
    ("(1 2 3 4 5 6 7)(8 9)", 12): ("84", "17892", "145824", "112911876"),
}


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

    def test_bound_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "abc")
        with pytest.raises(ValueError) as err:
            oracle.exhaustive_bound()
        assert str(err.value) == "KOMMUTE_MAX_BRUTE_N must be an integer, got 'abc'"
        # an explicit cap does not read the variable
        assert oracle.exhaustive_bound(5) == 5


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
        for n in range(1, 10):
            for t in CycleType.all_types(n):
                d = oracle.distribution(t.representative(), max_degree=9)
                key = ".".join(map(str, t.parts()))
                assert [d[k] for k in range(n + 1)] == table[key], key

    def test_every_type_of_s10_matches_the_formulas(self):
        for t in CycleType.all_types(10):
            d = oracle.distribution(t.representative(), max_degree=10)
            assert d.total() == math.factorial(10), t
            assert all(c % t.centralizer_order() == 0 for c in d.profiles.values()), t
            assert (d[0], d[3], d[4]) == (
                formulas.count_k0(t), formulas.count_k3(t), formulas.count_k4(t)
            ), t
            for prof, c in formulas.count_k4_parts(t).items():
                assert d.profiles[prof] == c, (t, prof)

    def test_twelve_cycle_matches_the_closed_form(self):
        d = oracle.distribution(parse_permutation("(1 2 3 4 5 6 7 8 9 10 11 12)", 12), max_degree=12)
        assert d.counts == {k: formulas.count_for_ncycle(k, 12) for k in range(13)}

    def test_census_equals_the_reference_census(self):
        # every cycle type with n <= 10, and seeded types of S_11 and S_12:
        # the same profiles with the same counts, in the same order
        rng = random.Random(36)
        types = [t for n in range(1, 11) for t in CycleType.all_types(n)]
        for n in (11, 12):
            types += rng.sample(list(CycleType.all_types(n)), 3)
        for t in types:
            beta = t.representative()
            n, lengths = beta.degree, t.parts()
            weights = oracle._cycle_weights(beta.word, set(lengths))
            got = oracle._profile_census(lengths, (1 << n) - 1, weights, {}, {})
            assert list(got.items()) == list(reference_census(beta).items()), lengths

    def test_count_brute_prints_what_it_printed(self, capsys):
        for (beta, n), counts in COUNT_BRUTE_UP_TO_12.items():
            for k, count in zip((0, 4, 5, n), counts):
                argv = ["count", "--beta", beta, "--n", str(n), "--k", str(k),
                        "--method", "brute", "--max-brute-n", str(n)]
                assert cli.main(argv) == 0
                assert capsys.readouterr() == (
                    f'{{"beta": "{beta}", "count": "{count}", "k": {k}, "method": "brute", '
                    f'"n": {n}, "provenance": "exhaustive"}}\n', ""), (beta, k)

    def test_bound(self):
        with pytest.raises(ValueError, match="exhaustive bound"):
            oracle.distribution(Permutation.identity(9))

    def test_degree_ceiling(self):
        beta = parse_permutation("(" + " ".join(map(str, range(1, 18))) + ")", 17)
        with pytest.raises(ValueError, match="ceiling"):
            oracle.distribution(beta, max_degree=17)

    def test_leaves_no_cyclic_garbage(self):
        # the census memo goes with the call, not at the next full collection
        betas = [CycleType.from_parts(parts).representative() for parts in [(3, 2, 1), (4, 4), (7,)]]
        oracle.distribution(betas[0])
        gc.collect()
        gc.disable()
        try:
            for beta in betas:
                oracle.distribution(beta)
                assert gc.collect() == 0, beta
        finally:
            gc.enable()


class TestKDistributionValue:
    BETA = parse_permutation("(1 2)", 3)

    def test_fields_and_indexing(self):
        d = oracle.distribution(self.BETA)
        assert (d.n, d.beta) == (3, self.BETA)
        assert d.counts == {0: 2, 1: 0, 2: 0, 3: 4}
        assert d.profiles == Counter({(): 2, (2, 1): 4})
        # indexing reads the histogram, zero off its support
        assert (d[0], d[3], d[1], d[9]) == (2, 4, 0, 0)
        assert d.total() == 6
        # but iteration, len and unpacking see the four fields
        assert len(d) == 4
        assert tuple(d)[2] is d.counts

    def test_eq_and_unhashable(self):
        d = oracle.distribution(self.BETA)
        assert d == oracle.distribution(self.BETA)
        assert d != oracle.distribution(parse_permutation("(1 2 3)", 3))
        assert d != oracle.KDistribution(3, self.BETA, {**d.counts, 3: 5}, d.profiles)
        # the dict fields make it unhashable
        with pytest.raises(TypeError):
            hash(d)

    def test_repr(self):
        assert repr(oracle.distribution(self.BETA)) == (
            "KDistribution(n=3, beta=Permutation([2, 1, 3]), "
            "counts={0: 2, 1: 0, 2: 0, 3: 4}, profiles=Counter({(2, 1): 4, (): 2}))"
        )

    def test_immutable(self):
        d = oracle.distribution(self.BETA)
        for name in ("n", "counts", "other"):
            with pytest.raises(AttributeError):
                setattr(d, name, {})
        assert d.n == 3


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
                # the parity of alpha from its cycles: n minus their number
                want[a.commute_distance(beta)][(n - len(a.cycles())) % 2] += 1
            split = oracle.parity_split(beta)
            assert split == {k: tuple(v) for k, v in want.items()}
            assert [oracle.even_odd_split(beta, k) for k in range(n + 2)] == [
                split[k] for k in range(n + 1)
            ] + [(0, 0)]

    def test_parity_split_builds_no_cycles(self, monkeypatch):
        calls = 0
        cycles = Permutation.cycles

        def counting(self):
            nonlocal calls
            calls += 1
            return cycles(self)

        monkeypatch.setattr(Permutation, "cycles", counting)
        split = oracle.parity_split(parse_permutation("(1 2)(3 4)", 5))
        assert sum(map(sum, split.values())) == 120
        assert calls == 0

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

    def test_filter_by_profile_rejects_parts_below_one(self):
        # the profile is read through blocks.as_profile, the one canonical form
        beta = parse_permutation("(1 2 3 4)(5 6)", 6)
        for profile in [(3, 0), (0,), (2, -1)]:
            with pytest.raises(ValueError, match="profile parts must be positive"):
                oracle.filter_by_profile(beta, profile)


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
