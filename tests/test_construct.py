import itertools
from collections import Counter

import pytest

from kommute import blocks, construct, formulas, oracle
from kommute.construct import SingleCycleChoice
from kommute.perm import Permutation, all_permutations, parse_permutation


class TestCanonicalCycleWord:
    def test_worked_example(self):
        p = Permutation.from_cycles([(4, 3, 1), (6, 5), (7, 2)], 7)
        assert construct.canonical_cycle_word(p) == (4, 3, 1, 6, 5, 7, 2)

    def test_identity(self):
        assert construct.canonical_cycle_word(Permutation.identity(4)) == (1, 2, 3, 4)

    def test_injective_on_s4(self):
        words = {construct.canonical_cycle_word(p) for p in all_permutations(4)}
        assert len(words) == 24

    def test_round_trip(self):
        for p in all_permutations(5):
            word = construct.canonical_cycle_word(p)
            assert construct.from_canonical_word(word) == p


class TestSuccessorFreeKCycles:
    def test_unique_for_three(self):
        taus = list(construct.successor_free_kcycles(3))
        assert taus == [Permutation.from_cycles([(1, 3, 2)], 3)]
        tau = taus[0]
        assert (tau(1), tau(3), tau(2)) == (3, 2, 1)

    def test_counts_match_formula(self):
        for k in range(1, 7):
            got = sum(1 for _ in construct.successor_free_kcycles(k))
            assert got == formulas.successor_free_cycles(k)

    def test_all_avoid_successors(self):
        for tau in construct.successor_free_kcycles(5):
            for a in range(1, 6):
                assert tau(a) != a % 5 + 1


class TestBuildSingleCycle:
    @pytest.mark.parametrize(
        "text,n,k",
        [
            ("(1 2 3 4)", 4, 3),
            ("(1 2 3 4 5 6)", 6, 3),
            ("(1 2 3 4 5 6)", 6, 4),
            ("(1 2 3)(4 5 6)", 6, 3),
            ("(1 2 3)(4 5 6)", 6, 4),
        ],
    )
    def test_postconditions_for_all_choices(self, text, n, k):
        beta = parse_permutation(text, n)
        seen = 0
        for choice, alpha in construct.single_cycle_pairs(beta, k):
            seen += 1
            assert alpha.commute_distance(beta) == k
            bad = blocks.bad_points(alpha, beta)
            # bad points are the preimages of the selected points ...
            assert bad == {alpha.inverse()(p) for p in choice.points}
            # ... and they all sit in the source cycle
            assert bad <= set(beta.cycles()[choice.source])
        assert seen == formulas.single_cycle_count(beta.cycle_type(), k)

    def test_cross_cycle_choice_maps_source_onto_target(self):
        beta = parse_permutation("(1 2 3 4)(5 6 7 8)", 8)
        cycles = beta.cycles()
        for choice, alpha in construct.single_cycle_pairs(beta, 3):
            if choice.source != choice.target:
                src = set(cycles[choice.source])
                dst = set(cycles[choice.target])
                assert {alpha(p) for p in src} == dst

    def test_invalid_tau_rejected(self):
        beta = parse_permutation("(1 2 3 4)", 4)
        has_successor = Permutation.from_cycles([(1, 2, 3)], 3)  # 1 -> 2
        choice = SingleCycleChoice(0, 0, (1, 2, 3), has_successor, 1, 0)
        with pytest.raises(ValueError, match="successor-free"):
            construct.build_single_cycle(beta, choice)

    def test_short_cycle_rejected(self):
        beta = parse_permutation("(1 2)(3 4)", 4)
        tau = Permutation.from_cycles([(1, 3, 2)], 3)
        choice = SingleCycleChoice(0, 0, (1, 2), tau, 1, 0)
        with pytest.raises(ValueError):
            construct.build_single_cycle(beta, choice)

    def test_matches_pair_stream(self):
        beta = parse_permutation("(1 2 3 4 5)", 5)
        for choice, alpha in construct.single_cycle_pairs(beta, 4):
            assert construct.build_single_cycle(beta, choice) == alpha


class TestEnumerateSingleCycle:
    CASES = [
        ("(1 2 3 4 5 6)", 6, 3, 120),  # 6 * C(6,3) * 1
        ("(1 2 3)(4 5 6)", 6, 3, 36),  # 18 * 2 * 1 * 1
        ("(1 2)", 4, 3, 0),  # no cycle long enough
    ]

    @pytest.mark.parametrize("text,n,k,size", CASES)
    def test_cardinalities(self, text, n, k, size):
        beta = parse_permutation(text, n)
        assert len(construct.enumerate_single_cycle(beta, k)) == size

    def test_set_equals_brute_filter(self):
        for text, n in [("(1 2 3 4 5 6)", 6), ("(1 2 3)(4 5 6)", 6)]:
            beta = parse_permutation(text, n)
            for k in (3, 4):
                got = construct.enumerate_single_cycle(beta, k)
                assert got == oracle.filter_by_profile(beta, (k,))

    def test_duplicate_free(self):
        beta = parse_permutation("(1 2 3)(4 5 6)", 6)
        pairs = list(construct.single_cycle_pairs(beta, 3))
        assert len(pairs) == len({alpha for _, alpha in pairs})

    def test_k_below_three(self):
        beta = parse_permutation("(1 2 3)", 3)
        with pytest.raises(ValueError, match="k >= 3"):
            construct.enumerate_single_cycle(beta, 2)


class TestEndpointCanonicalization:
    def test_free_endpoint_multiplies_each_witness_k_times(self):
        # Ending the improper block at an arbitrary selected point (instead
        # of the largest) keeps the generated SET identical but produces
        # every witness exactly k times, so the canonical endpoint is what
        # makes the parameterization duplicate-free.
        beta = parse_permutation("(1 2 3 4 5)", 5)
        cycle = beta.cycles()[0]
        k = 3
        taus = list(construct.successor_free_kcycles(k))
        outers = list(construct.outer_assignments(beta, [0], [0]))
        hits: Counter = Counter()
        for points in itertools.combinations(sorted(cycle), k):
            for endpoint in points:
                for tau in taus:
                    for start in cycle:
                        for outer in outers:
                            core = construct._core_row_mapping_any_end(
                                cycle, cycle, points, tau, start, endpoint
                            )
                            hits[construct._assemble(5, core, outer)] += 1
        canonical = construct.enumerate_single_cycle(beta, k)
        assert set(hits) == canonical
        assert set(hits.values()) == {k}


class TestEnumerateFpf:
    def test_smallest_case(self):
        beta = parse_permutation("(1 2)(3 4)", 4)
        got = construct.enumerate_fpf(beta, 2)
        assert len(got) == 16
        assert got == oracle.filter_by_distance(beta, 4)

    def test_distance_zero_is_centralizer(self):
        beta = parse_permutation("(1 2)(3 4)(5 6)", 6)
        got = construct.enumerate_fpf(beta, 0)
        assert len(got) == 48
        assert all(alpha.commute_distance(beta) == 0 for alpha in got)

    def test_one_pair_impossible(self):
        beta = parse_permutation("(1 2)(3 4)", 4)
        assert construct.enumerate_fpf(beta, 1) == set()

    def test_all_j_against_oracle_m3(self):
        beta = parse_permutation("(1 2)(3 4)(5 6)", 6)
        for j in range(4):
            got = construct.enumerate_fpf(beta, j)
            assert got == oracle.filter_by_distance(beta, 2 * j)
            assert len(got) == formulas.fpf_involution_count(2 * j, 3)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="fixed-point-free involution"):
            construct.enumerate_fpf(parse_permutation("(1 2 3)", 3), 1)
        with pytest.raises(ValueError, match="fixed-point-free involution"):
            construct.enumerate_fpf(parse_permutation("(1 2)", 4), 1)

    def test_j_out_of_range(self):
        beta = parse_permutation("(1 2)(3 4)", 4)
        with pytest.raises(ValueError, match="out of range"):
            construct.enumerate_fpf(beta, 3)

    def test_duplicate_free(self):
        beta = parse_permutation("(1 2)(3 4)(5 6)", 6)
        pairs = list(construct.fpf_pairs(beta, 2))
        assert len(pairs) == len({alpha for _, alpha in pairs})


class TestPerfectMatchings:
    def test_counts_are_double_factorials(self):
        for j, want in [(0, 1), (1, 1), (2, 3), (3, 15)]:
            got = sum(1 for _ in construct.perfect_matchings(range(2 * j)))
            assert got == want

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            list(construct.perfect_matchings([1, 2, 3]))
