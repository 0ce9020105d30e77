import copy
import itertools
import math
import pickle
import random
import time

import pytest

from kommute.perm import (
    CycleType,
    ParseError,
    Permutation,
    all_permutations,
    cycle_pieces,
    lex_parities,
    parse_permutation,
    point_labels,
    word_cycle_string,
    word_cycles,
    word_is_even,
)


def C(*cycles, n):
    return Permutation.from_cycles(cycles, n)


class TestCompose:
    def test_identity(self):
        e = Permutation.identity(3)
        assert e * e == e

    def test_transposition_after_3cycle(self):
        # apply (1 2 3) first, then (1 2): sends 1->1, 2->3, 3->2
        assert C((1, 2), n=3) * C((1, 2, 3), n=3) == C((2, 3), n=3)

    def test_3cycle_after_transposition(self):
        assert C((1, 2, 3), n=3) * C((1, 2), n=3) == C((1, 3), n=3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            Permutation.identity(3) * Permutation.identity(4)


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(5).inverse() == Permutation.identity(5)

    def test_cycle_reversal(self):
        assert C((1, 2, 3), n=3).inverse() == C((1, 3, 2), n=3)

    def test_involution(self):
        t = C((1, 2), n=4)
        assert t.inverse() == t

    def test_left_and_right(self):
        rng = random.Random(7)
        for _ in range(20):
            images = list(range(1, 7))
            rng.shuffle(images)
            p = Permutation(images)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()


class TestConjugate:
    def test_by_identity(self):
        p = C((1, 2, 3), n=4)
        assert p.conjugate_by(Permutation.identity(4)) == p

    def test_relabeling(self):
        # alpha=(1 2) relabels the cycle (1 2 3) pointwise to (2 1 3)
        got = C((1, 2, 3), n=3).conjugate_by(C((1, 2), n=3))
        assert got == C((2, 1, 3), n=3) == C((1, 3, 2), n=3)

    def test_preserves_cycle_type(self):
        rng = random.Random(11)
        for _ in range(25):
            imgs = list(range(1, 7))
            rng.shuffle(imgs)
            pi = Permutation(imgs)
            rng.shuffle(imgs)
            alpha = Permutation(imgs)
            assert pi.conjugate_by(alpha).cycle_type() == pi.cycle_type()


class TestHamming:
    def test_equal(self):
        p = C((1, 4), (2, 3), n=5)
        assert p.hamming(p) == 0

    def test_small_example(self):
        assert C((2, 3), n=3).hamming(C((1, 3), n=3)) == 3

    def test_distance_two_means_transposition_quotient(self):
        # over all of S_4: H(pi, tau) == 2 iff pi * tau^-1 is a transposition
        for pi in all_permutations(4):
            for tau in all_permutations(4):
                quotient = pi * tau.inverse()
                is_transposition = quotient.cycle_type().parts() == (2, 1, 1)
                assert (pi.hamming(tau) == 2) == is_transposition

    def test_never_one(self):
        for n in (2, 3, 4, 5):
            for pi in all_permutations(n):
                for tau in all_permutations(n):
                    assert pi.hamming(tau) != 1


class TestParity:
    def test_word_is_even_counts_inversions(self):
        for w in itertools.permutations(range(6)):
            inversions = sum(x > y for x, y in itertools.combinations(w, 2))
            assert word_is_even(w) == (inversions % 2 == 0)

    def test_rank_parities_match_word_is_even(self):
        # lex_parities indexes S_n by the rank of its words in
        # itertools.permutations order
        for n in range(0, 9):
            want = bytes(not word_is_even(w) for w in itertools.permutations(range(n)))
            assert lex_parities(n) == want, n


class TestCommuteDistance:
    def test_self(self):
        b = C((1, 2, 3), n=5)
        assert b.commute_distance(b) == 0

    def test_five_cycle_example(self):
        beta = C((1, 2, 3, 4, 5), n=5)
        alpha = C((1, 4), (2, 5), n=5)
        assert alpha.commute_distance(beta) == 3

    def test_conjugate_five_cycle_example(self):
        # the 5-cycle 2->3, 3->1, 1->4, 4->5, 5->2: same type, distance 5
        beta = C((2, 3, 1, 4, 5), n=5)
        alpha = C((1, 4), (2, 5), n=5)
        assert alpha.commute_distance(beta) == 5

    def test_symmetric(self):
        for n in (3, 4):
            for a in all_permutations(n):
                for b in all_permutations(n):
                    assert a.commute_distance(b) == b.commute_distance(a)

    def test_symmetric_sample_s5(self):
        rng = random.Random(3)
        perms = list(all_permutations(5))
        for _ in range(300):
            a, b = rng.choice(perms), rng.choice(perms)
            assert a.commute_distance(b) == b.commute_distance(a)


class TestCycles:
    def test_identity(self):
        assert Permutation.identity(3).cycles() == ((1,), (2,), (3,))

    def test_orbit_tracing(self):
        assert Permutation([2, 1, 4, 5, 3]).cycles() == ((1, 2), (3, 4, 5))

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            imgs = list(range(1, 8))
            rng.shuffle(imgs)
            p = Permutation(imgs)
            assert Permutation.from_cycles(p.cycles(), 7) == p

    def test_from_cycles_repeated_point(self):
        # within one cycle as well as across two
        for cycles in ([(1, 2, 1)], [(1, 2), (3, 1)]):
            with pytest.raises(ValueError, match=r"^point 1 appears more than once in the cycles$"):
                Permutation.from_cycles(cycles, 3)

    def test_word_cycles_are_cycles_minus_one(self):
        # and canonical on their own: each cycle follows the word from its
        # smallest point, the cycles ordered by it and covering every point
        for n in range(1, 7):
            for p in all_permutations(n):
                got = word_cycles(p.word)
                assert got == tuple(tuple(q - 1 for q in c) for c in p.cycles())
                assert [c[0] for c in got] == sorted(min(c) for c in got)
                assert sorted(q for c in got for q in c) == list(range(n))
                for c in got:
                    assert [p.word[q] for q in c] == list(c[1:] + c[:1])

    def test_cycle_string_matches_cycles(self):
        # cycle_string reads the word directly; its definition is cycles()
        # without the 1-cycles, and '()' for the identity
        for n in range(1, 7):
            for p in all_permutations(n):
                parts = ["(" + " ".join(map(str, c)) + ")" for c in p.cycles() if len(c) > 1]
                assert p.cycle_string() == ("".join(parts) or "()")
        assert Permutation.identity(5).cycle_string() == "()"

    def test_word_cycle_string_reads_tuples_and_bytes(self):
        # enumerate formats bytes keys with the routine cycle_string uses
        labels = point_labels(5)
        assert labels == ("1", "2", "3", "4", "5")
        pieces = cycle_pieces(5)
        assert pieces == (tuple("(" + s for s in labels), tuple(" " + s for s in labels))
        for p in all_permutations(5):
            want = p.cycle_string()
            assert word_cycle_string(p.word, pieces) == want
            assert word_cycle_string(bytes(p.word), pieces) == want
        assert word_cycle_string(bytes([1, 0, 3, 4, 2]), pieces) == "(1 2)(3 4 5)"


class TestCycleType:
    def test_identity(self):
        assert Permutation.identity(4).cycle_type().counts == (4, 0, 0, 0)

    def test_mixed(self):
        assert C((1, 2), (3, 4, 5), n=5).cycle_type().counts == (0, 1, 1, 0, 0)

    def test_double_transposition(self):
        assert C((1, 2), (3, 4), n=4).cycle_type().counts == (0, 2, 0, 0)

    def test_consistency_validated(self):
        with pytest.raises(ValueError):
            CycleType((1, 1))  # 1*1 + 2*1 = 3 != 2

    def test_inconsistency_message_names_the_weighted_sum(self):
        with pytest.raises(ValueError, match="lengths sum to 3, expected 2"):
            CycleType((1, 1))

    def test_lengths_present(self):
        t = CycleType.from_parts([5, 3, 3, 1])
        assert (t.degree, t.lengths()) == (12, {1: 1, 3: 2, 5: 1})
        assert CycleType.from_parts([1] * 4).lengths() == {1: 4}

    def test_nonpositive_part_rejected(self):
        for parts in ([0], [-1], [3, -1], [2, 0]):
            with pytest.raises(ValueError, match="cycle lengths must be positive"):
                CycleType.from_parts(parts)

    def test_all_types_count(self):
        # number of cycle types is the partition count
        assert sum(1 for _ in CycleType.all_types(6)) == 11
        assert sum(1 for _ in CycleType.all_types(8)) == 22

    def test_representative(self):
        t = CycleType.from_parts([3, 2, 1])
        rep = t.representative()
        assert rep.cycles() == ((1, 2, 3), (4, 5), (6,))
        assert rep.cycle_type() == t


class TestCycleTypeValue:
    # an immutable value used as a dict key; it must equal only a CycleType
    COUNTS = (2, 0, 1, 0, 0)

    def test_fields(self):
        t = CycleType(self.COUNTS)
        assert t.counts == self.COUNTS
        assert t == CycleType(counts=self.COUNTS) == CycleType.from_parts([3, 1, 1])

    def test_eq_and_hash(self):
        t = CycleType(self.COUNTS)
        assert t == CycleType(self.COUNTS) and not t != CycleType(self.COUNTS)
        assert t != CycleType.from_parts([2, 2, 1])
        # unlike a NamedTuple, never equal to a tuple
        assert t != self.COUNTS and t != (self.COUNTS,)
        assert hash(t) == hash(CycleType(self.COUNTS))
        assert len({t, CycleType(self.COUNTS), CycleType.from_parts([5])}) == 2

    def test_repr(self):
        assert repr(CycleType(self.COUNTS)) == "CycleType(counts=(2, 0, 1, 0, 0))"

    def test_immutable(self):
        t = CycleType(self.COUNTS)
        for name in ("counts", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, (3, 0, 0))
        with pytest.raises(AttributeError):
            del t.counts
        assert t.counts == self.COUNTS

    def test_pickle_and_copy(self):
        t = CycleType(self.COUNTS)
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.copy(t) == copy.deepcopy(t) == t

    def test_validation(self):
        with pytest.raises(ValueError, match="positive degree"):
            CycleType(())
        with pytest.raises(ValueError, match="nonnegative"):
            CycleType((3, -1, 1))
        # the third, an inconsistent census, is pinned in TestCycleType


class TestParity:
    def test_identity_even(self):
        assert Permutation.identity(4).parity() == "even"

    def test_transposition_odd(self):
        assert C((2, 4), n=5).parity() == "odd"

    def test_3cycle_even(self):
        assert C((1, 2, 3), n=3).parity() == "even"

    def test_homomorphism(self):
        rng = random.Random(13)
        perms = list(all_permutations(5))
        for _ in range(200):
            a, b = rng.choice(perms), rng.choice(perms)
            assert (a * b).is_even() == (a.is_even() == b.is_even())


class TestSupport:
    def test_identity_empty(self):
        assert Permutation.identity(5).support() == frozenset()

    def test_transposition(self):
        t = C((1, 2), n=4)
        assert t.support() == {1, 2}
        assert t.fixed_points() == {3, 4}

    def test_partition(self):
        rng = random.Random(17)
        for _ in range(20):
            imgs = list(range(1, 7))
            rng.shuffle(imgs)
            p = Permutation(imgs)
            assert p.support() | p.fixed_points() == set(range(1, 7))
            assert not p.support() & p.fixed_points()


class TestCentralizerOrder:
    def test_identity(self):
        for n in range(1, 7):
            assert CycleType.from_parts([1] * n).centralizer_order() == math.factorial(n)

    def test_transposition(self):
        for n in range(2, 9):
            t = CycleType.from_parts([2] + [1] * (n - 2))
            assert t.centralizer_order() == 2 * math.factorial(n - 2)

    def test_ncycle(self):
        for n in range(1, 9):
            assert CycleType.from_parts([n]).centralizer_order() == n

    def test_equals_exhaustive_commuting_count(self):
        # for every beta in S_n, n <= 6: |{alpha : alpha beta == beta alpha}|
        for n in range(1, 7):
            for b in itertools.permutations(range(n)):
                want = Permutation._from_word(b).cycle_type().centralizer_order()
                rng = range(n)
                got = sum(
                    all(a[b[i]] == b[a[i]] for i in rng)
                    for a in itertools.permutations(rng)
                )
                assert got == want


class TestDistinctOddParts:
    def test_fixed_point_plus_3cycle(self):
        assert CycleType.from_parts([3, 1]).has_distinct_odd_parts()

    def test_transposition_type(self):
        assert not CycleType.from_parts([2, 1, 1]).has_distinct_odd_parts()

    def test_repeated_odd(self):
        assert not CycleType.from_parts([1, 1]).has_distinct_odd_parts()


class TestParseFormat:
    def test_cycles(self):
        assert parse_permutation("(1 2)(3 4 5)", 5) == Permutation([2, 1, 4, 5, 3])

    def test_empty_cycle_list(self):
        assert parse_permutation("()", 3) == Permutation.identity(3)
        assert parse_permutation("", 3) == Permutation.identity(3)

    def test_commas(self):
        assert parse_permutation("(1,2)(3, 4,5)", 5) == Permutation([2, 1, 4, 5, 3])

    def test_one_line(self):
        assert parse_permutation("2 1 4 5 3", 5) == Permutation([2, 1, 4, 5, 3])
        assert parse_permutation("2,1,4,5,3", 5) == Permutation([2, 1, 4, 5, 3])

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(30):
            imgs = list(range(1, 8))
            rng.shuffle(imgs)
            p = Permutation(imgs)
            for text in (p.cycle_string(), p.one_line_string()):
                assert parse_permutation(text, 7) == p

    def test_point_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_permutation("(1 9)", 5)

    def test_repeated_point(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_permutation("(1 2)(2 3)", 5)

    def test_repeated_image_is_the_first_in_text_order(self):
        # 3 is the first image that occurs twice, though 1 repeats first
        with pytest.raises(ParseError, match=r"^image 3 repeated \(at position 0\)$"):
            parse_permutation("3 1 1 3", 4)

    def test_repeated_image_found_in_linear_time(self):
        # one images.count per image is quadratic: 1.7 s at n = 10,000 (2 vCPUs)
        text = " ".join(map(str, range(1, 10_000))) + " 9999"
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"^image 9999 repeated \(at position 48883\)$"):
            parse_permutation(text, 10_000)
        assert time.perf_counter() - start < 0.5

    def test_malformed(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse_permutation("(1 2", 5)
        with pytest.raises(ParseError) as err:
            parse_permutation("(1 x)", 5)
        assert err.value.position == 3

    def test_non_decimal_digits_are_parse_errors(self):
        # '²' passes str.isdigit() but not int(); it must not reach int()
        for text, position in [("(1 ²)", 3), ("(1 2)(3⁴)", 7), ("1 ² 3", 2)]:
            with pytest.raises(ParseError, match="but found") as err:
                parse_permutation(text, 4)
            assert err.value.position == position, text

    def test_fullwidth_digits_parse(self):
        # int() reads every Unicode decimal digit, so these are points
        assert parse_permutation("(１ 2)", 3) == C((1, 2), n=3)
        assert parse_permutation("２ １ ３", 3) == C((1, 2), n=3)

    def test_one_line_wrong_length(self):
        with pytest.raises(ParseError, match="5 images"):
            parse_permutation("1 2 3", 5)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in all_permutations(3)) == 6

    def test_lexicographic_start(self):
        first = next(iter(all_permutations(4)))
        assert first == Permutation.identity(4)
