import itertools
import random

import pytest

from kommute import blocks
from kommute.perm import CycleType, Permutation, all_permutations, parse_permutation

BETA7 = parse_permutation("(1 2 4 5 3)(7 6)", 7)
ALPHA7 = parse_permutation("(2 7)(3 6 4 5)", 7)


def naive_characterization(alpha, beta, bad=None):
    """
    The block characterization restated from beta.cycles() and the one-line
    words alone; ``bad`` replaces the bad points when given.
    """
    a, b = alpha.word, beta.word
    n = len(a)
    distance = sum(a[b[i]] != b[a[i]] for i in range(n))
    if bad is None:
        bad = {i + 1 for i in range(n) if a[b[i]] != b[a[i]]}
    cycles = beta.cycles()
    length_of = {p: len(c) for c in cycles for p in c}

    def block(points):
        return len(points) <= length_of[points[0]] and all(
            b[p - 1] + 1 == q for p, q in zip(points, points[1:])
        )

    total = 0
    images = []
    for cycle in cycles:
        marks = [i for i, p in enumerate(cycle) if p in bad]
        if not marks:
            image = [a[p - 1] + 1 for p in cycle]
            if not (block(image) and len(image) == length_of[image[0]]):
                return False
            continue
        m = len(cycle)
        runs, run = [], []
        for j in range(m):
            p = cycle[(marks[0] + 1 + j) % m]
            run.append(a[p - 1] + 1)
            if p in bad:
                runs.append(run)
                run = []
        total += len(runs)
        if len(runs) == 1:
            if not (block(runs[0]) and len(runs[0]) < length_of[runs[0][0]]):
                return False
        elif not all(block(r) for r in runs) or any(
            block(runs[i] + runs[(i + 1) % len(runs)]) for i in range(len(runs))
        ):
            return False
        for r in runs:
            images.extend(r)
    return len(images) == len(set(images)) and total == distance


def reference_cycle_verdict(a, cycle, bad, w, host):
    """
    ``blocks._cycle_verdict`` as it was before its one-pass kernel: the
    image runs built as lists, each tested with ``is_block`` below, then the
    lone-run rule, the merges and the image popcount, each in its own pass.
    """

    def is_block(points):
        return len(points) <= host[points[0]] and [w[p] for p in points[:-1]] == points[1:]

    ends = [i for i, p in enumerate(cycle) if p in bad]
    try:
        runs = blocks._cut(cycle, bad, ends[-1] + 1) if ends else [cycle]
    except ValueError:
        return None
    images = [[a[p] for p in run] for run in runs]
    if not all(map(is_block, images)):
        return None
    if len(images) == 1 and (len(images[0]) == host[images[0][0]]) == bool(ends):
        return None
    for x, y in zip(images[-1:] + images[:-1], images):
        if w[x[-1]] == y[0] and len(x) + len(y) <= host[x[0]]:
            return None
    if not ends:
        return 0, 0
    points = [p for b in images for p in b]
    mask = sum([1 << p for p in points])
    if mask.bit_count() != len(points):
        return None
    return len(runs), mask


class TestBadPoints:
    def test_commuting_pair(self):
        b = parse_permutation("(1 2 3)", 5)
        assert blocks.bad_points(b, b) == frozenset()

    def test_worked_example(self):
        assert blocks.bad_points(ALPHA7, BETA7) == {1, 2, 3, 5, 6}

    def test_never_one_or_two(self):
        for a in all_permutations(4):
            for b in all_permutations(4):
                assert len(blocks.bad_points(a, b)) not in (1, 2)


class TestProfile:
    def test_commuting_pair(self):
        b = parse_permutation("(1 2 3)(4 5)", 5)
        assert blocks.profile(b, b) == ()

    def test_worked_example(self):
        assert blocks.profile(ALPHA7, BETA7) == (4, 1)

    def test_two_one_split_example(self):
        beta = parse_permutation("(1 2)(3 4 5)(6 7 8)(9 10 11 12)(13 14)", 14)
        alpha = parse_permutation("(1 3 9 6)(2 4 10 7)(5 11 8)", 14)
        assert blocks.profile(alpha, beta) == (2, 2, 1, 1)
        assert alpha.commute_distance(beta) == 6

    def test_order_insensitive_normalization(self):
        assert blocks.as_profile([2, 1, 2]) == blocks.as_profile([2, 2, 1]) == (2, 2, 1)

    def test_sums_to_distance(self):
        for n in (4, 5):
            for a in all_permutations(n):
                for b in all_permutations(n):
                    assert sum(blocks.profile(a, b)) == a.commute_distance(b)


class TestIsBlock:
    def test_single_point(self):
        pi = parse_permutation("(1 2 3)", 4)
        assert blocks.is_block([4], pi)
        assert blocks.is_block([2], pi)

    def test_improper_block(self):
        pi = parse_permutation("(1 2 3 4)(5 6 7 8 9)", 9)
        assert blocks.is_block([2, 3, 4, 1], pi)

    def test_across_cycles(self):
        pi = parse_permutation("(1 2 3 4)(5 6 7 8 9)", 9)
        assert not blocks.is_block([1, 2, 8], pi)

    def test_wraparound_rejected(self):
        pi = parse_permutation("(1 2 3)", 3)
        assert not blocks.is_block([1, 2, 3, 1, 2], pi)
        assert not blocks.is_block([2, 3, 1, 2], pi)

    def test_proper_block(self):
        pi = parse_permutation("(1 2 4 5 3)", 7)
        assert blocks.is_block([2, 4], pi)
        assert not blocks.is_block([2, 5], pi)

    def test_points_out_of_range(self):
        pi = parse_permutation("(1 2 3)", 4)
        assert not blocks.is_block([0], pi)
        assert not blocks.is_block([3, 5], pi)


class TestBlockDecomposition:
    def test_worked_example_big_cycle(self):
        dec = blocks.block_decomposition(ALPHA7, BETA7, 0)
        assert dec.domain == (1, 2, 4, 5, 3)
        assert dec.blocks == ((1,), (7,), (5, 3), (6,))
        assert dec.bad_points == (1, 2, 5, 3)

    def test_worked_example_small_cycle(self):
        dec = blocks.block_decomposition(ALPHA7, BETA7, 1)
        assert dec.blocks == ((2, 4),)
        assert dec.bad_points == (6,)
        # the single image row is a proper block in a cycle of beta: a block
        # shorter than its host cycle
        assert blocks.is_block([2, 4], BETA7)
        host = next(c for c in BETA7.cycles() if 2 in c)
        assert len([2, 4]) < len(host)

    def test_commuting_cycle_rejected(self):
        beta = parse_permutation("(1 2 3)(4 5)", 5)
        with pytest.raises(ValueError, match="commutes"):
            blocks.block_decomposition(beta, beta, 0)

    def test_block_count_matches_bad_points(self):
        rng = random.Random(31)
        perms = list(all_permutations(6))
        for _ in range(150):
            a, b = rng.choice(perms), rng.choice(perms)
            bad = blocks.bad_points(a, b)
            for idx, cycle in enumerate(b.cycles()):
                in_cycle = sum(p in bad for p in cycle)
                if in_cycle == 0:
                    continue
                dec = blocks.block_decomposition(a, b, idx)
                assert len(dec.blocks) == in_cycle
                assert sorted(dec.domain) == sorted(cycle)
                assert set(dec.bad_points) == {p for p in cycle if p in bad}

    def test_walk_ending_off_a_bad_point_raises(self):
        # a raise, not an assert, so that python -O keeps the check
        with pytest.raises(ValueError, match="bad point"):
            blocks._cut((1, 2, 3), frozenset({2}), 0)
        assert blocks._cut((1, 2, 3), frozenset({2}), 2) == [[3, 1, 2]]


class TestBlockDecompositionValue:
    def dec(self):
        return blocks.block_decomposition(ALPHA7, BETA7, 1)

    def test_fields(self):
        d = self.dec()
        assert (d.cycle_index, d.domain, d.blocks, d.bad_points) == (1, (7, 6), ((2, 4),), (6,))
        assert d == blocks.BlockDecomposition(1, (7, 6), ((2, 4),), (6,))

    def test_eq_and_hash(self):
        assert self.dec() == self.dec()
        assert hash(self.dec()) == hash(self.dec())
        assert self.dec() != blocks.block_decomposition(ALPHA7, BETA7, 0)
        assert self.dec() != blocks.BlockDecomposition(0, (7, 6), ((2, 4),), (6,))
        assert len({self.dec(), self.dec(), blocks.block_decomposition(ALPHA7, BETA7, 0)}) == 2

    def test_repr(self):
        assert repr(self.dec()) == (
            "BlockDecomposition(cycle_index=1, domain=(7, 6), blocks=((2, 4),), bad_points=(6,))"
        )

    def test_immutable(self):
        d = self.dec()
        for name in ("cycle_index", "blocks", "other"):
            with pytest.raises(AttributeError):
                setattr(d, name, ())
        assert d == self.dec()


class TestVerifyCharacterization:
    def test_identity_pair(self):
        e = Permutation.identity(4)
        assert blocks.verify_characterization(e, e)

    def test_all_pairs_s5(self):
        for a in all_permutations(5):
            for b in all_permutations(5):
                assert blocks.verify_characterization(a, b)

    def test_all_alpha_against_6cycle(self):
        b = parse_permutation("(1 2 3 4 5 6)", 6)
        for a in all_permutations(6):
            assert blocks.verify_characterization(a, b)

    def test_matches_naive_restatement(self):
        for n in range(1, 6):
            perms = list(all_permutations(n))
            for b in perms:
                for a in perms:
                    assert blocks.verify_characterization(a, b) == naive_characterization(a, b)

    def test_fails_when_a_bad_point_is_dropped(self, monkeypatch):
        # a check drifting to always-True cannot pass this
        exact = blocks.bad_points
        for n in range(3, 5):
            perms = list(all_permutations(n))
            for b in perms:
                for a in perms:
                    for drop in exact(a, b):
                        dropped = exact(a, b) - {drop}
                        monkeypatch.setattr(blocks, "bad_points", lambda *_: dropped)
                        assert not blocks.verify_characterization(a, b)
                        assert not naive_characterization(a, b, dropped)
                        monkeypatch.setattr(blocks, "bad_points", exact)

    def test_an_extra_bad_point_is_rejected(self):
        # marking a good point p bad splits a block at p, so two adjacent
        # image blocks merge again (or a cycle's lone block becomes
        # improper); raising k with it leaves only those checks to fail
        cases = 0
        for n in range(2, 6):
            perms = list(all_permutations(n))
            for b in perms:
                cycles, host = blocks._frame(b.word)
                for a in perms:
                    bad = frozenset(p - 1 for p in blocks.bad_points(a, b))
                    for p in set(range(n)) - bad:
                        cases += 1
                        verdicts = (
                            blocks._cycle_verdict(a.word, c, bad | {p}, b.word, host)
                            for c in cycles
                        )
                        assert not blocks._fold(verdicts, len(bad) + 1), (a, b, p)
        assert cases == 18830

    def test_cycle_verdict_equals_the_reference_kernel(self):
        # every cycle of every pair with n <= 5, under every subset of the
        # cycle's points as the bad set: a wrong bad set is how a mutated
        # scan reaches the kernel
        cases = 0
        for n in range(1, 6):
            perms = list(all_permutations(n))
            for b in perms:
                w = b.word
                cycles, host = blocks._frame(w)
                for a in perms:
                    for cycle in cycles:
                        for r in range(len(cycle) + 1):
                            for chosen in itertools.combinations(cycle, r):
                                bad = frozenset(chosen)
                                cases += 1
                                assert blocks._cycle_verdict(
                                    a.word, cycle, bad, w, host
                                ) == reference_cycle_verdict(a.word, cycle, bad, w, host), (
                                    a, b, cycle, bad)
        assert cases == 252_162

    def test_cycle_verdict_is_local_to_the_cycle(self):
        # alpha's images off the cycle and bad points off it change nothing:
        # the key verify shares cycle verdicts under
        for n in range(1, 6):
            perms = list(all_permutations(n))
            for b in perms:
                cycles, host = blocks._frame(b.word)
                for a in perms:
                    bad = frozenset(p - 1 for p in blocks.bad_points(a, b))
                    for cycle in cycles:
                        local = [None] * n
                        for p in cycle:
                            local[p] = a.word[p]
                        assert blocks._cycle_verdict(
                            tuple(local), cycle, bad & frozenset(cycle), b.word, host
                        ) == blocks._cycle_verdict(a.word, cycle, bad, b.word, host)

    def test_broken_walk_is_a_failure(self, monkeypatch):
        def broken(cycle, bad, start):
            raise ValueError("walk broken")

        monkeypatch.setattr(blocks, "_cut", broken)
        assert blocks.verify_characterization(ALPHA7, BETA7) is False
        with pytest.raises(ValueError, match="walk broken"):
            blocks.block_decomposition(ALPHA7, BETA7, 0)

    def test_fold_rejects_overlapping_image_masks(self):
        assert blocks._fold([(1, 0b0110), (0, 0), (1, 0b1000)], 2)
        assert not blocks._fold([(1, 0b0110), (1, 0b0100)], 2)
        assert not blocks._fold([(1, 0b0110), None], 1)
        assert not blocks._fold([(1, 0b0110), (1, 0b1000)], 3)

    def test_a_repeated_image_point_fails_the_cycle(self, monkeypatch):
        # a cut that reads the run [1, 2] of (1 2 3 4), zero-based [0, 1],
        # twice: both images are blocks and neither merges with the other, so
        # only the image mask's popcount sees the repeated points
        beta = Permutation.from_cycles([(1, 2, 3, 4)], 4)
        cycles, host = blocks._frame(beta.word)
        exact = blocks._cut
        monkeypatch.setattr(
            blocks, "_cut", lambda cycle, bad, start: [exact(cycle, bad, start)[0]] * 2
        )
        assert blocks._cut(cycles[0], frozenset({1, 3}), 0) == [[0, 1], [0, 1]]
        verdict = blocks._cycle_verdict((0, 1, 2, 3), cycles[0], frozenset({1, 3}), beta.word, host)
        assert verdict is None


class TestStructuralInvariants:
    # exhaustive over all alpha and one representative per cycle type

    def all_pairs(self, n_max):
        for n in range(2, n_max + 1):
            for t in CycleType.all_types(n):
                beta = t.representative()
                for alpha in all_permutations(n):
                    yield alpha, beta

    def test_no_all_ones_profile(self):
        for alpha, beta in self.all_pairs(5):
            prof = blocks.profile(alpha, beta)
            assert not (prof and set(prof) == {1})

    def test_one_part_forces_bigger_part(self):
        for alpha, beta in self.all_pairs(5):
            prof = blocks.profile(alpha, beta)
            if 1 in prof:
                assert prof[0] >= 2

    def test_no_single_bad_point_on_longest_cycle(self):
        for alpha, beta in self.all_pairs(5):
            longest = max(len(c) for c in beta.cycles())
            bad = blocks.bad_points(alpha, beta)
            for cycle in beta.cycles():
                if len(cycle) == longest:
                    assert sum(p in bad for p in cycle) != 1

    def test_support_bound(self):
        for alpha, beta in self.all_pairs(5):
            moved = sum(x != i for i, x in enumerate(beta.word))
            assert alpha.commute_distance(beta) <= 2 * moved

    def test_image_cycle_census(self):
        # cycles with bad points and cycles receiving their images agree per length
        for alpha, beta in self.all_pairs(5):
            bad = blocks.bad_points(alpha, beta)
            images = {alpha(p) for p in bad}
            touched: dict[int, int] = {}
            receiving: dict[int, int] = {}
            for cycle in beta.cycles():
                length = len(cycle)
                if any(p in bad for p in cycle):
                    touched[length] = touched.get(length, 0) + 1
                if any(p in images for p in cycle):
                    receiving[length] = receiving.get(length, 0) + 1
            assert touched == receiving
