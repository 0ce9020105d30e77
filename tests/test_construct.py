import hashlib
import itertools
import os
import subprocess
import sys
import unittest.mock
from collections import Counter

import pytest

import kommute
from kommute import blocks, construct, formulas, oracle
from kommute.construct import SingleCycleChoice
from kommute.perm import CycleType, Permutation, parse_permutation, word_cycles


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


class TestSingleCycleChoiceValue:
    # one is built per witness; its value semantics must not drift
    TAU = Permutation.from_cycles([(1, 3, 2)], 3)

    def choice(self, **changes):
        fields = dict(source=0, target=1, points=(1, 2, 3), tau=self.TAU, start=4, outer=5)
        fields.update(changes)
        return SingleCycleChoice(**fields)

    def test_fields(self):
        c = SingleCycleChoice(0, 1, (1, 2, 3), self.TAU, 4, 5)
        assert (c.source, c.target, c.points, c.tau, c.start, c.outer) == (
            0, 1, (1, 2, 3), self.TAU, 4, 5)
        assert c == self.choice()

    def test_eq_and_hash(self):
        assert self.choice() == self.choice()
        assert hash(self.choice()) == hash(self.choice())
        for change in [dict(source=1), dict(points=(1, 2, 4)), dict(outer=0),
                       dict(tau=Permutation.from_cycles([(1, 2, 3)], 3))]:
            assert self.choice(**change) != self.choice(), change
        assert len({self.choice(), self.choice(), self.choice(start=1)}) == 2

    def test_repr(self):
        assert repr(self.choice()) == (
            "SingleCycleChoice(source=0, target=1, points=(1, 2, 3), "
            "tau=Permutation([3, 1, 2]), start=4, outer=5)"
        )

    def test_immutable(self):
        c = self.choice()
        for name in ("source", "points", "outer"):
            with pytest.raises(AttributeError):
                setattr(c, name, 7)
        assert c == self.choice()


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
            assert bad == {p for p in range(1, n + 1) if alpha(p) in choice.points}
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

    def test_characterization_reads_back_the_choice(self):
        # the characterization cuts alpha's images of the source cycle into
        # the blocks the construction cut the target cycle into, at the
        # alpha-preimages of the selected points
        cases = [
            ("(1 2 3 4 5)", 5, 4), ("(1 2 3 4)(5 6)(7 8)", 8, 3), ("(1 2 3)(4 5 6)", 8, 3),
            ("(2 5 1 4)(3 6 7 8)", 8, 4), ("(1 2 3 4 5 6)", 7, 5),
        ]
        seen = 0
        for text, n, k in cases:
            beta = parse_permutation(text, n)
            cycles = beta.cycles()
            for choice, alpha in construct.single_cycle_pairs(beta, k):
                seen += 1
                cycle = cycles[choice.target]
                cut = blocks._cut(cycle, set(choice.points), cycle.index(max(choice.points)) + 1)
                decomposition = blocks.block_decomposition(alpha, beta, choice.source)
                assert set(decomposition.blocks) == set(map(tuple, cut))
                preimages = {p for p in range(1, n + 1) if alpha(p) in choice.points}
                assert set(decomposition.bad_points) == preimages
        assert seen == 577


def one_row_frame(cycles, row, turns=False):
    # the frame of source = target = cycle 0 with the one image row ``row``
    [(_, _, frame)] = construct._frames(cycles, [((0,), (0,))], lambda t, inner: [((), row)], turns)
    return frame


class TestBijectionCheck:
    # an outer map that sends two points to the same image
    CHECK = (
        "from kommute import construct\n"
        "[(_, _, f)] = construct._frames(((0, 1), (2, 3)), [((0,), (0,))], lambda t, i: [((), i)], False)\n"
        "assert (f.rows, [*construct._unpack(f.outers, 2)]) == (bytes([0, 1]), [bytes([2, 3]), bytes([3, 2])])\n"
        "try:\n"
        "    construct._checked([2, 2], [2, 3])\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )

    def test_collision_raises(self):
        frame = one_row_frame(((0, 1), (2, 3)), [1, 0])
        outers = list(construct._unpack(frame.outers, frame.outer_width))
        word = frame.gather(frame.rows + outers[1])
        assert Permutation._from_word(word) == Permutation([2, 1, 4, 3])
        with pytest.raises(ValueError, match="not a bijection"):
            construct._checked([2, 2], [2, 3])
        with pytest.raises(ValueError, match=r"^images \(1, 1\) are not a bijection onto \(1, 2\)$"):
            one_row_frame(((0, 1), (2, 3)), [0, 0])

    def test_collision_raises_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        src = os.path.dirname(os.path.dirname(kommute.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.CHECK],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "not a bijection" in proc.stdout


def outer_maps(beta, sources, targets):
    # the outer rows of construct._outer_rows as 1-based point -> image dicts
    points, rows = construct._outer_rows(word_cycles(beta.word), sources, targets)
    return [{p + 1: q + 1 for p, q in zip(points, row)} for row in rows]


def reference_outer_assignments(beta, sources, targets):
    # the nested-loop generator that defined the order of the outer maps
    cycles = beta.cycles()
    dom, cod = {}, {}
    for i, cycle in enumerate(cycles):
        if i not in sources:
            dom.setdefault(len(cycle), []).append(cycle)
        if i not in targets:
            cod.setdefault(len(cycle), []).append(cycle)
    lengths = sorted(dom)

    def expand(idx):
        if idx == len(lengths):
            yield {}
            return
        length = lengths[idx]
        dcycles, ccycles = dom[length], cod[length]
        for rest in expand(idx + 1):
            for perm in itertools.permutations(range(len(ccycles))):
                for rots in itertools.product(range(length), repeat=len(dcycles)):
                    mapping = dict(rest)
                    for d, ci, rot in zip(dcycles, perm, rots):
                        c = ccycles[ci]
                        for pos, point in enumerate(d):
                            mapping[point] = c[(pos + rot) % length]
                    yield mapping

    return expand(0)


class TestOuterAssignments:
    @pytest.mark.parametrize(
        "text,n",
        [("(1 2 3 4)(5 6)(7 8)", 8), ("(1 2 3)(4 5 6)(7 8 9)(10 11)", 12), ("(1 2)(3 4)(5 6)(7 8)", 9)],
    )
    def test_order_matches_reference(self, text, n):
        beta = parse_permutation(text, n)
        cycles = beta.cycles()
        for r in range(3):
            for sources in itertools.combinations(range(len(cycles)), r):
                for targets in itertools.combinations(range(len(cycles)), r):
                    lengths = sorted(len(cycles[i]) for i in sources)
                    if lengths != sorted(len(cycles[i]) for i in targets):
                        continue
                    got = outer_maps(beta, sources, targets)
                    assert got == list(reference_outer_assignments(beta, sources, targets))

    def test_commuting_bijections_brute_force(self):
        # every bijection between the complements that commutes with beta there
        beta = parse_permutation("(1 2 3)(4 5 6)(7 8)(9 10)", 10)
        got = outer_maps(beta, [0], [1])
        dom = [4, 5, 6, 7, 8, 9, 10]
        cod = [1, 2, 3, 7, 8, 9, 10]
        want = []
        for images in itertools.permutations(cod):
            f = dict(zip(dom, images))
            if all(f[beta(x)] == beta(f[x]) for x in dom):
                want.append(f)
        assert len(got) == len(want) == 3 * 2 * 2 * 2
        assert sorted(map(sorted, map(dict.items, got))) == sorted(
            map(sorted, map(dict.items, want))
        )


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

    def test_no_cycle_of_k_points_walks_no_kcycles(self, monkeypatch):
        # (1 2 3) has no witness at k = 15, and the walk over the 14! cycles
        # of 15 points would take days
        def walk(k):
            raise AssertionError(f"walked the {k}-cycles")

        monkeypatch.setattr(construct, "successor_free_kcycles", walk)
        beta = parse_permutation("(1 2 3)", 20)
        assert [list(words) for words in construct.single_cycle_leads(beta, 15)] == [[]] * 20

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
        taus = construct.successor_free_kcycles(k)
        orders = [c[c.index(k) :] + c[: c.index(k)] for c in (t.cycles()[0] for t in taus)]
        frame = one_row_frame(word_cycles(beta.word), list(range(5)), True)
        outers = list(construct._unpack(frame.outers, frame.outer_width))
        hits: Counter = Counter()
        for points in itertools.combinations(sorted(cycle), k):
            for endpoint in points:
                cut = blocks._cut(cycle, set(points), cycle.index(endpoint) + 1)
                for order in orders:
                    row = bytes(construct._image_row([[p - 1 for p in b] for b in cut], order))
                    for s in range(len(cycle)):
                        for outer in outers:
                            word = frame.gather(construct._rotate(row, s) + outer)
                            hits[Permutation([x + 1 for x in word])] += 1
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

    def test_one_pair_builds_no_outer_map(self, monkeypatch):
        # at j = 1 no matching avoids the target couple, so no frame has a
        # row and no outer map is built: with 8 couples that is 64 frames of
        # 645,120 maps each (234 s and 390 MB when they were built)
        def refused(cycles, sources, targets):
            raise AssertionError("an outer map was built")

        monkeypatch.setattr(construct, "_outer_rows", refused)
        beta = CycleType.from_parts([2] * 8).representative()
        assert [list(words) for words in construct.fpf_leads(beta, 1)] == [[]] * 16
        assert list(construct.fpf_pairs(beta, 1)) == []

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


class TestPairStreamOrder:
    # (count, SHA-256) of the full (choice, alpha) sequence; the order must
    # not drift
    SINGLE = {
        ("(1 2 3 4)(5 6)(7 8)", 8, 3): (
            128, "f838b35d050119a146ba0bdfdd7ac9bad8c20b166c20fd7af799100caef2aaaf"),
        ("(1 2 3)(4 5 6)", 8, 3): (
            72, "9707ea85518cc1c701e439e6c0527e92d7cd955844fd41397fd0eef21db39ff9"),
        ("(1 2 3 4 5 6)", 7, 4): (
            90, "172c8ebf72a65c195bc4fac9a9e37e009b8a3b4fae38ca64089cc33b01f25a9b"),
    }
    FPF = {
        ("(1 2)(3 4)(5 6)", 6, 2): (
            288, "03d891a3a19c16c1618a5ea9d1115f6617abe704b7d22c5a4d383b8e2f9b5d3c"),
        ("(1 2)(3 4)(5 6)(7 8)", 8, 2): (
            4608, "73e39181cad528ad676a43f9c1ad7a8be7fc4e1d6e4f0d9c0f0d996e1fe6bf14"),
        ("(1 2)(3 4)(5 6)(7 8)", 8, 3): (
            12288, "415ecbcf9b6933bf5ba8669d3265562334662cd717d17fec5faff9d82063e37e"),
    }

    @staticmethod
    def digest(records):
        h = hashlib.sha256()
        count = 0
        for record in records:
            h.update(repr(record).encode() + b"\n")
            count += 1
        return count, h.hexdigest()

    @pytest.mark.parametrize("text,n,k", list(SINGLE))
    def test_single_cycle_pairs(self, text, n, k):
        pairs = construct.single_cycle_pairs(parse_permutation(text, n), k)
        got = self.digest(
            (c.source, c.target, c.points, c.tau.word, c.start, c.outer, alpha.word)
            for c, alpha in pairs
        )
        assert got == self.SINGLE[text, n, k]

    @pytest.mark.parametrize("text,n,j", list(FPF))
    def test_fpf_pairs(self, text, n, j):
        pairs = construct.fpf_pairs(parse_permutation(text, n), j)
        got = self.digest((choice, alpha.word) for choice, alpha in pairs)
        assert got == self.FPF[text, n, j]


def _deck(parts):
    # the cycle string and degree of a representative of the type
    return CycleType.from_parts(parts).representative().cycle_string(), sum(parts)


class TestLeadStreams:
    # the per-lead streams that enumerate and verify read are the words in
    # construction order split by leading entry.  Against the pair streams'
    # words, with the closed-form count: at the pair-order cases and at the
    # shapes perfbench's enumerate_stream deck requests (single: cycle type
    # and k; fpf: m pairs and j).  Against the frames' words, read from the
    # expander: on every cycle type of degree n <= 8 at every k >= 3, and on
    # the fixed-point-free involutions with m <= 5 couples at every j (up to
    # 2,088,960 words)
    SINGLE = [*TestPairStreamOrder.SINGLE] + [
        (*_deck(parts), k)
        for parts, k in [
            ((9,), 4), ((9,), 5), ((9,), 6), ((10,), 5), ((8,), 6), ((8, 3), 5),
            ((8, 3), 6), ((8, 2), 6), ((6, 6), 5), ((6, 6), 6), ((7, 7), 4),
            ((7, 7), 5), ((7, 2, 1), 6), ((5, 5), 4),
        ]
    ]
    FPF = [*TestPairStreamOrder.FPF] + [
        (*_deck((2,) * m), j) for m, j in [(4, 2), (4, 3), (4, 4), (5, 2)]
    ]

    @staticmethod
    def assert_split(words, leads, n):
        # each lead's stream gives the words with that lead, in the order
        # of ``words``, and only those, compared as packed bytes
        want = [bytearray() for _ in range(n)]
        for word in words:
            want[word[0]].extend(word)
        got = [bytes(itertools.chain.from_iterable(stream)) for stream in leads]
        assert got == want
        assert all(set(data[::n]) <= {lead} for lead, data in enumerate(got))

    @staticmethod
    def frame_words(frames):
        # the frames' words in construction order, read from the expander
        for _, _, f in frames:
            heads, outers = construct._expand(f)
            for head in heads:
                yield from map(f.gather, map(head.__add__, outers))

    @pytest.mark.parametrize("text,n,k", SINGLE)
    def test_single_cycle_leads_are_the_pairs_words(self, text, n, k):
        beta = parse_permutation(text, n)
        words = [alpha.word for _, alpha in construct.single_cycle_pairs(beta, k)]
        self.assert_split(words, construct.single_cycle_leads(beta, k), n)
        assert len(words) == formulas.single_cycle_count(beta.cycle_type(), k)

    @pytest.mark.parametrize("text,n,j", FPF)
    def test_fpf_leads_are_the_pairs_words(self, text, n, j):
        beta = parse_permutation(text, n)
        words = [alpha.word for _, alpha in construct.fpf_pairs(beta, j)]
        self.assert_split(words, construct.fpf_leads(beta, j), n)
        assert len(words) == formulas.fpf_involution_count(2 * j, n // 2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_single_cycle_leads_split_the_words(self, n):
        for t in CycleType.all_types(n):
            beta = t.representative()
            for k in range(3, n + 1):
                words = self.frame_words(construct._single_cycle_frames(beta, k))
                self.assert_split(words, construct.single_cycle_leads(beta, k), n)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_fpf_leads_split_the_words(self, m):
        beta = CycleType.from_parts([2] * m).representative()
        for j in range(m + 1):
            words = self.frame_words(construct._fpf_frames(beta, j))
            self.assert_split(words, construct.fpf_leads(beta, j), 2 * m)


def _collision_outcomes():
    # each stream under one injected fault: a colliding outer map (the
    # second map of every frame), a colliding image row, or a colliding
    # fpf inner assignment (a matching that uses a point twice).  The
    # outcome is the first thing the stream gives: an error, a lead's
    # stream or a (choice, witness) pair
    real_outers, real_row = construct._outer_rows, construct._image_row
    real_matchings = construct.perfect_matchings

    def colliding_outers(cycles, sources, targets):
        points, rows = real_outers(cycles, sources, targets)
        rows = list(rows)
        rows[1][0] = rows[1][1]
        return points, iter(rows)

    def colliding_row(blocks, order):
        row = real_row(blocks, order)
        row[1] = row[0]
        return row

    def colliding_matchings(points):
        yield ((points[0], points[2]), (points[0], points[3]))
        yield from real_matchings(points)

    single = (parse_permutation("(1 2 3)(4 5)(6 7)", 7), 3)
    fpf = (parse_permutation("(1 2)(3 4)(5 6)", 6), 2)
    streams = {
        "single_cycle_leads": (construct.single_cycle_leads, single),
        "single_cycle_pairs": (construct.single_cycle_pairs, single),
        "fpf_leads": (construct.fpf_leads, fpf),
        "fpf_pairs": (construct.fpf_pairs, fpf),
    }
    faults = {
        "outer map": ("_outer_rows", colliding_outers, list(streams)),
        "row": ("_image_row", colliding_row, ["single_cycle_leads", "single_cycle_pairs"]),
        "inner assignment": ("perfect_matchings", colliding_matchings, ["fpf_leads", "fpf_pairs"]),
    }
    outcomes = []
    for fault, (name, fake, names) in faults.items():
        with unittest.mock.patch.object(construct, name, fake):
            for stream in names:
                build, args = streams[stream]
                try:
                    outcome = f"yielded {next(build(*args))}"
                except ValueError as e:
                    outcome = str(e)
                outcomes.append(f"{fault} / {stream}: {outcome}")
    return outcomes


class TestGroupBijectionChecks:
    # a row, an fpf inner assignment and each outer map are checked once,
    # before any word of their frame is built; a per-word check would let
    # the words before the faulty one through
    def test_collision_raises_before_any_word(self):
        outcomes = _collision_outcomes()
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert "not a bijection" in outcome, outcome

    def test_collision_raises_under_optimize(self):
        # python -O strips assert statements; the checks must survive it
        src = os.path.dirname(os.path.dirname(kommute.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.path.dirname(__file__)])
        check = "import test_construct as t\nprint(*t._collision_outcomes(), sep='\\n')\n"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", check],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 8
        for line in lines:
            assert "not a bijection" in line, line
